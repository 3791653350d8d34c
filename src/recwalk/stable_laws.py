"""Stable-law numerics on integer lattices.

Covers the two limit families exercised by the experiments: the Gaussian
(exponent 2) and the symmetric exponent-1 law with density
g(s) = scale / (pi (s^2 + scale^2)).  Provides dense float
self-convolution of lattice laws with leak accounting, the local-limit error
functional sup_k |B_n/h P(Z_n = an + kh) - g((an + kh)/B_n)|, and a
lattice lower-bound check on n P(Z_n = 0).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .return_laws import ReturnPositionLaw

log = logging.getLogger(__name__)


def cauchy_density(s, scale: float = 1.0):
    """Density scale / (pi (s^2 + scale^2)); the standard form at scale 1.
    Elementwise on arrays."""
    return scale / (math.pi * (s * s + scale * scale))


def gaussian_density(s):
    """Standard normal density, elementwise on arrays."""
    return np.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class StableTarget:
    """A stable limit law together with the lattice and norming data needed
    by the local limit theorem: the sums live on {a n + k h : k integer}
    and Z_n / B_n converges to the density g, which must accept arrays."""

    density: Callable[[float], float]
    span: int
    offset: int
    norming: Callable[[int], float]

    @classmethod
    def cauchy(cls, scale: float = 1.0, span: int = 2, offset: int = 0) -> "StableTarget":
        """Exponent-1 target with B_n = n, for even-lattice sums."""
        return cls(lambda s: cauchy_density(s, scale), span, offset, lambda n: float(n))

    @classmethod
    def gaussian(cls, span: int = 2, offset: int = 1) -> "StableTarget":
        """Exponent-2 target with B_n = sqrt(n), for +-1 step sums."""
        return cls(gaussian_density, span, offset, lambda n: math.sqrt(n))


# ---------------------------------------------------------------------------
# Convolution of float laws on an integer lattice.


@dataclass(frozen=True)
class LatticeLaw:
    """Float law on the lattice lo, lo + span, lo + 2 span, ...

    entries[i] = P(lo + i span), zeros allowed; leaked is the mass missing
    from the entries, so entries.sum() + leaked == 1 up to rounding.
    """

    lo: int
    span: int
    entries: np.ndarray
    leaked: float = 0.0

    @classmethod
    def from_position_law(cls, law: ReturnPositionLaw) -> "LatticeLaw":
        """The return-position law conditioned on its window [-lmax, lmax],
        renormalized so the convolution inputs carry mass one."""
        half = law.values.astype(np.float64) / law.window_mass()
        return cls(-law.lmax, 2, np.concatenate((half[:0:-1], half)))

    @property
    def hi(self) -> int:
        return self.lo + self.span * (len(self.entries) - 1)

    def prob(self, k: int) -> float:
        i, off = divmod(k - self.lo, self.span)
        if off or not 0 <= i < len(self.entries):
            return 0.0
        return float(self.entries[i])

    def is_symmetric(self) -> bool:
        return self.lo == -self.hi and np.array_equal(self.entries, self.entries[::-1])


_FFT_LIMIT = 4_000_000


def convolve_dists(a: LatticeLaw, b: LatticeLaw) -> LatticeLaw:
    """Law of the sum of independent draws from a and b.

    Dense float convolution (FFT above _FFT_LIMIT products, verified
    against the direct kernel to 1e-12 in the test suite).  The mass
    missing from either input is carried into the leaked account.
    """
    if a.span != b.span:
        raise ValueError(f"lattice spans differ: {a.span} and {b.span}")
    if len(a.entries) * len(b.entries) > _FFT_LIMIT:
        n = len(a.entries) + len(b.entries) - 1
        conv = np.fft.irfft(np.fft.rfft(a.entries, n) * np.fft.rfft(b.entries, n), n)
        np.clip(conv, 0.0, None, out=conv)
    else:
        conv = np.convolve(a.entries, b.entries)
    if a.is_symmetric() and b.is_symmetric():
        # float convolution can lose the exact l <-> -l symmetry at roundoff
        conv = 0.5 * (conv + conv[::-1])
    la, lb = a.leaked, b.leaked
    # absorb float rounding into the leak account so mass stays conserved
    leaked = max(la + lb - la * lb, 1.0 - float(conv.sum()))
    return LatticeLaw(a.lo + b.lo, a.span, conv, leaked)


#: longest transform self_convolve may take: each array of it holds 128 MB,
#: and it fits the 4096-fold law of a 4001-point window
MAX_TRANSFORM = 1 << 24


def transform_length(n_entries: int, n: int) -> int:
    """Points of the transform behind the n-fold law of a law with
    n_entries entries: the first power of two >= n (n_entries - 1) + 1."""
    return 1 << (n * (n_entries - 1)).bit_length()


def self_convolve(d: LatticeLaw, n: int) -> LatticeLaw:
    """Law of the sum of n independent copies of d.

    Small laws go by binary exponentiation (log2 n calls of
    convolve_dists).  When about the largest product of that chain, the
    square of half the output, passes _FFT_LIMIT, one real transform of d
    is raised to the n-th power instead; negatives are clipped and a
    symmetric input is symmetrised once, as in convolve_dists.  Either
    way the leaked account bounds everything dropped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = n * (len(d.entries) - 1) + 1
    half = (size + 1) // 2
    if n > 1 and half * half > _FFT_LIMIT:
        m = transform_length(len(d.entries), n)
        conv = np.fft.irfft(np.fft.rfft(d.entries, m) ** n, m)[:size]
        np.clip(conv, 0.0, None, out=conv)
        if d.is_symmetric():
            conv = 0.5 * (conv + conv[::-1])
        leaked = max(1.0 - (1.0 - d.leaked) ** n, 1.0 - float(conv.sum()))
        return LatticeLaw(n * d.lo, d.span, conv, leaked)
    acc: LatticeLaw | None = None
    base = d
    k = n
    while k:
        if k & 1:
            acc = base if acc is None else convolve_dists(acc, base)
        k >>= 1
        if k:
            base = convolve_dists(base, base)
    assert acc is not None
    return acc


# ---------------------------------------------------------------------------
# Local limit error functional.


@dataclass
class LLTError:
    """sup over lattice points of the local-limit discrepancy at one n."""

    n: int
    sup_error: float
    argmax_point: int
    prob_at_zero: float
    truncation_warning: bool


def lll_error(dn: LatticeLaw, target: StableTarget, n: int, floor: float = 1e-9) -> LLTError:
    """Local-limit error of the law of an n-fold sum against its target.

    The sup of |B_n/h P(Z_n = an + kh) - g((an + kh)/B_n)| over the
    lattice points of the support and out to where g drops below `floor`,
    with the first point on ties.  Off the support P = 0 and the error is
    g itself, so there only the lattice points nearest s = 0 on each side
    are evaluated: this assumes g strictly unimodal about 0 (increasing
    below, decreasing above), as the centred stable targets are.  Warns
    when the leaked mass of dn could move the sup by more than 10%.
    """
    h, a = target.span, target.offset
    bn = target.norming(n)
    base = a * n
    entries = dn.entries
    if len(entries) > 1 and dn.span != h:
        if dn.span % h:
            raise ValueError("support does not lie on the stated lattice")
        entries = np.zeros((len(entries) - 1) * (dn.span // h) + 1)
        entries[:: dn.span // h] = dn.entries
    if (dn.lo - base) % h:
        raise ValueError("support does not lie on the stated lattice")
    lo, hi = dn.lo, dn.lo + h * (len(entries) - 1)
    support = lo + h * np.arange(len(entries), dtype=np.int64)
    err = np.abs(bn / h * entries - target.density(support / bn))
    i = int(np.argmax(err))
    best = [(float(err[i]), int(support[i]))]
    # extend until the density itself drops below the floor
    s_floor = _density_range(target.density, floor)
    left = base + h * math.floor((s_floor[0] * bn) / h)
    right = base + h * math.ceil((s_floor[1] * bn) / h)
    for first, last in ((left, lo - h), (hi + h, right)):
        if first <= last:
            # the lattice points of [first, last] next to 0 from below and above
            j = min(max((-first) // h, 0), (last - first) // h)
            pts = np.unique([first + j * h, min(first + (j + 1) * h, last)])
            dens = np.abs(target.density(pts / bn))
            k = int(np.argmax(dens))
            best.append((float(dens[k]), int(pts[k])))
    sup, point = max(best, key=lambda b: (b[0], -b[1]))
    warn = dn.leaked * bn / h > 0.1 * sup
    if warn:
        log.warning(
            "leaked mass %.3g could shift the local-limit sup %.3g by more than 10%%",
            dn.leaked,
            sup,
        )
    return LLTError(n, sup, point, dn.prob(0), warn)


def _density_range(g: Callable[[float], float], floor: float) -> tuple[float, float]:
    """[s_lo, s_hi] outside of which the (unimodal) density stays below floor."""
    s = 1.0
    while g(s) >= floor or g(-s) >= floor:
        s *= 2
        if s > 1e12:
            break
    return (-s, s)


@dataclass
class LowerBoundReport:
    """Check of n P(Z_n = 0) >= a_const across a family of n."""

    values: dict[int, float]
    a_const: float
    n_threshold: int
    passed: bool


def lower_bound_check(
    dns: Mapping[int, LatticeLaw], a_const: float, n_threshold: int | None = None
) -> LowerBoundReport:
    """Verify the lattice lower bound n P(Z_n = 0) >= a_const for all
    computed n past the threshold."""
    values = {n: n * d.prob(0) for n, d in sorted(dns.items())}
    if n_threshold is None:
        n_threshold = min(values)
    tested = {n: v for n, v in values.items() if n >= n_threshold}
    if not tested:
        raise ValueError("no computed n at or beyond the threshold")
    passed = all(v >= a_const for v in tested.values())
    return LowerBoundReport(values, a_const, n_threshold, passed)
