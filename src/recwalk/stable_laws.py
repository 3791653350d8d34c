"""Stable-law numerics on integer lattices.

Covers the two limit families exercised by the experiments: the Gaussian
(exponent 2) and the symmetric exponent-1 law with density
g(s) = scale / (pi (s^2 + scale^2)).  Provides dense float
self-convolution of lattice laws with leak accounting, the local-limit error
functional sup_k |B_n/h P(Z_n = an + kh) - g((an + kh)/B_n - A_n)|, a
lattice lower-bound check on n P(Z_n = 0), and finite-grid checks of the
classical domain-of-attraction tail conditions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

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
    and (Z_n / B_n - A_n) converges to the density g, which must accept
    arrays."""

    alpha: float
    density: Callable[[float], float]
    span: int
    offset: int
    norming: Callable[[int], float]
    centering: Callable[[int], float] = field(default=lambda n: 0.0)

    @classmethod
    def cauchy(cls, scale: float = 1.0, span: int = 2, offset: int = 0) -> "StableTarget":
        """Exponent-1 target with B_n = n, for even-lattice sums."""
        return cls(1.0, lambda s: cauchy_density(s, scale), span, offset, lambda n: float(n))

    @classmethod
    def gaussian(cls, span: int = 2, offset: int = 1) -> "StableTarget":
        """Exponent-2 target with B_n = sqrt(n), for +-1 step sums."""
        return cls(2.0, gaussian_density, span, offset, lambda n: math.sqrt(n))


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


def self_convolve(d: LatticeLaw, n: int) -> LatticeLaw:
    """Law of the sum of n independent copies of d, by binary exponentiation
    (log2 n convolutions); the leaked account bounds everything dropped."""
    if n < 1:
        raise ValueError("n must be >= 1")
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

    Evaluates |B_n/h P(Z_n = an + kh) - g((an + kh)/B_n - A_n)| on every
    lattice point where either term exceeds `floor` (points outside the
    stored support count with probability zero).  Warns when the leaked
    mass of dn could move the sup by more than 10%.
    """
    h, a = target.span, target.offset
    bn = target.norming(n)
    an = target.centering(n)
    base = a * n
    support = dn.lo + dn.span * np.arange(len(dn.entries), dtype=np.int64)
    if np.any((support - base) % h):
        raise ValueError("support does not lie on the stated lattice")
    # extend until the density itself drops below the floor
    s_floor = _density_range(target.density, floor, bn, an)
    lo = min(dn.lo, base + h * math.floor((s_floor[0] * bn) / h))
    hi = max(dn.hi, base + h * math.ceil((s_floor[1] * bn) / h))
    pts = np.arange(lo, hi + 1, h, dtype=np.int64)
    probs = np.zeros(len(pts))
    probs[(support - lo) // h] = dn.entries
    dens = target.density(pts / bn - an)
    err = np.abs(bn / h * probs - dens)
    i = int(np.argmax(err))
    sup = float(err[i])
    warn = dn.leaked * bn / h > 0.1 * sup
    if warn:
        log.warning(
            "leaked mass %.3g could shift the local-limit sup %.3g by more than 10%%",
            dn.leaked,
            sup,
        )
    return LLTError(n, sup, int(pts[i]), dn.prob(0), warn)


def _density_range(g: Callable[[float], float], floor: float, bn: float, an: float) -> tuple[float, float]:
    """[s_lo, s_hi] outside of which the (unimodal) density stays below floor."""
    s = 1.0
    while g(s + an) >= floor or g(-s + an) >= floor:
        s *= 2
        if s > 1e12:
            break
    return (-s + an, s + an)


@dataclass
class LowerBoundReport:
    """Check of n P(Z_n = 0) >= a_const across a family of n."""

    values: dict[int, float]
    a_const: float
    n_threshold: int
    passed: bool
    limit_estimate: float


def lower_bound_check(
    dns: Mapping[int, LatticeLaw], a_const: float, n_threshold: int | None = None
) -> LowerBoundReport:
    """Verify the lattice lower bound n P(Z_n = 0) >= a_const for all
    computed n past the threshold, and report the extrapolated limit."""
    values = {n: n * d.prob(0) for n, d in sorted(dns.items())}
    if n_threshold is None:
        n_threshold = min(values)
    tested = {n: v for n, v in values.items() if n >= n_threshold}
    if not tested:
        raise ValueError("no computed n at or beyond the threshold")
    passed = all(v >= a_const for v in tested.values())
    ns = np.array(sorted(values), dtype=float)
    ys = np.array([values[int(n)] for n in ns])
    limit = float(np.polyfit(1.0 / ns, ys, 1)[1]) if len(ns) >= 2 else float(ys[-1])
    return LowerBoundReport(values, a_const, n_threshold, passed, limit)


# ---------------------------------------------------------------------------
# Domain-of-attraction tail conditions on a finite grid.


@dataclass
class DoAReport:
    """Finite-grid evaluation of the three stable-tail limit conditions."""

    alpha: float
    ratio_left_right: list[float]
    scaling_ratios: dict[float, list[float]]
    left_scaling_ratios: dict[float, list[float]]
    verdicts: dict[str, bool]
    passed: bool


def doa_check(
    tail_data: Mapping[float, tuple[float, float]],
    alpha: float,
    scale_points: Sequence[float] = (2.0,),
    tolerance: float = 0.10,
) -> DoAReport:
    """Check the domain-of-attraction conditions on tabulated tails.

    tail_data maps x to (F(-x), 1 - F(x)).  Condition 1 asks the
    left/right tail ratio to stabilize; conditions 2 and 3 ask
    (1 - F(ax)) / (1 - F(x)) and F(-ax) / F(-x) to approach a^-alpha.
    Each verdict needs the last three grid evaluations to trend toward the
    target with final discrepancy below `tolerance`.
    """
    xs = sorted(tail_data)
    if len(xs) < 4:
        raise ValueError("need at least 4 grid points for a trend check")
    if any(f <= 0 or s <= 0 for f, s in tail_data.values()):
        raise ValueError("tail data must be strictly positive on the whole grid")
    lr = [tail_data[x][0] / tail_data[x][1] for x in xs]
    scaling: dict[float, list[float]] = {}
    left_scaling: dict[float, list[float]] = {}
    for a_pt in scale_points:
        pairs = [(x, a_pt * x) for x in xs if _find(xs, a_pt * x) is not None]
        scaling[a_pt] = [
            tail_data[_find(xs, ax)][1] / tail_data[x][1] for x, ax in pairs
        ]
        left_scaling[a_pt] = [
            tail_data[_find(xs, ax)][0] / tail_data[x][0] for x, ax in pairs
        ]
        if len(scaling[a_pt]) < 3:
            raise ValueError(f"scale point {a_pt}: fewer than 3 usable grid pairs")
    verdicts = {"tail_ratio": _stabilizes(lr, tolerance)}
    for a_pt in scale_points:
        target = a_pt**-alpha
        verdicts[f"right_scaling[{a_pt:g}]"] = _trends_to(scaling[a_pt], target, tolerance)
        verdicts[f"left_scaling[{a_pt:g}]"] = _trends_to(left_scaling[a_pt], target, tolerance)
    return DoAReport(alpha, lr, scaling, left_scaling, verdicts, all(verdicts.values()))


def _find(xs: list[float], x: float) -> float | None:
    for cand in xs:
        if abs(cand - x) <= 1e-9 * max(1.0, abs(x)):
            return cand
    return None


def _trends_to(seq: Sequence[float], target: float, tol: float) -> bool:
    if len(seq) < 3:
        return False
    last = seq[-3:]
    gaps = [abs(v - target) for v in last]
    return gaps[0] >= gaps[1] >= gaps[2] and abs(last[-1] / target - 1.0) < tol


def _stabilizes(seq: Sequence[float], tol: float) -> bool:
    if len(seq) < 3:
        return False
    a, b, c = seq[-3:]
    return abs(c - b) <= abs(b - a) + 1e-15 and abs(c - b) <= tol * max(abs(c), 1e-300)
