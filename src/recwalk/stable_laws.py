"""Stable-law numerics on integer lattices.

The limit law of the experiments is the symmetric exponent-1 law with
density g(s) = scale / (pi (s^2 + scale^2)).  Provides dense float
self-convolution of lattice laws with leak accounting and the local-limit
error functional sup_k |B_n/h P(Z_n = an + kh) - g((an + kh)/B_n)|.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .return_laws import LatticeLaw

log = logging.getLogger(__name__)


def cauchy_density(s, scale: float = 1.0):
    """Density scale / (pi (s^2 + scale^2)); the standard form at scale 1.
    Elementwise on arrays."""
    return scale / (math.pi * (s * s + scale * scale))


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
    def cauchy(cls, scale: float = 1.0) -> "StableTarget":
        """Exponent-1 target with B_n = n, for sums on the even lattice 2Z."""
        return cls(lambda s: cauchy_density(s, scale), 2, 0, lambda n: float(n))


# ---------------------------------------------------------------------------
# Convolution of float laws on an integer lattice.


def convolve_dists(a: LatticeLaw, b: LatticeLaw) -> LatticeLaw:
    """Law of the sum of independent draws from a and b.

    Direct float convolution, the oracle that self_convolve is tested
    against.  The mass missing from either input is carried into the
    leaked account.
    """
    if a.span != b.span:
        raise ValueError(f"lattice spans differ: {a.span} and {b.span}")
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

    One real transform of d, at transform_length points, is raised to the
    n-th power; negatives are clipped and a symmetric input is symmetrised
    once, as in convolve_dists.  The leaked account bounds everything
    dropped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = n * (len(d.entries) - 1) + 1
    m = transform_length(len(d.entries), n)
    spectrum = np.fft.rfft(d.entries, m)
    spectrum **= n
    conv = np.fft.irfft(spectrum, m)[:size]
    del spectrum
    np.clip(conv, 0.0, None, out=conv)
    if d.is_symmetric():
        # the mean of mirrored entries, written into both halves
        half = size // 2
        front, back = conv[:half], conv[::-1][:half]
        mean = front + back
        mean *= 0.5
        front[...] = back[...] = mean
    leaked = max(1.0 - (1.0 - d.leaked) ** n, 1.0 - float(conv.sum()))
    return LatticeLaw(n * d.lo, d.span, conv, leaked)


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


#: lll_error evaluates the lattice out to where the target density drops below this
DENSITY_FLOOR = 1e-9


def lll_error(dn: LatticeLaw, target: StableTarget, n: int) -> LLTError:
    """Local-limit error of the law of an n-fold sum against its target.

    The sup of |B_n/h P(Z_n = an + kh) - g((an + kh)/B_n)| over the
    lattice points of the support and out to where g drops below
    DENSITY_FLOOR, with the first point on ties.  A law with more than one
    entry must have the target's span h: against lattice h, a law of span
    2h would be compared at points its sums never reach.  Off the support
    P = 0 and the error is g itself, so there only the lattice points
    nearest s = 0 on each side are evaluated: this assumes g strictly unimodal
    about 0 (increasing below, decreasing above), as the centred stable
    targets are.  Warns when the leaked mass of dn could move the sup by
    more than 10%.
    """
    h, a = target.span, target.offset
    bn = target.norming(n)
    base = a * n
    if len(dn.entries) > 1 and dn.span != h:
        raise ValueError(f"law span {dn.span} differs from the lattice span {h}")
    if (dn.lo - base) % h:
        raise ValueError("support does not lie on the stated lattice")
    lo, hi = dn.lo, dn.hi
    best = [_support_sup(dn.entries, lo, h, bn, target.density)]
    # extend until the density itself drops below the floor
    s_floor = _density_range(target.density, DENSITY_FLOOR)
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


#: support points that lll_error evaluates at once (256 KB per array)
_SUPPORT_BLOCK = 1 << 15


def _support_sup(entries: np.ndarray, lo: int, h: int, bn: float, density) -> tuple[float, int]:
    """(error, point) of the largest |bn/h P - g(point/bn)| over the support
    lo, lo + h, ..., evaluated in blocks of _SUPPORT_BLOCK points, with the
    first point on ties (a nan counts as the largest, as in np.argmax)."""
    tops = []
    for start in range(0, len(entries), _SUPPORT_BLOCK):
        block = entries[start : start + _SUPPORT_BLOCK]
        points = lo + h * np.arange(start, start + len(block), dtype=np.int64)
        err = np.abs(bn / h * block - density(points / bn))
        i = int(np.argmax(err))
        tops.append((err[i], int(points[i])))
    i = int(np.argmax([e for e, _ in tops]))
    return float(tops[i][0]), tops[i][1]


def _density_range(g: Callable[[float], float], floor: float) -> tuple[float, float]:
    """[s_lo, s_hi] outside of which the (unimodal) density stays below floor."""
    s = 1.0
    while g(s) >= floor or g(-s) >= floor:
        s *= 2
        if s > 1e12:
            break
    return (-s, s)
