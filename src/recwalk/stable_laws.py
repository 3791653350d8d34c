"""Stable-law numerics on the even lattice.

The limit law of the experiments is the symmetric exponent-1 law with
density g(s) = scale / (pi (s^2 + scale^2)).  Provides dense float
self-convolution of lattice laws with leak accounting and the local-limit
error functional sup over even k of |n/2 P(Z_n = k) - g(k/n)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .return_laws import LatticeLaw


def cauchy_density(s, scale: float):
    """Density scale / (pi (s^2 + scale^2)), elementwise on arrays."""
    return scale / (math.pi * (s * s + scale * scale))


# ---------------------------------------------------------------------------
# Convolution of float laws on an integer lattice.


def convolve_dists(a: LatticeLaw, b: LatticeLaw) -> LatticeLaw:
    """Law of the sum of independent draws from a and b.

    Direct float convolution, the oracle that self_convolve is tested
    against.  The mass missing from either input is carried into the
    leaked account.
    """
    conv = np.convolve(a.entries, b.entries)
    if a.is_symmetric() and b.is_symmetric():
        # float convolution can lose the exact l <-> -l symmetry at roundoff
        conv = 0.5 * (conv + conv[::-1])
    la, lb = a.leaked, b.leaked
    # absorb float rounding into the leak account so mass stays conserved
    leaked = max(la + lb - la * lb, 1.0 - float(conv.sum()))
    return LatticeLaw(a.lo + b.lo, conv, leaked)


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
    return LatticeLaw(n * d.lo, conv, leaked)


# ---------------------------------------------------------------------------
# Local limit error functional.


@dataclass
class LLTError:
    """sup over lattice points of the local-limit discrepancy at one n."""

    sup_error: float
    argmax_point: int
    prob_at_zero: float


def lll_error(dn: LatticeLaw, scale: float, n: int) -> LLTError:
    """Local-limit error of the law of an n-fold sum on the even lattice.

    The sup over the even integers k of |n/2 P(Z_n = k) - g(k/n)|, g the
    Cauchy density of the given scale, with the first point on ties.  Off
    the support P = 0 and the error is g(k/n), which falls away from k = 0,
    so there only the even integers outside the support nearest 0 are
    evaluated: 0 itself when the support misses it, else lo - 2 and hi + 2.
    """
    if dn.lo % 2:
        raise ValueError("support does not lie on the stated lattice")
    lo, hi = dn.lo, dn.hi
    outside = [lo - 2, hi + 2] if lo <= 0 <= hi else [0]
    best = [_support_sup(dn.entries, lo, n, scale)]
    best += [(cauchy_density(k / n, scale), k) for k in outside]
    sup, point = max(best, key=lambda b: (b[0], -b[1]))
    return LLTError(sup, point, dn.prob(0))


#: support points that lll_error evaluates at once (128 KB per array): at
#: 2^15 points, 256 KB arrays slow a cold `lll`, likely each a fresh mapping
#: past glibc's dynamic mmap threshold, as with return_laws._BLOCK_ENTRIES
_SUPPORT_BLOCK = 1 << 14


def _support_sup(entries: np.ndarray, lo: int, n: int, scale: float) -> tuple[float, int]:
    """(error, point) of the largest |n/2 P - g(point/n)| over the support
    lo, lo + 2, ..., evaluated in blocks of _SUPPORT_BLOCK points, with the
    first point on ties (a nan counts as the largest, as in np.argmax)."""
    tops = []
    for start in range(0, len(entries), _SUPPORT_BLOCK):
        block = entries[start : start + _SUPPORT_BLOCK]
        points = lo + 2 * np.arange(start, start + len(block), dtype=np.int64)
        err = np.abs(n / 2 * block - cauchy_density(points / n, scale))
        i = int(np.argmax(err))
        tops.append((err[i], int(points[i])))
    i = int(np.argmax([e for e, _ in tops]))
    return float(tops[i][0]), tops[i][1]
