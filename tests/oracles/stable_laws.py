"""Stable-law oracles: the lattice lower bound on n P(Z_n = 0), the dense
local-limit error that `lll_error` must equal, the one-shot n-fold law
that `self_convolve` must equal bit for bit, and P(Z_n = 0) for the
untruncated law in exact form."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import mpmath
import numpy as np

from recwalk.stable_laws import LatticeLaw, LLTError, cauchy_density, transform_length


#: even integers that dense_lll_error evaluates beyond the support and 0
MARGIN = 64


def dense_lll_error(dn: LatticeLaw, scale: float, n: int) -> LLTError:
    """Oracle for lll_error: the error at every even integer from MARGIN
    points below min(lo, 0) to MARGIN points above max(hi, 0), with
    probability zero off the support, and the first point on ties."""
    support = dn.lo + 2 * np.arange(len(dn.entries), dtype=np.int64)
    assert not np.any(support % 2)
    lo = min(dn.lo, 0) - 2 * MARGIN
    pts = np.arange(lo, max(dn.hi, 0) + 2 * MARGIN + 1, 2, dtype=np.int64)
    probs = np.zeros(len(pts))
    probs[(support - lo) // 2] = dn.entries
    err = np.abs(n / 2 * probs - cauchy_density(pts / n, scale))
    i = int(np.argmax(err))
    sup = float(err[i])
    return LLTError(sup, int(pts[i]), dn.prob(0))


@dataclass
class LowerBoundReport:
    """Check of n P(Z_n = 0) >= a_const across a family of n."""

    values: dict[int, float]
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
    return LowerBoundReport(values, passed)


def one_shot_self_convolve(d: LatticeLaw, n: int) -> LatticeLaw:
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
    conv = np.fft.irfft(np.fft.rfft(d.entries, m) ** n, m)[:size]
    np.clip(conv, 0.0, None, out=conv)
    if d.is_symmetric():
        conv = 0.5 * (conv + conv[::-1])
    leaked = max(1.0 - (1.0 - d.leaked) ** n, 1.0 - float(conv.sum()))
    return LatticeLaw(n * d.lo, conv, leaked)


def zero_mass_exact(n: int) -> mpmath.mpf:
    """P(Z_n = 0) for the sum Z_n of n independent draws of the untruncated
    return-position law nu, as a_n + b_n / pi with rationals a_n and b_n.

    nu has characteristic function 1 - |sin theta|, so P(Z_n = 0) is the
    mean of (1 - |sin theta|)^n over [0, pi].  Expanding the power and
    taking each mean of sin^k by Wallis's integrals gives
    a_n = sum over even k of C(n, k) C(k, k/2) / 2^k and
    b_n = -sum over odd k = 2m + 1 of C(n, k) 2 4^m (m!)^2 / k!.
    The two terms cancel to about n/3 digits, so the sum is formed with
    n/3 + 40 digits of pi; the result carries that precision.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = sum(Fraction(math.comb(n, k) * math.comb(k, k // 2), 2**k) for k in range(0, n + 1, 2))
    b = -sum(
        Fraction(math.comb(n, k) * 2 * 4 ** (k // 2) * math.factorial(k // 2) ** 2,
                 math.factorial(k))
        for k in range(1, n + 1, 2)
    )
    with mpmath.workdps(n // 3 + 40):
        return (mpmath.mpf(a.numerator) / a.denominator
                + mpmath.mpf(b.numerator) / b.denominator / mpmath.pi)
