"""Brute-force oracles for the first-return law of the +-1 walk."""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def enumerate_first_returns(nmax: int) -> dict[int, Fraction]:
    """Brute-force oracle: walk every sign path of length nmax and record
    the first time its prefix sums return to zero."""
    n = nmax
    bits = np.arange(1 << n, dtype=np.uint32)
    steps = np.where((bits[:, None] >> np.arange(n)) & 1, 1, -1)
    prefix = np.cumsum(steps, axis=1)
    first_zero = np.full(len(bits), -1)
    for t in range(n - 1, -1, -1):
        first_zero = np.where(prefix[:, t] == 0, t + 1, first_zero)
    counts = {}
    for t in range(2, n + 1, 2):
        counts[t] = Fraction(int((first_zero == t).sum()), 1 << n)
    return counts


def survival_series(mmax: int) -> np.ndarray:
    """u[m-1] = P(no return by time 2m) = C(2m, m) / 4^m for m = 1..mmax,
    as one 80-bit running product."""
    m = np.arange(1, mmax + 1, dtype=np.longdouble)
    return np.cumprod((2 * m - 1) / (2 * m))
