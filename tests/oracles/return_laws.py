"""Exact and brute-force oracles for the first-return law of the +-1 walk,
and a least-squares fit of its power-law tail."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def first_return_prob_exact(n: int) -> Fraction:
    """P(first return to 0 of the +-1 walk happens at time n), exactly.

    Zero for odd n; for n = 2m the count of strictly-nonzero bridges gives
    C(2m, m) / ((2m - 1) 4^m).
    """
    if n % 2 == 1 or n < 2:
        return Fraction(0)
    m = n // 2
    return Fraction(math.comb(2 * m, m), (2 * m - 1) * 4**m)


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


@dataclass
class TailExponentFit:
    """Least-squares fit of log P(return = n) against log n."""

    slope: float
    prefactor: float  # exp(mean(log P + 1.5 log n)): the n^{-3/2} coefficient
    npoints: int
    window: tuple[int, int]


def fit_tail_exponent(law, m_lo: int, m_hi: int) -> TailExponentFit:
    """Fit the power-law tail of a return-time law over even n in [m_lo, m_hi],
    by np.polyfit."""
    if m_lo < 2 or m_hi > law.hi:
        raise ValueError("fit window must lie within the computed law")
    ns, ps = law.support(), law.entries
    mask = (ns >= m_lo) & (ns <= m_hi) & (ps > 0)
    if mask.sum() < 10:
        raise ValueError(f"need at least 10 points to fit, have {int(mask.sum())}")
    x = np.log(ns[mask].astype(float))
    y = np.log(ps[mask])
    slope, _ = np.polyfit(x, y, 1)
    prefactor = float(np.exp(np.mean(y + 1.5 * x)))
    return TailExponentFit(float(slope), prefactor, int(mask.sum()), (m_lo, m_hi))


def survival_series(mmax: int) -> np.ndarray:
    """u[m-1] = P(no return by time 2m) = C(2m, m) / 4^m for m = 1..mmax,
    as one 80-bit running product."""
    m = np.arange(1, mmax + 1, dtype=np.longdouble)
    return np.cumprod((2 * m - 1) / (2 * m))


def telescoped_sums(lmax: int, kmax: int) -> np.ndarray:
    """S(0), S(1), ..., S(lmax / 2), the sums over return times up to kmax
    that `recwalk.return_laws.return_position_law` telescopes onto the
    boundary column F(M + 1, .), by its formulas in one-shot array form:
    the bit-identity oracle for its in-place build."""
    from recwalk.return_laws import column_length, survival

    LONG = np.longdouble
    nl = lmax // 2 + 1
    m1 = kmax // 2 + 1
    s = np.arange(column_length(lmax, kmax), dtype=LONG)
    u = LONG(survival(2 * m1))
    steps = (m1 - s[:-1]) / (m1 + s[:-1] + 1)
    column = u * u / (2 * m1 - 1) * np.cumprod(np.concatenate(([LONG(1)], steps)))
    tails = np.cumsum((4 * (2 * s + 1) * (m1 - s) * column)[::-1])[::-1]
    top = min(nl, m1)
    acc = np.zeros(nl, dtype=LONG)
    acc[0] = 1 - 4 * LONG(m1) ** 2 * column[0]
    acc[1:top] = tails[1:top] / (4 * s[1:top] ** 2 - 1)
    return acc
