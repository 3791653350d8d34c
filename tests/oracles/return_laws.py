"""Exact and brute-force oracles for the first-return law of the +-1 walk,
the law whole as one array, a least-squares fit of its power-law tail,
and the return-position law's completion beyond k_max in closed form."""

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
    ns, ps = law.lo + 2 * np.arange(len(law.entries)), law.entries
    mask = (ns >= m_lo) & (ns <= m_hi) & (ps > 0)
    if mask.sum() < 10:
        raise ValueError(f"need at least 10 points to fit, have {int(mask.sum())}")
    x = np.log(ns[mask].astype(float))
    y = np.log(ps[mask])
    slope, _ = np.polyfit(x, y, 1)
    prefactor = float(np.exp(np.mean(y + 1.5 * x)))
    return TailExponentFit(float(slope), prefactor, int(mask.sum()), (m_lo, m_hi))


def first_return_law(nmax: int):
    """The first-return law on 2, 4, ..., nmax held whole, as one
    LatticeLaw: the blocks of `recwalk.return_laws.first_return_blocks`
    concatenated, with leaked = survival(nmax)."""
    from recwalk.return_laws import LatticeLaw, first_return_blocks, survival

    probs = np.concatenate([p for _, p in first_return_blocks(nmax)])
    return LatticeLaw(2, probs, float(survival(nmax)))


def survival_series(mmax: int) -> np.ndarray:
    """u[m-1] = P(no return by time 2m) = C(2m, m) / 4^m for m = 1..mmax,
    as one running product in np.longdouble: a reference for the float64
    program, to about 1e-16 relative where that type has 64 bits of
    mantissa, as on x86."""
    m = np.arange(1, mmax + 1, dtype=np.longdouble)
    return np.cumprod((2 * m - 1) / (2 * m))


def telescoped_sums(lmax: int, kmax: int) -> np.ndarray:
    """S(0), S(1), ..., S(lmax / 2), the sums over return times up to kmax
    that `recwalk.return_laws.return_position_law` telescopes onto the
    boundary column F(M + 1, .), by its formulas in one-shot array form:
    the bit-identity oracle for its in-place build."""
    from recwalk.return_laws import column_length, survival

    nl = lmax // 2 + 1
    m1 = kmax // 2 + 1
    s = np.arange(column_length(lmax, kmax), dtype=np.float64)
    u = survival(2 * m1)
    steps = (m1 - s[:-1]) / (m1 + s[:-1] + 1)
    column = u * u / (2 * m1 - 1) * np.cumprod(np.concatenate(([1.0], steps)))
    tails = np.cumsum((4 * (2 * s + 1) * (m1 - s) * column)[::-1])[::-1]
    top = min(nl, m1)
    acc = np.zeros(nl)
    acc[0] = 1 - 4 * m1**2 * column[0]
    acc[1:top] = tails[1:top] / (4 * s[1:top] ** 2 - 1)
    return acc


#: (n, c_n): u_m / ((2m - 1) sqrt(pi m)) = (1 / 2 pi) sum c_n m^-n + O(m^-6), from
#: (1 - 1/8m + 1/128m^2 + 5/1024m^3) (1 + 1/2m + 1/4m^2 + 1/8m^3) / 2m^2
_K_TAIL_TERMS = ((2, 1.0), (3, 3 / 8), (4, 25 / 128), (5, 105 / 1024))


def _lower_gamma_scaled(k: int, a: np.ndarray) -> np.ndarray:
    """gamma(k, a) / a^k for an integer k >= 1: the series sum over j >= 0 of
    (-a)^j / (j! (k + j)) for a < 1, where 1 - e^-a sum_{i<k} a^i / i!
    cancels, and (k - 1)! times that difference over a^k beyond, with
    1 - e^-a as -expm1(-a); 1 / k at a = 0."""
    out = np.empty_like(a)
    small = a < 1.0
    x = a[small]
    term, total = np.ones_like(x), np.zeros_like(x)
    for j in range(30):  # 1 / 30! < 1e-32
        total += term / (k + j)
        term *= -x / (j + 1)
    out[small] = total
    x = a[~small]
    term, partial = np.ones_like(x), np.zeros_like(x)
    for i in range(k):
        partial += term
        term *= x / (i + 1)
    head = -np.expm1(-x) if k == 1 else 1.0 - np.exp(-x) * partial
    out[~small] = math.factorial(k - 1) * head / x**k
    return out


def k_tail_closed_form(kmax: int, ls) -> np.ndarray:
    """The completion beyond kmax of the return-position law at each even l
    of ls: the sum over m > M of f(m) = u_m / (2m - 1) (pi m)^(-1/2) e^(-t^2 / m),
    t = l / 2, M = kmax / 2, which is P(return = 2m) times the normal local
    approximation of P(S_2m = l) that `_k_tail_completion` sums on its grid.

    The midpoint form of Euler-Maclaurin gives the sum as the integral of f
    from Y = M + 1/2 plus f'(Y) / 24.  By _K_TAIL_TERMS the integral is
    (1 / 2 pi) [I_2 + (3/8) I_3 + (25/128) I_4 + (105/1024) I_5], where
    I_n = int_Y^inf y^-n e^(-t^2 / y) dy = gamma(n - 1, a) / t^(2(n - 1)),
    a = t^2 / Y, that is Y^(1 - n) gamma(n - 1, a) / a^(n - 1): 1 / Y and
    1 / (2 Y^2) at t = 0 for n = 2 and 3.  What is left out, the O(m^-6)
    terms of f and (7 / 5760) f^(3)(Y), is below 1e-13 relative for M >= 10^3."""
    t2 = (np.asarray(ls, dtype=np.float64) / 2) ** 2
    y = kmax / 2 + 0.5
    a = t2 / y
    integral = np.zeros_like(t2)
    slope = np.zeros_like(t2)  # f'(Y) (2 pi) e^a
    for n, c in _K_TAIL_TERMS:
        integral += c * y ** (1 - n) * _lower_gamma_scaled(n - 1, a)
        slope += c * (t2 * y ** (-n - 2) - n * y ** (-n - 1))
    return (integral + np.exp(-a) * slope / 24) / (2 * math.pi)
