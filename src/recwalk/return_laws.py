"""Laws attached to the first return to zero of a +-1 coordinate.

Three objects are computed here, exactly where feasible and with certified
truncation bounds elsewhere:

* the law of the first return time itself (even support, ~ n^{-3/2} tail),
  with a check of every entry against a closed-form bracket;
* the law of the free coordinate of the diagonal walk at the first return
  of the tracked coordinate, built from the convolution identity
  P(pos = l) = sum_k P(S_k = l) P(return = k), together with its tail
  functional m * P(pos >= m), whose limit is the scale constant of the
  heavy tail.

Both laws live on the even lattice, in float64 throughout, so that they
take the same operations on every platform.  The first-return law is
streamed in blocks (first_return_blocks), so no caller holds it whole;
it and its survival function come from one evaluator of u_m (survival).
The return-position law is a LatticeLaw evaluated through two
telescoping identities (see return_position_law).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatticeLaw:
    """Law on the points lo, lo + 2, ..., hi of one coset of 2Z, the even
    lattice itself for return times and positions.

    entries[i] = P(lo + 2 i), zeros allowed; leaked is the mass missing
    from the entries, so entries.sum() + leaked == 1 up to rounding.
    """

    lo: int
    entries: np.ndarray
    leaked: float = 0.0

    @classmethod
    def from_position_law(cls, law: ReturnPositionLaw) -> LatticeLaw:
        """The law conditioned on its window, so the convolution inputs carry
        mass one; the window mass is 2 sum_{l >= 0} - P(0)."""
        half = law.entries[law.hi // 2 :]
        return cls(law.lo, law.entries / (2 * np.sum(half) - half[0]))

    @property
    def hi(self) -> int:
        return self.lo + 2 * (len(self.entries) - 1)

    def prob(self, k: int) -> float:
        i, off = divmod(k - self.lo, 2)
        if off or not 0 <= i < len(self.entries):
            return 0.0
        return float(self.entries[i])

    def is_symmetric(self) -> bool:
        return self.lo == -self.hi and np.array_equal(self.entries, self.entries[::-1])


#: entries of u_m that _survival_table computes at once (32 KB per array),
#: and of the first-return law that first_return_blocks yields at once
_SURVIVAL_BLOCK = 1 << 12

#: u_m = C(2m, m) / 4^m rounded once, for m < 9; survival takes _u_series
#: from m = 9 on
_EXACT_U = np.array([math.comb(2 * m, m) / 4**m for m in range(9)])

#: coefficients of sqrt(pi x) Gamma(x + 1/4) / Gamma(x + 3/4) - 1 in 1/x^2, highest
#: order first, as exact dyadic rationals
_U_SERIES = (5099063967524835 / 2**55, -1874409467055 / 2**46, 7426362705 / 2**40,
             -20898423 / 2**33, 180323 / 2**27, -671 / 2**19, 21 / 2**13, -1 / 2**6)


def _u_series(x):
    """sqrt(pi x) Gamma(x + 1/4) / Gamma(x + 3/4) for x >= 8.25, a float or
    an array, as 1 + a series in 1/x^2 whose first omitted term is < 1e-16."""
    series = 0.0
    x2 = x * x
    for c in _U_SERIES:
        series = (series + c) / x2
    return 1.0 + series


def survival(n):
    """P(first return time > n) = u_m = C(2m, m) / 4^m at m = n / 2, for
    even n, a number or an array (n <= 0 reads 1): the exactly rounded
    value for m < 9, and _u_series(x) / sqrt(pi x) at x = m + 1/4, to a
    few ulps, from m = 9 on.  Each entry takes the same operations whatever
    the array around it, so an entry is the same on its own and in any
    array."""
    n = np.asarray(n)
    if np.any(n % 2 == 1):
        raise ValueError("survival is defined on even times")
    m = np.maximum(n, 0) // 2
    x = m + 0.25
    u = _u_series(x) / np.sqrt(np.pi * x)
    exact = m < len(_EXACT_U)
    if exact.any():
        u = np.where(exact, _EXACT_U.take(np.minimum(m, len(_EXACT_U) - 1).astype(np.intp)), u)
    return u[()]


#: u_m comes from a table up to this m in the sampler
_TABLE_M = 1 << 16


@functools.cache
def _survival_table() -> np.ndarray:
    """survival(2m) for m = 0.._TABLE_M, the sampler's lookup table, 512 KB,
    built on first use one _SURVIVAL_BLOCK at a time so that its
    temporaries stay small; entry for entry it is survival's value."""
    table = np.empty(_TABLE_M + 1)
    for lo in range(0, _TABLE_M + 1, _SURVIVAL_BLOCK):
        m = np.arange(lo, min(lo + _SURVIVAL_BLOCK, _TABLE_M + 1))
        table[lo : lo + len(m)] = survival(2 * m)
    return table


def first_return_blocks(nmax: int):
    """Law of the first return to 0 of the +-1 walk on 2, 4, ..., nmax,
    yielded as (m, P(return = 2m)), an int64 and a float64 array, in
    consecutive blocks of _SURVIVAL_BLOCK: survival(2m) / (2m - 1).  The
    mass beyond nmax is survival(nmax)."""
    if nmax < 2 or nmax % 2 == 1:
        raise ValueError("nmax must be an even integer >= 2")
    for lo in range(1, nmax // 2 + 1, _SURVIVAL_BLOCK):
        m = np.arange(lo, min(lo + _SURVIVAL_BLOCK, nmax // 2 + 1), dtype=np.int64)
        yield m, survival(2 * m) / (2 * m - 1)


def bracket_margin(blocks) -> tuple[float, int]:
    """Smallest relative margin of a first-return law, given as blocks
    (m, P(return = 2m)) as first_return_blocks yields them, to Kazarinoff's
    bracket on Wallis's ratio ("On Wallis' formula", 1956): for m >= 1,
    1 / sqrt(pi (m + 1/2)) < u < 1 / sqrt(pi (m + 1/4)), u = (2m - 1) P(return = 2m).
    The margin is negative when an entry lies outside, and a nan entry lies
    outside; the row returned with it is the first n outside, or else the n
    of the smallest margin.  The upper margin, about 1 / (64 m^2), is still
    1.5e-14 or 70 ulps at n = 2*10^6, far above the few ulps of rounding in
    the law and in this evaluation."""
    worst, row = math.inf, 0
    for m, p in blocks:
        u = p * (2 * m - 1)
        margin = np.minimum(u * np.sqrt(np.pi * (m + 0.5)) - 1, 1 - u * np.sqrt(np.pi * (m + 0.25)))
        margin[np.isnan(margin)] = -math.inf
        i = int(np.argmin(margin))
        if worst > 0 and margin[i] < worst:
            first = int(np.argmax(margin <= 0)) if margin[i] <= 0 else i
            row = 2 * int(m[first])
        worst = min(worst, float(margin[i]))
    return worst, row


@dataclass(frozen=True, kw_only=True)
class ReturnPositionLaw(LatticeLaw):
    """Law of the free diagonal-walk coordinate at the first tracked return,
    on the window -lmax, -lmax + 2, ..., lmax.

    The untruncated law is nu(0) = 1 - 2/pi and nu(+-2j) = 2 / (pi (4j^2 - 1)),
    with characteristic function phi(theta) = 1 - |sin theta|: the identity
    sum over j >= 1 of cos(2j theta) / (4j^2 - 1) = 1/2 - (pi/4) |sin theta|
    turns the coefficients into phi.  error_bound certifies the pointwise
    distance of the entries to nu; leaked is the mass outside the window
    implied by the mass accounting.
    """

    kmax: int

    @property
    def error_bound(self) -> float:
        """Pointwise bound on |entry - nu|: the local-CLT relative error
        O(1/kmax) of the completion beyond kmax plus its in-bucket variation
        below _K_TAIL_RATIO - 1, both covered by 0.05 with wide margin."""
        u = survival(self.kmax)
        return min(u, 0.05 * u * math.sqrt(2 / (math.pi * self.kmax)) + 1e-13)


#: largest boundary column that `lll` asks return_position_law to hold: 2^22
#: entries are 32 MB per array, and at that length the build holds three
#: such arrays, about 100 MB
MAX_COLUMN = 1 << 22


def column_length(lmax: int, kmax: int) -> int:
    """Entries of the boundary column F(M + 1, s), s = 0, 1, ..., that
    return_position_law(lmax, kmax) builds, M = kmax / 2.

    F(M + 1, s + 1) / F(M + 1, s) = (M + 1 - s) / (M + s + 2) <= exp(-(2s + 1) / (2M + 2)),
    so beyond s = lmax / 2 + 15 sqrt(M + 1) the column is below e^-112 of its
    value at lmax / 2 and is dropped; it also ends at s = M + 1.
    """
    m1 = kmax // 2 + 1
    return min(m1, lmax // 2 + 1 + math.isqrt(225 * m1 - 1) + 1)  # ceil(15 sqrt(m1))


def return_position_law(lmax: int, kmax: int) -> ReturnPositionLaw:
    """Build the return-position law: the sum of P(return = k) P(S_k = l)
    over even return times k <= kmax, completed beyond kmax.

    The free and tracked coordinates are independent +-1 walks.  With
    M = kmax / 2 and F(m, t) = P(return = 2m) P(S_2m = 2t), two Gosper
    certificates, -4 m^2 F(m, 0) and -4 (m - t) F(m, t), telescope the
    truncated sum S(t) = sum over m <= M of F(m, t) onto the boundary column
    F(M + 1, .): S(0) = 1 - 4 (M + 1)^2 F(M + 1, 0), and the recurrence
    (2t + 3) S(t + 1) - (2t - 1) S(t) = 4 (1 - t) F(1, t) - 4 (M + 1 - t) F(M + 1, t),
    solved down from S(M + 1) = 0, gives (4t^2 - 1) S(t) = 4 sum over
    s = t..M of (2s + 1) (M + 1 - s) F(M + 1, s) for t >= 1: no entry is
    negative, and S(t) = 0 exactly for t > M.  Return times beyond kmax are
    completed with the normal local approximation on a fine geometric grid
    (_k_tail_completion).  Against the telescoped sum over the return times it
    replaces, the completed part is accurate to 4e-5 relative for
    kmax >= lmax**2 >= 10**4, and to 7e-7 at (lmax, kmax) = (2000, 4e6).
    """
    if lmax < 2 or lmax % 2 == 1:
        raise ValueError("lmax must be an even integer >= 2")
    if kmax < 2 or kmax % 2 == 1:
        raise ValueError("kmax must be an even integer >= 2")

    nl = lmax // 2 + 1
    ls = np.arange(0, lmax + 1, 2, dtype=np.float64)
    m1 = kmax // 2 + 1  # M + 1
    top = min(nl, m1)  # S(t) = 0 for t > M
    acc = np.zeros(nl)
    # the column is built in place, in at most three arrays of its length
    # (s, the column and one more), each operation in the order of
    # F(M + 1, s) = u^2 / (2M + 1) prod over r < s of (M + 1 - r) / (M + r + 2)
    # and of the sums above; acc[1:top] holds 4 t^2 - 1 until they divide it
    s = np.arange(column_length(lmax, kmax), dtype=np.float64)
    acc[1:top] = 4 * s[1:top] ** 2 - 1
    u = survival(2 * m1)
    column = np.empty_like(s)
    column[0] = 1
    np.subtract(m1, s[:-1], out=column[1:])
    den = s[:-1] + m1
    den += 1
    column[1:] /= den
    del den
    np.cumprod(column, out=column)
    column *= u * u / (2 * m1 - 1)
    acc[0] = 1 - 4 * m1**2 * column[0]
    tails = 2 * s
    tails += 1
    tails *= 4
    np.subtract(m1, s, out=s)
    tails *= s
    tails *= column
    del s, column
    np.cumsum(tails[::-1], out=tails[::-1])
    np.divide(tails[1:top], acc[1:top], out=acc[1:top])
    del tails
    covered = 2 * np.sum(acc) - acc[0]
    tail_in, tail_covered = _k_tail_completion(kmax, ls)
    acc += tail_in
    covered += tail_covered
    return ReturnPositionLaw(
        -lmax, np.concatenate((acc[:0:-1], acc)), float(1 - covered), kmax=kmax
    )


#: growth factor of the geometric grid of return times beyond kmax that
#: _k_tail_completion sums over
_K_TAIL_RATIO = 1.005

#: entries of exp(-l^2 / 2k) that _k_tail_completion holds at once (128 KB):
#: the buckets before the series are summed in blocks of
#: max(1, _BLOCK_ENTRIES // len(ls)) of them, a fixed order, so the result
#: does not depend on the machine's memory.  Blocks of
#: 2^15 slow a cold `lll`, likely through glibc's dynamic mmap threshold:
#: the float64 build's arrays leave it below 256 KB, so that each such
#: temporary would be a fresh mapping
_BLOCK_ENTRIES = 1 << 14


def _k_tail_grid(kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(bucket weights, geometric midpoints) of the grid of even return times
    beyond kmax: e_0 = kmax, e_j = max(2 rint(k_j / 2), e_(j-1) + 2) for the
    running products k_j = kmax * _K_TAIL_RATIO^j, up to the first e_j with
    survival(e_j) sqrt(2 / (pi e_j)) < 1e-18; the weights are survival's drops."""
    # survival(e) sqrt(2 / (pi e)) < 2 / (pi e) < 1e-18 once the edges pass 1e18
    steps = max(1, math.ceil(math.log(1e18 / kmax) / math.log(_K_TAIL_RATIO))) + 1
    k = np.cumprod(np.concatenate(([float(kmax)], np.full(steps, _K_TAIL_RATIO))))
    # e_j - 2j is the running maximum of 2 rint(k_i / 2) - 2i, with e_0 = kmax
    lift = 2 * np.rint(k / 2).astype(np.int64) - 2 * np.arange(steps + 1)
    lift[0] = kmax
    edges = np.maximum.accumulate(lift) + 2 * np.arange(steps + 1)
    surv = survival(edges)
    end = 2 + int(np.argmax(surv[1:] * np.sqrt(2 / (np.pi * edges[1:])) < 1e-18))
    edges, surv = edges[:end].astype(float), surv[:end]
    return surv[:-1] - surv[1:], np.sqrt(edges[:-1] * edges[1:])


#: largest exponent l^2 / 2k, over the window, of a bucket summed by the
#: series in l^2 rather than one exp per entry; the buckets at or below it are
#: all of the grid when kmax >= lmax^2, as at the `lll` defaults
_SERIES_MAX_EXPONENT = 0.5

#: terms of the series for exp(-x): alternating with falling terms for
#: x <= _SERIES_MAX_EXPONENT, so its truncation error is below the first
#: term dropped, x^16 / 16! = 7e-19 at x = 1/2, under a hundredth of 2^-53
#: (15 terms would leave a fifth of it)
_SERIES_TERMS = 16


def _k_tail_completion(kmax: int, ls: np.ndarray) -> tuple[np.ndarray, float]:
    """Contribution of return times beyond kmax, on _k_tail_grid's grid.

    Bucket weights use the exact survival identity; within a bucket the
    binomial point mass is replaced by sqrt(2/(pi k)) exp(-l^2 / 2k) at the
    geometric midpoint.  The midpoints increase, so the buckets whose
    exponent stays at most _SERIES_MAX_EXPONENT on the window are a suffix
    of the grid: there exp is expanded in powers of l^2, the moments
    M_p = sum over buckets of w sqrt(2/(pi k)) (-1/2k)^p / p! are summed
    over the buckets, and sum over p of M_p l^(2p) is taken by Horner's rule.
    Before the split the grid x window matrix of densities is formed one
    block of buckets at a time, so memory does not grow with the window.
    """
    weights, mids = _k_tail_grid(kmax)
    sq = ls**2
    split = int(np.searchsorted(mids, sq[-1] / (2 * _SERIES_MAX_EXPONENT)))
    rows = max(1, _BLOCK_ENTRIES // len(ls))
    contrib = np.zeros(len(ls))
    for lo in range(0, split, rows):
        hi = min(lo + rows, split)
        mid, w = mids[lo:hi, None], weights[lo:hi]
        contrib += w @ (np.sqrt(2.0 / (np.pi * mid)) * np.exp(-sq / (2.0 * mid)))
    term = weights[split:] * np.sqrt(2.0 / (np.pi * mids[split:]))
    rate = -0.5 / mids[split:]
    moments = []
    for p in range(1, _SERIES_TERMS + 1):
        moments.append(term.sum())
        term *= rate / p
    series = np.full(len(ls), moments[-1])
    for m in reversed(moments[:-1]):
        series *= sq
        series += m
    contrib += series
    return contrib, float(2 * contrib.sum() - contrib[0])


#: largest share of the tail functional's value that its certified error may be
MAX_CERTIFIED_FRACTION = 0.10


def tail_functional(law: ReturnPositionLaw, m: int) -> float:
    """m * P(pos >= m) from a computed return-position law.

    The nterms entries in [m, lmax] are each exact up to the law's
    certified bound; the tail beyond lmax is half the law's leaked mass,
    the mass outside the window of a symmetric law.  leaked is one minus
    the lmax + 1 window entries, so it lies within (lmax + 1) error_bound
    of the exact leak, and the certified error
    m (nterms + (lmax + 1) / 2) error_bound covers both parts.  Refuses
    m < 2, m within lmax / 2 of the window edge, and m where that error
    exceeds MAX_CERTIFIED_FRACTION of the value.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    lmax = law.hi
    top = lmax - lmax // 2
    if m > top:
        raise ValueError(f"m = {m} is within the safety margin of the window edge "
                         f"(need m <= {top})")
    t0 = (m + 1) // 2
    in_window = float(np.sum(law.entries[lmax // 2 + t0 :]))
    nterms = lmax // 2 - t0 + 1
    certified = m * (nterms + (lmax + 1) / 2) * law.error_bound
    value = m * (in_window + law.leaked / 2)
    if certified > MAX_CERTIFIED_FRACTION * value:
        raise ValueError(
            f"certified truncation error {certified:.3g} exceeds "
            f"{MAX_CERTIFIED_FRACTION:.0%} of the value {value:.3g}; "
            "recompute the law with a larger kmax"
        )
    return value


def tail_limit(law: ReturnPositionLaw, ms) -> float:
    """Limit of m * P(pos >= m): the intercept of its least-squares line in 1/m over ms."""
    return _line([1.0 / m for m in ms], [tail_functional(law, m) for m in ms])[1]


def _line(x: list[float], y: list[float]) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through the points
    (x, y), from sums about the means taken with math.fsum.  np.polyfit
    solves the same problem through LAPACK's SVD, whose first call maps
    about 1.6 MB of BLAS code; on the fits made here the two agree to a
    few ulps."""
    if len(set(x)) < 2:
        raise ValueError("a line needs at least two distinct x values")
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - mx for v in x]
    slope = math.fsum(d * (v - my) for d, v in zip(dx, y)) / math.fsum(d * d for d in dx)
    return slope, my - slope * mx


# ---------------------------------------------------------------------------
# Samplers used by the Monte Carlo green-sum estimators.

#: draws that a sampler works on at once, so that its temporaries take a
#: fixed 512 KB per array whatever the number of draws; the draws and their
#: order are those of one call over all of them
_SAMPLE_CHUNK = 1 << 16


def sample_first_return(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n first-return times by inversion of the survival function.

    With w = 1 - U in (0, 1], the time is 2m for the least m >= 1 with
    u_m = survival(2m) <= w.  Since u_m = (1 - 1/(64 x^2) + O(x^-4)) / sqrt(pi x) at
    x = m + 1/4, the guess c = floor(1 / (pi w^2) - 1/4), raised to 2, is
    within one of m, so m = c - 1 + [u_(c-1) > w] + [u_c > w]: two lookups
    in the table of u_m, or one survival call for both neighbours of the
    ~0.2% of draws past it.  Values are even and float64: beyond 2^53 the
    integer grid is no longer exact, but such draws occur with probability
    < 1e-8 each and only their magnitude matters downstream.  The uniforms
    are drawn and worked on in place _SAMPLE_CHUNK at a time, each
    operation in the order of the formulas above.
    """
    out = np.empty(n)
    table = _survival_table()
    for lo in range(0, n, _SAMPLE_CHUNK):
        w = rng.random(min(_SAMPLE_CHUNK, n - lo))
        np.subtract(1.0, w, out=w)
        c = np.multiply(np.pi, w)
        c *= w
        np.divide(1.0, c, out=c)
        c -= 0.25
        np.floor(c, out=c)
        np.maximum(c, 2.0, out=c)
        k = np.minimum(c, _TABLE_M).astype(np.intp)
        u_at = table.take(k)
        k -= 1
        u_below = table.take(k)
        far = np.flatnonzero(c > _TABLE_M)
        if far.size:
            m = c.take(far)
            u = survival(np.concatenate((2 * m - 2, 2 * m)))  # both neighbours in one call
            u_below[far] = u[: far.size]
            u_at[far] = u[far.size :]
        c -= 1.0
        c += u_below > w
        c += u_at > w
        np.multiply(c, 2.0, out=out[lo : lo + len(c)])
    return out


_BINOM_LIMIT = float(1 << 62)


def sample_position_at(rng: np.random.Generator, lengths: np.ndarray) -> np.ndarray:
    """Position of an independent +-1 walk after each of the given numbers
    of steps, exact in law below 2^62 steps.

    A walk of r <= 64 steps reads one raw 64-bit word: its top r bits are
    r fair +-1 steps, so the position is 2 popcount - r.  Longer walks draw
    a binomial, and from 2^62 steps on a normal rounded to the lattice of
    even integers, beyond the integer range of the binomial.  Every word is
    read before any binomial, and every binomial drawn before any normal,
    each in the order of the walks; each of the three passes goes over the
    walks _SAMPLE_CHUNK at a time.  The words of a chunk go into a
    zero-filled array, so one bit count covers its every walk, and the
    longer walks overwrite their entries in the later passes.
    """
    out = np.empty(len(lengths))
    chunks = range(0, len(lengths), _SAMPLE_CHUNK)
    for lo in chunks:
        r = lengths[lo : lo + _SAMPLE_CHUNK]
        short = np.flatnonzero(r <= 64)
        shift = r.take(short)
        np.subtract(64.0, shift, out=shift)
        words = rng.bit_generator.random_raw(short.size)
        words >>= shift.astype(np.uint64)
        bits = np.zeros(len(r), dtype=np.uint64)
        bits[short] = words
        part = out[lo : lo + len(r)]
        np.multiply(np.bitwise_count(bits), 2.0, out=part)
        part -= r
    for lo in chunks:
        r = lengths[lo : lo + _SAMPLE_CHUNK]
        mid = np.flatnonzero((r > 64) & (r < _BINOM_LIMIT))
        if mid.size:
            k = r.take(mid).astype(np.int64)
            out[lo + mid] = 2.0 * rng.binomial(k, 0.5) - k.astype(np.float64)
    for lo in chunks:
        r = lengths[lo : lo + _SAMPLE_CHUNK]
        big = np.flatnonzero(r >= _BINOM_LIMIT)
        if big.size:
            k = r.take(big)
            out[lo + big] = 2.0 * np.round(np.sqrt(k) * rng.standard_normal(big.size) / 2.0)
    return out
