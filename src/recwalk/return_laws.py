"""Laws attached to the first return to zero of a +-1 coordinate.

Three objects are computed here, exactly where feasible and with certified
truncation bounds elsewhere:

* the law of the first return time itself (even support, ~ n^{-3/2} tail);
* a log-log fit of that tail, recovering the decay exponent and prefactor;
* the law of the free coordinate of the diagonal walk at the first return
  of the tracked coordinate, built from the convolution identity
  P(pos = l) = sum_k P(S_k = l) P(return = k), together with its tail
  functional m * P(pos >= m), whose limit is the scale constant of the
  heavy tail.

Both laws are LatticeLaws on the even lattice: the first-return law holds
80-bit products rounded once to float64, and the return-position law is
evaluated in 80-bit floats through two telescoping identities (see
return_position_law).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

LONG = np.longdouble


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
        """The law conditioned on its window and cast to float64, so the convolution
        inputs carry mass one; the window mass is 2 sum_{l >= 0} - P(0), in 80 bits."""
        half = law.entries[law.hi // 2 :]
        entries = law.entries.astype(np.float64)
        entries /= float(2 * np.sum(half) - half[0])
        return cls(law.lo, entries)

    @property
    def hi(self) -> int:
        return self.lo + 2 * (len(self.entries) - 1)

    def support(self) -> np.ndarray:
        """The lattice points lo, lo + 2, ..., hi, in increasing order."""
        return self.lo + 2 * np.arange(len(self.entries))

    def prob(self, k: int) -> float:
        i, off = divmod(k - self.lo, 2)
        if off or not 0 <= i < len(self.entries):
            return 0.0
        return float(self.entries[i])

    def is_symmetric(self) -> bool:
        return self.lo == -self.hi and np.array_equal(self.entries, self.entries[::-1])


#: entries of the running product that _survival_blocks holds at once (64 KB)
_SURVIVAL_BLOCK = 1 << 12


def _survival_blocks(mmax: int):
    """u[m-1] = P(no return by time 2m) = C(2m, m) / 4^m for m = 1..mmax,
    as the 80-bit running product of (2m - 1) / 2m, yielded as (m, u) in
    consecutive blocks of _SURVIVAL_BLOCK.  Each block's product starts
    from the previous block's last entry, so the entries are those of one
    running product over all m."""
    carry = LONG(1)
    for lo in range(1, mmax + 1, _SURVIVAL_BLOCK):
        m = np.arange(lo, min(lo + _SURVIVAL_BLOCK, mmax + 1), dtype=LONG)
        u = (2 * m - 1) / (2 * m)
        u[0] *= carry
        np.cumprod(u, out=u)
        carry = u[-1]
        yield m, u


#: coefficients of sqrt(pi x) Gamma(x + 1/4) / Gamma(x + 3/4) - 1 in 1/x^2, highest
#: order first, as exact dyadic rationals
_U_SERIES = (5099063967524835 / 2**55, -1874409467055 / 2**46, 7426362705 / 2**40,
             -20898423 / 2**33, 180323 / 2**27, -671 / 2**19, 21 / 2**13, -1 / 2**6)


def _u_float(m: float) -> float:
    """C(2m, m) / 4^m = Gamma(m + 1/2) / (sqrt(pi) Gamma(m + 1)) for real m >= 1,
    to a few ulps: u(m) = u(m + 1) (2m + 2) / (2m + 1) up to m >= 8, then
    _u_series at x = m + 1/4."""
    m = float(m)
    num = den = 1.0
    while m < 8.0:
        num, den, m = num * (2 * m + 2), den * (2 * m + 1), m + 1.0
    x = m + 0.25
    return num / den * _u_series(x) / math.sqrt(math.pi * x)


def _u_series(x):
    """sqrt(pi x) Gamma(x + 1/4) / Gamma(x + 3/4) for x >= 8.25, a float or
    an array, as 1 + a series in 1/x^2 whose first omitted term is < 1e-16."""
    series = 0.0
    x2 = x * x
    for c in _U_SERIES:
        series = (series + c) / x2
    return 1.0 + series


def survival(n) -> float:
    """P(first return time > n) for even n >= 0."""
    if n <= 0:
        return 1.0
    if n % 2 == 1:
        raise ValueError("survival is defined on even times")
    return _u_float(n // 2)


def first_return_law(nmax: int) -> LatticeLaw:
    """Law of the first return to 0 of the +-1 walk on 2, 4, ..., nmax: the
    80-bit survival product over 2m - 1, rounded once to float64; leaked is
    P(return time > nmax)."""
    if nmax < 2 or nmax % 2 == 1:
        raise ValueError("nmax must be an even integer >= 2")
    probs = np.empty(nmax // 2)
    for m, u in _survival_blocks(nmax // 2):
        probs[int(m[0]) - 1 : int(m[-1])] = u / (2 * m - 1)
    return LatticeLaw(2, probs, float(u[-1]))


@dataclass
class TailExponentFit:
    """Least-squares fit of log P(return = n) against log n."""

    slope: float
    prefactor: float  # exp(mean(log P + 1.5 log n)): the n^{-3/2} coefficient
    npoints: int
    window: tuple[int, int]


def fit_tail_exponent(law: LatticeLaw, m_lo: int, m_hi: int) -> TailExponentFit:
    """Fit the power-law tail of a return-time law over even n in [m_lo, m_hi]."""
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


@dataclass(frozen=True, kw_only=True)
class ReturnPositionLaw(LatticeLaw):
    """Law of the free diagonal-walk coordinate at the first tracked return,
    on the window -lmax, -lmax + 2, ..., lmax in 80-bit entries.

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
#: 80-bit entries are 64 MB per array, and at that length the build already
#: holds about 330 MB
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
    s = np.arange(column_length(lmax, kmax), dtype=LONG)
    u = LONG(survival(2 * m1))
    steps = (m1 - s[:-1]) / (m1 + s[:-1] + 1)
    column = u * u / (2 * m1 - 1) * np.cumprod(np.concatenate(([LONG(1)], steps)))
    tails = np.cumsum((4 * (2 * s + 1) * (m1 - s) * column)[::-1])[::-1]
    top = min(nl, m1)  # S(t) = 0 for t > M
    acc = np.zeros(nl, dtype=LONG)
    acc[0] = 1 - 4 * LONG(m1) ** 2 * column[0]
    acc[1:top] = tails[1:top] / (4 * s[1:top] ** 2 - 1)
    covered = 2 * np.sum(acc) - acc[0]
    tail_in, tail_covered = _k_tail_completion(kmax, ls)
    acc += tail_in
    covered += LONG(tail_covered)
    return ReturnPositionLaw(
        -lmax, np.concatenate((acc[:0:-1], acc)), float(1 - covered), kmax=kmax
    )


#: growth factor of the geometric grid of return times beyond kmax that
#: _k_tail_completion sums over
_K_TAIL_RATIO = 1.005

#: entries of exp(-l^2 / 2k) that _k_tail_completion holds at once (256 KB):
#: the grid is summed in blocks of max(1, _BLOCK_ENTRIES // len(ls)) buckets,
#: a fixed order, so the result does not depend on the machine
_BLOCK_ENTRIES = 1 << 15


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
    # survival as _u_float evaluates it: the series from m = 8 on
    x = edges // 2 + 0.25
    surv = _u_series(x) / np.sqrt(np.pi * x)
    surv[edges < 16] = [survival(int(e)) for e in edges[edges < 16]]
    end = 2 + int(np.argmax(surv[1:] * np.sqrt(2 / (np.pi * edges[1:])) < 1e-18))
    edges, surv = edges[:end].astype(float), surv[:end]
    return surv[:-1] - surv[1:], np.sqrt(edges[:-1] * edges[1:])


def _k_tail_completion(kmax: int, ls: np.ndarray) -> tuple[np.ndarray, float]:
    """Contribution of return times beyond kmax, on _k_tail_grid's grid.

    Bucket weights use the exact survival identity; within a bucket the
    binomial point mass is replaced by sqrt(2/(pi k)) exp(-l^2 / 2k) at the
    geometric midpoint.  The grid x window matrix of densities is formed
    one block of buckets at a time, so memory does not grow with the window.
    """
    weights, mids = _k_tail_grid(kmax)
    neg_sq = -(ls**2)
    rows = max(1, _BLOCK_ENTRIES // len(ls))
    contrib = np.zeros(len(ls))
    covered = 0.0
    for lo in range(0, len(mids), rows):
        mid, w = mids[lo : lo + rows, None], weights[lo : lo + rows]
        dens = np.sqrt(2.0 / (np.pi * mid)) * np.exp(neg_sq / (2.0 * mid))
        contrib += w @ dens
        covered += float(np.dot(w, 2.0 * dens.sum(axis=1) - dens[:, 0]))
    return contrib.astype(LONG), covered


#: largest share of the tail functional's value that its certified error may be
MAX_CERTIFIED_FRACTION = 0.10


def tail_functional(law: ReturnPositionLaw, m: int) -> float:
    """m * P(pos >= m) from a computed return-position law.

    The sum over [m, lmax] is exact up to the law's certified bound; the
    tail beyond lmax is completed with the fitted sigma / l^2 density.
    Refuses m < 2, m within lmax / 2 of the window edge, and m where the
    certified truncation error, m times the bound at each entry summed,
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
    sigma = fit_tail_scale(law)
    # sum over even l > lmax of 2 sigma / l^2 = (sigma / 2) sum over t > lmax/2 of 1 / t^2
    completion = sigma * 0.5 * _inverse_square_tail(lmax // 2)
    nterms = lmax // 2 - t0 + 1
    certified = m * nterms * law.error_bound
    value = m * (in_window + completion)
    if certified > MAX_CERTIFIED_FRACTION * value:
        raise ValueError(
            f"certified truncation error {certified:.3g} exceeds "
            f"{MAX_CERTIFIED_FRACTION:.0%} of the value {value:.3g}; "
            "recompute the law with a larger kmax"
        )
    return value


def _inverse_square_tail(t: int) -> float:
    """Sum of 1 / s^2 over the integers s > t >= 0, the trigamma function at
    t + 1: the recurrence up to x >= 20, then the asymptotic series, whose
    first omitted term is below 1e-20 of the value there."""
    x, head = float(t + 1), 0.0
    while x < 20.0:
        head += 1.0 / (x * x)
        x += 1.0
    # Bernoulli numbers B_2, ..., B_14; term k is B_2k / x^(2k+1)
    series = 0.0
    for b in (7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6):
        series = series / (x * x) + b
    return head + (1.0 + 0.5 / x + series / (x * x)) / x


def fit_tail_scale(law: ReturnPositionLaw) -> float:
    """Fitted scale of the sigma / l^2 tail density, from the upper half of
    the window."""
    lmax = law.hi
    ts = np.arange((lmax // 2 + 1) // 2, lmax // 2 + 1)
    ls = 2 * ts.astype(np.float64)
    vals = law.entries[lmax // 2 + ts].astype(np.float64)
    if len(ts) < 5:
        raise ValueError("window too small to fit the tail scale")
    return _median(vals * ls * ls / 2.0)


def _median(values: np.ndarray) -> float:
    """np.median of a 1-d array, bit for bit, without the import of numpy.ma
    (about 13 ms and 1.3 MB) that np.median makes on its first call: nan if
    a value is nan, else the mean of the one or two middle values, a sum
    that starts from +0.0 as np.mean's does, so -0.0 reads as +0.0."""
    ordered = np.sort(values)  # a nan sorts last
    if np.isnan(ordered[-1]):
        return math.nan
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + float(ordered[mid])
    return (0.0 + float(ordered[mid - 1]) + float(ordered[mid])) / 2


def tail_limit(law: ReturnPositionLaw, ms) -> float:
    """Limit of m * P(pos >= m): the intercept of its least-squares line in 1/m over ms."""
    x = np.array([1.0 / m for m in ms])
    y = np.array([tail_functional(law, m) for m in ms])
    return float(np.polyfit(x, y, 1)[1])


# ---------------------------------------------------------------------------
# Samplers used by the Monte Carlo green-sum estimators.

#: u_m comes from a table up to this m and from _u_series beyond
_TABLE_M = 1 << 16


@functools.cache
def _survival_table() -> np.ndarray:
    """u_m = C(2m, m) / 4^m for m = 0.._TABLE_M: the 80-bit running product
    rounded to float64, 512 KB, built on first use one block at a time."""
    table = np.empty(_TABLE_M + 1)
    table[0] = 1.0
    for m, u in _survival_blocks(_TABLE_M):
        table[int(m[0]) : int(m[-1]) + 1] = u
    return table


def sample_first_return(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n first-return times by inversion of the survival function.

    With w = 1 - U in (0, 1], the time is 2m for the least m >= 1 with
    u_m <= w.  Since u_m = (1 - 1/(64 x^2) + O(x^-4)) / sqrt(pi x) at
    x = m + 1/4, the guess c = floor(1 / (pi w^2) - 1/4), raised to 2, is
    within one of m, so m = c - 1 + [u_(c-1) > w] + [u_c > w]: two lookups
    in the table of u_m, or two series evaluations for the ~0.2% of draws
    past it.  Values are even and float64: beyond 2^53 the integer grid is
    no longer exact, but such draws occur with probability < 1e-8 each and
    only their magnitude matters downstream.  The arrays are worked on in
    place, each operation in the order of the formulas above.
    """
    w = rng.random(n)
    np.subtract(1.0, w, out=w)
    c = np.multiply(np.pi, w)
    c *= w
    np.divide(1.0, c, out=c)
    c -= 0.25
    np.floor(c, out=c)
    np.maximum(c, 2.0, out=c)
    k = np.minimum(c, _TABLE_M).astype(np.intp)
    table = _survival_table()
    u_at = table.take(k)
    k -= 1
    u_below = table.take(k)
    far = np.flatnonzero(c > _TABLE_M)
    if far.size:
        m = c.take(far)
        x = np.concatenate((m - 1.0, m))  # both neighbours in one series call
        x += 0.25
        u = _u_series(x) / np.sqrt(np.pi * x)
        u_below[far] = u[: far.size]
        u_at[far] = u[far.size :]
    c -= 1.0
    c += u_below > w
    c += u_at > w
    c *= 2.0
    return c


_BINOM_LIMIT = float(1 << 62)


def sample_position_at(rng: np.random.Generator, lengths: np.ndarray) -> np.ndarray:
    """Position of an independent +-1 walk after each of the given numbers
    of steps, exact in law below 2^62 steps.

    A walk of r <= 64 steps reads one raw 64-bit word: its top r bits are
    r fair +-1 steps, so the position is 2 popcount - r.  Longer walks draw
    a binomial, and from 2^62 steps on a normal rounded to the lattice of
    even integers, beyond the integer range of the binomial.  The words go
    into a zero-filled array, so one bit count covers every walk, and the
    longer walks overwrite their entries afterwards.
    """
    short = np.flatnonzero(lengths <= 64)
    shift = lengths.take(short)
    np.subtract(64.0, shift, out=shift)
    words = rng.bit_generator.random_raw(short.size)
    words >>= shift.astype(np.uint64)
    bits = np.zeros(len(lengths), dtype=np.uint64)
    bits[short] = words
    out = np.multiply(np.bitwise_count(bits), 2.0)
    out -= lengths
    long = np.flatnonzero(lengths > 64)
    if long.size:
        ns = lengths.take(long)
        mid = ns < _BINOM_LIMIT
        if mid.any():
            k = ns[mid].astype(np.int64)
            out[long[mid]] = 2.0 * rng.binomial(k, 0.5) - k.astype(np.float64)
        big = ~mid
        if big.any():
            k = ns[big]
            out[long[big]] = 2.0 * np.round(np.sqrt(k) * rng.standard_normal(len(k)) / 2.0)
    return out
