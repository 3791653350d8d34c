"""The per-visit shift law of the branched walk and its large deviations.

At a visit to the translated half-axis the walk makes a burst of
consecutive a-moves, each shifting it by +2: the shift is 2m with
probability 4 / 5^(m+1).  The auxiliary Green walk of
`recwalk.branched_walk` draws these shifts directly; the exact law, the
exact tail of the shift sums, their sampled large deviations and the
exact first Green term are the oracles it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from recwalk.return_laws import ReturnPositionLaw
from recwalk.rng import DEFAULT_SEED, SHIFT_LANE, stream


@dataclass
class ExcursionShiftLaw:
    """Law of the rightward shift accumulated during one stay at the
    half-axis: 2m with probability 4 / 5^(m+1), truncated at 2*mmax."""

    probs: dict[int, Fraction]
    tail_mass: Fraction
    mmax: int

    def mean(self) -> Fraction:
        """Mean of the stored part; the full law has mean exactly 1/2."""
        return sum((Fraction(x) * p for x, p in self.probs.items()), Fraction(0))

    def total_mass(self) -> Fraction:
        return sum(self.probs.values(), Fraction(0))


def excursion_shift_law(mmax: int) -> ExcursionShiftLaw:
    """Exact geometric burst law: each extra +2 shift costs a factor 1/5."""
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
    probs = {2 * m: Fraction(4, 5 ** (m + 1)) for m in range(mmax + 1)}
    return ExcursionShiftLaw(probs, Fraction(1, 5 ** (mmax + 1)), mmax)


def shift_sum_tail_exact(n: int) -> Fraction:
    """P(sum of n independent shifts > n), exactly.

    Half the shift sum is negative binomial: m failures before the n-th
    success at success probability 4/5, so the tail is one minus a finite
    rational sum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    head = Fraction(0)
    p_m = Fraction(4, 5) ** n  # P(sum/2 = 0)
    for m in range(n // 2 + 1):
        head += p_m
        p_m = p_m * (m + n) * Fraction(1, 5) / (m + 1)
    return 1 - head


@dataclass
class LdpFit:
    """Empirical exponential-decay check for P(shift sum over n > n)."""

    estimates: dict[int, float]
    c_hat: float | None
    passed: bool
    nsamples: int


def large_deviation_check(
    nvals=(5, 10, 20), nsamples: int = 1_000_000, seed: int = DEFAULT_SEED
) -> LdpFit:
    """Sample the shift sums and fit the exponential tail bound.

    The fitted rate is the largest c with every estimate below e^{-c n};
    the check passes when that rate is positive, or when every estimate is
    zero at the available resolution (in which case only the bound
    direction is confirmed).
    """
    nvals = tuple(sorted(nvals))
    estimates: dict[int, float] = {}
    chunk = 1 << 16
    for n in nvals:
        hits = 0
        done = 0
        ci = 0
        while done < nsamples:
            m = min(chunk, nsamples - done)
            rng = stream(seed, (n << 32) | ci, SHIFT_LANE)
            h = 2 * (rng.geometric(0.8, size=(m, n)).sum(axis=1) - n)
            hits += int((h > n).sum())
            done += m
            ci += 1
        estimates[n] = hits / nsamples
    positive = {n: e for n, e in estimates.items() if e > 0}
    if positive:
        c_hat = min(-math.log(e) / n for n, e in positive.items())
        passed = c_hat > 0 and all(
            e <= math.exp(-c_hat * n) * (1 + 1e-9) for n, e in estimates.items()
        )
    else:
        c_hat = None
        passed = True  # all zero: only the bound direction is confirmed
    return LdpFit(estimates, c_hat, passed, nsamples)


def first_term_exact(pos_law: ReturnPositionLaw, shift_law: ExcursionShiftLaw) -> float:
    """P(position = -shift at the first return), from the exact laws:
    sum over m of P(pos = -2m) P(shift = 2m)."""
    total = 0.0
    for m in range(shift_law.mmax + 1):
        total += pos_law.prob(2 * m) * float(shift_law.probs[2 * m])
    return total
