"""The per-visit shift law of the branched walk and its large deviations.

At a visit to the translated half-axis the walk makes a burst of
consecutive a-moves, each shifting it by +2: the shift is 2m with
probability 4 / 5^(m+1).  The auxiliary Green walk of
`recwalk.branched_walk` draws these shifts directly; the exact law, the
exact tail of the shift sums, their sampled large deviations, the
exact first Green term and the exact partial Green sums are the oracles
it is checked against.  The direct Green walk shifts only on j >= 0; its
exact partial sums come from the push-forward of its embedded chain
(direct_green_exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from recwalk.cli import DEFAULT_SEED
from recwalk.return_laws import ReturnPositionLaw
from recwalk.rng import SHIFT_LANE, stream


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


def auxiliary_green_integrand(t, n: int):
    """Re[(1 - psi^(n+1)) / (1 - psi)] at t, elementwise on arrays, for
    psi(t) = (1 - |sin t|) (4/5) / (1 - e^(2it) / 5): the characteristic
    function of one auxiliary step, a return-position draw plus a shift burst."""
    psi = (1 - np.abs(np.sin(t))) * 0.8 / (1 - np.exp(2j * t) / 5)
    return ((1 - psi ** (n + 1)) / (1 - psi)).real


def auxiliary_green_exact(n: int) -> float:
    """G_N, the expected number of hits among returns 0..N of the auxiliary
    walk, for N = n >= 1.

    P(S_k = 0) on 2Z is (1/pi) times the integral of psi^k over [-pi/2, pi/2],
    so G_N = (1/pi) times the integral of auxiliary_green_integrand, which is
    even in t.  Near t = 0 psi^N varies on the scale 1/N, so [0, pi/2] is cut
    into the geometric panels [b/2, b], b = pi/2, pi/4, ..., down to below
    1e-3 / N, and [0, b], each taken with 24-point Gauss-Legendre.
    """
    x, w = np.polynomial.legendre.leggauss(24)
    halvings = math.ceil(math.log2(math.pi / 2 * n / 1e-3))
    edges = np.concatenate(([0.0], math.pi / 2 * 2.0 ** -np.arange(halvings, -1, -1.0)))
    a, b = edges[:-1, None], edges[1:, None]
    t = (a + b) / 2 + (b - a) / 2 * x
    return 2 / math.pi * float(np.sum((b - a) / 2 * w * auxiliary_green_integrand(t, n)))


def direct_green_exact(n: int, points: int) -> float:
    """G_N = sum over n = 0..N of P(j_n = 0), N = n, for the direct walk's
    embedded chain: j at the n-th return of i to 0, from j_0 = 0.  Each step
    is a pause with probability 1/5, +2 on j >= 0 and 0 on j < 0, and
    otherwise a draw from nu, the return-position law.

    The law of j_n is pushed forward on `points` (even) points of 2Z, j = 2k
    for k in [-points/2, points/2), periodically: index k mod points, a
    pause moving the indices of k >= 0 up by one, the last of them onto
    -points/2.  nu's part is a product of the rfft with its characteristic
    function phi(theta) = 1 - |sin theta| at theta = pi q / points, which is
    nu wrapped on the period.  Mass that crosses the period wraps round
    instead of leaving, so the window must be wide against N; at N = 100,
    2^14 points give G_100 = 2.83878."""
    p = np.zeros(points)
    p[0] = 1.0
    phi = 1 - np.abs(np.sin(np.pi * np.arange(points // 2 + 1) / points))
    nonnegative = np.arange(points) < points // 2
    total = 1.0
    for _ in range(n):
        paused = np.where(nonnegative, 0.0, p)
        paused += np.roll(np.where(nonnegative, p, 0.0), 1)
        p = 0.2 * paused + 0.8 * np.fft.irfft(np.fft.rfft(p) * phi, points)
        total += p[0]
    return total
