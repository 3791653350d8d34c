"""The walk on the branched space: recurrent, transient, and in-between.

The branched space is assembled from a two-sided tail ray, a one-sided
inlet ray and a copy of the diagonal lattice {(i, j) : i + j even}, glued
at two junction points.  Five generators act on it: b and c (and their
inverses) swap the junctions and move diagonally on the lattice, while a
drifts rightward along both rays, jumps from the inlet end onto the
lattice, and translates one lattice half-axis.

Under the uniform five-generator step law the branched space splits into
three behaviours.  Lattice starts return to themselves with probability
one; ray points right of the tail junction drift away forever; every other
ray point enters the lattice with a probability strictly between 0 and 1
(computed exactly here by first-step analysis), so it is neither recurrent
nor transient.

Recurrence of the lattice origin is probed through the partial sums of the
indicator that the walk sits at the translated half-axis origin at the
n-th return of the transverse coordinate.  Two estimators are provided:
a direct simulation of the five-generator walk, and an auxiliary one that
replaces the half-axis translations by an independent per-return shift
whose law (2m with probability 4/5^{m+1}) matches the burst of consecutive
a-moves at a half-axis visit.  Their agreement is measured, not assumed.

Both walks are simulated one event at a time, exactly in law, rather than
one step at a time: a ray walk changes what is observed only when a fires,
and the lattice walk only when the transverse coordinate returns to 0.
The step-level oracle that these event models are tested against, with
the generator actions themselves, lives with the tests (`tests/oracles/`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .return_laws import sample_first_return, sample_position_at
from .rng import DIRECT_LANE, POSITION_LANE, RETURN_LANE, SHIFT_LANE, WALK_LANE, stream


# ---------------------------------------------------------------------------
# Points of the branched space.


@dataclass(frozen=True, slots=True)
class Tail:
    """Point of the two-sided ray; k = 0 is the tail-side junction."""

    k: int


@dataclass(frozen=True, slots=True)
class Inlet:
    """Point of the one-sided ray; k <= 0, with k = 0 the inlet-side junction."""

    k: int

    def __post_init__(self) -> None:
        if self.k > 0:
            raise ValueError(f"inlet index must be <= 0, got {self.k}")


@dataclass(frozen=True, slots=True)
class Lattice:
    """Lattice point with even coordinate sum.

    The translated half-axis is {i = 0, j >= 0}: i is the transverse
    coordinate whose returns to 0 are tracked, j the coordinate observed
    (and shifted by a) at those returns.
    """

    i: int
    j: int

    def __post_init__(self) -> None:
        if (self.i + self.j) % 2 != 0:
            raise ValueError(f"lattice point ({self.i}, {self.j}) has odd coordinate sum")


BranchedState = Union[Tail, Inlet, Lattice]

LATTICE_ORIGIN = Lattice(0, 0)
TAIL_JUNCTION = Tail(0)
INLET_JUNCTION = Inlet(0)


def state_id(s: BranchedState) -> str:
    """Stable text id, e.g. 'tail(0)', 'inlet(-3)', 'lattice(0,2)'."""
    if isinstance(s, Tail):
        return f"tail({s.k})"
    if isinstance(s, Inlet):
        return f"inlet({s.k})"
    return f"lattice({s.i},{s.j})"


def standard_points() -> dict[str, BranchedState]:
    """The six reference starting points, keyed by their state ids.

    The two probe points sit 3 steps left of the junctions on their rays;
    the distance is a presentation choice and changes no verdict.
    """
    points = (LATTICE_ORIGIN, Tail(1), TAIL_JUNCTION, INLET_JUNCTION, Tail(-3), Inlet(-3))
    return {state_id(p): p for p in points}


# ---------------------------------------------------------------------------
# Exact absorption probabilities and the three-way classification.


def absorption_probabilities(s: BranchedState) -> tuple[Fraction, Fraction]:
    """(P(eventually enters the lattice), P(escapes along the tail)), exactly.

    Off the lattice only the a-moves change the picture: each step fires a
    with probability 1/5, and the four other moves either hold the state or
    swap the two junctions.  Writing q_T and q_I for the lattice-absorption
    probabilities at the tail and inlet junctions, first-step analysis
    gives q_T = (4/5) q_I and q_I = (4/5) q_T + 1/5: a fires at step k with
    probability (4/5)^(k-1) (1/5) while the walk alternates junctions.
    Ray points left of a junction reach it with probability one (a fires
    eventually, nothing else moves them), so they inherit the junction
    value; tail points right of the junction can only drift further right.
    """
    if isinstance(s, Lattice):
        return Fraction(1), Fraction(0)
    swap = Fraction(4, 5)
    q_tail = (swap * Fraction(1, 5)) / (1 - swap * swap)
    q_inlet = swap * q_tail + Fraction(1, 5)
    if isinstance(s, Tail):
        if s.k >= 1:
            return Fraction(0), Fraction(1)
        return q_tail, 1 - q_tail
    if isinstance(s, Inlet):
        return q_inlet, 1 - q_inlet
    raise TypeError(f"not a branched-space state: {s!r}")


@dataclass
class ClassificationReport:
    """Verdict for one starting point, with the exact absorption split and
    a Monte Carlo consistency estimate."""

    point: BranchedState
    verdict: str
    p_lattice: Fraction
    p_escape: Fraction
    mc_estimate: float
    ci: tuple[float, float]
    horizon: int
    nsamples: int
    seed: int
    flagged: bool

    def to_json_dict(self) -> dict:
        return {
            "point": state_id(self.point),
            "verdict": self.verdict,
            "p_recurrent": str(self.p_lattice),
            "p_escape": str(self.p_escape),
            "mc": {
                "estimate": self.mc_estimate,
                "ci_lo": self.ci[0],
                "ci_hi": self.ci[1],
                "horizon": self.horizon,
                "nsamples": self.nsamples,
                "seed": self.seed,
            },
        }


def _verdict(p_lattice: Fraction) -> str:
    if p_lattice == 1:
        return "Recurrent"
    if p_lattice == 0:
        return "Transient"
    return "Neither"


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval; stable for small counts, unlike the Wald form."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    z = 1.959963984540054  # the two-sided 95% normal quantile
    phat = hits / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return (lo, hi)


#: sample indices per classify stream: sample i reads row i % CLASSIFY_BLOCK
#: of the waits drawn from stream(seed, i // CLASSIFY_BLOCK, WALK_LANE), so
#: it depends on (seed, i) only, whatever nsamples is
CLASSIFY_BLOCK = 1 << 14


def enters_lattice(on_tail: bool, waits: np.ndarray, horizon: int) -> np.ndarray:
    """Whether a ray walk has entered the lattice by step `horizon`, from
    its waits (last axis): the number of steps up to and including each
    firing of a.

    A start k <= 0 needs 1 - k firings; the first -k bring it to its
    junction without a swap, and each non-a step at a junction swaps
    sides.  The last firing enters the lattice from the inlet junction and
    escapes from the tail junction, so a tail start enters iff its last
    wait is even (an odd number of swaps) and an inlet start iff it is
    odd, and only if the waits sum to at most the horizon.  Only the total
    and the last wait matter, so the leading waits may come merged.
    """
    swapped = waits[..., -1] % 2 == 0
    return (waits.sum(axis=-1) <= horizon) & (swapped == on_tail)


def _count_entries(s: Tail | Inlet, horizon: int, nsamples: int, seed: int) -> int:
    """Lattice entries by the horizon among nsamples walks from a ray start
    k <= 0, exactly in law: a fires after a Geometric(1/5) wait, and the
    -k waits before the junction add up to -k + NegBin(-k, 1/5) steps."""
    fires = -s.k
    hits = 0
    for block in range(-(-nsamples // CLASSIFY_BLOCK)):
        rng = stream(seed, block, WALK_LANE)
        lead = np.zeros(CLASSIFY_BLOCK, dtype=np.int64)
        if fires:
            lead += fires + rng.negative_binomial(fires, 0.2, CLASSIFY_BLOCK)
        waits = np.column_stack((lead, rng.geometric(0.2, CLASSIFY_BLOCK)))
        entered = enters_lattice(isinstance(s, Tail), waits, horizon)
        hits += int(entered[: nsamples - block * CLASSIFY_BLOCK].sum())
    return hits


def _entry_probability(s: Tail | Inlet, horizon: int) -> float:
    """P(entry by step `horizon`) from a ray start k <= 0, the law that
    _count_entries samples: the sum over the last wait w ~ Geometric(1/5)
    of P(w) [w even from the tail, odd from the inlet] P(L <= horizon - w),
    with L = -k + NegBin(-k, 1/5) the steps to the junction."""
    fires = -s.k
    # entry after step c needs at most `fires` firings of a in c steps, which
    # has probability below e^-56 at c = 400 + 40 fires (Chernoff): cap there
    horizon = min(horizon, 400 + 40 * fires)
    w = np.arange(1, horizon + 1)
    last = np.where(w % 2 == isinstance(s, Inlet), 0.2 * 0.8 ** (w - 1), 0.0)
    nb = np.arange(horizon - 1)
    pmf = np.cumprod(np.concatenate(([0.2**fires], 0.8 * (nb + fires) / (nb + 1))))
    lead_cdf = np.concatenate((np.zeros(fires), np.cumsum(pmf)))  # P(L <= m), m >= 0
    return float(np.dot(last, lead_cdf[horizon - w]))


def classify_point(
    s: BranchedState, horizon: int, nsamples: int, seed: int
) -> ClassificationReport:
    """Combine the exact absorption split with a Monte Carlo estimate of
    lattice entry before the horizon.

    The verdict comes from absorption_probabilities alone: P(lattice entry)
    = 1 gives "Recurrent", as at lattice(0,0), with no return count behind
    it; escape along the tail leaves every finite set.  The Monte Carlo run
    is a consistency check and is flagged when it strays more than 4 sigma
    from the exact probability of entry by the horizon.
    """
    p_lat, p_esc = absorption_probabilities(s)
    verdict = _verdict(p_lat)
    p = float(p_lat)
    if isinstance(s, Lattice):  # already on the lattice: entry is immediate
        mc, ci = 1.0, (1.0, 1.0)
    elif isinstance(s, Tail) and s.k >= 1:  # right of the junction: no entry
        mc, ci = 0.0, wilson_interval(0, nsamples)
    else:
        hits = _count_entries(s, horizon, nsamples, seed)
        mc = hits / nsamples
        ci = wilson_interval(hits, nsamples)
        p = _entry_probability(s, horizon)
    sigma = math.sqrt(p * (1 - p) / nsamples)
    flagged = abs(mc - p) > 4 * sigma if sigma > 0 else mc != p
    return ClassificationReport(
        s, verdict, p_lat, p_esc, mc, ci, horizon, nsamples, seed, flagged
    )


def classify_standard_points(
    horizon: int, nsamples: int, seed: int
) -> list[ClassificationReport]:
    return [
        classify_point(p, horizon, nsamples, seed)
        for p in standard_points().values()
    ]


# ---------------------------------------------------------------------------
# Green partial sums for the shifted walk.


@dataclass
class GreenSumEstimate:
    """Monte Carlo partial sums of P(position = -shift at the n-th return).

    checkpoint_stats[n] is the (mean, standard error) over the samples of
    the number of hits among returns 0..n (the n = 0 term is identically
    1).  Samples that fail to complete all returns within the horizon
    contribute only their completed part; exhausted counts them.
    """

    method: str
    nsamples: int
    checkpoint_stats: dict[int, tuple[float, float]]
    exhausted: int


def shifted_green_sum(
    n_returns: int,
    nsamples: int,
    seed: int,
    method: str,
    horizon: float | None = None,
    checkpoints: tuple[int, ...] = (),
) -> GreenSumEstimate:
    """Estimate the partial sums G_N of the shifted-walk return indicator
    at each checkpoint N, n_returns always among them.

    method="auxiliary": draw the return-time/position increments of the
    diagonal walk from their exact laws and an independent shift stream;
    the hit at return n is {position sum = -shift sum}.  method="direct":
    follow the five-generator walk from the lattice origin one return of
    the transverse coordinate at a time, exactly in law, and record
    whether the along-axis coordinate vanishes there.  Each method yields
    per sample the hits and times of returns 1..n_returns; a horizon (in
    walk steps) drops the returns past it the same way for both, making
    their comparison like for like, and a sample whose last return falls
    past it counts as exhausted.  The direct method requires a horizon.
    The two methods draw from disjoint streams, so their estimates are
    independent.
    """
    if n_returns < 1:
        raise ValueError("n_returns must be >= 1")
    if nsamples < 1:
        raise ValueError("nsamples must be >= 1")
    checkpoints = tuple(sorted(set(checkpoints) | {n_returns}))
    if any(c < 1 or c > n_returns for c in checkpoints):
        raise ValueError("checkpoints must lie in [1, n_returns]")
    if method == "auxiliary":
        def returns(i):
            return _auxiliary_returns(seed, i, n_returns, horizon is not None)

    elif method == "direct":
        if horizon is None:
            raise ValueError("the direct method requires a horizon")

        def returns(i):
            return _direct_returns(stream(seed, i, DIRECT_LANE), n_returns, int(horizon))

    else:
        raise ValueError(f"unknown method {method!r}")
    cp_index = np.array(checkpoints) - 1
    cp_vals = np.zeros((nsamples, len(checkpoints)))
    exhausted = 0
    for i in range(nsamples):
        hit, times = returns(i)
        idx = np.flatnonzero(hit)
        if times is not None:
            idx = idx[times[idx] <= horizon]
            exhausted += int(times[-1] > horizon)
        cp_vals[i] = 1.0 + np.searchsorted(idx, cp_index, "right")
    # column by column: an axis=0 reduction sums in another order (stderr bits)
    stats = {
        cp: (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(nsamples)))
        for cp, vals in zip(checkpoints, cp_vals.T)
    }
    return GreenSumEstimate(method, nsamples, stats, exhausted)


def _auxiliary_returns(
    seed: int, i: int, n_returns: int, timed: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """(hit, time) at returns 1..n_returns of auxiliary sample i; the
    times only when `timed`.  Positions and shifts are integers far below
    2^53, so their float running sum is exact, in any order."""
    r = sample_first_return(stream(seed, i, RETURN_LANE), n_returns)
    z = sample_position_at(stream(seed, i, POSITION_LANE), r)
    eta = stream(seed, i, SHIFT_LANE).geometric(0.8, n_returns)
    eta -= 1
    eta *= 2
    z += eta
    return np.cumsum(z, out=z) == 0, np.cumsum(r) if timed else None


def _direct_returns(
    rng: np.random.Generator, n_returns: int, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """(hit, time) at returns 1..n_returns of the transverse coordinate i
    of the five-generator walk from the lattice origin, one return at a
    time.

    At a return, a fires next with probability 1/5: a pause of one step
    that kicks j by +2 when j >= 0.  Otherwise i leaves 0 for R non-a steps,
    R a first return time, over which j takes R independent +-1 steps and
    the a-moves, idle off the half-axis, add NegBin(R - 1, 4/5) steps to
    the clock.  R is heavy-tailed and nothing past the horizon is
    observed, so it is clipped to horizon + 1.
    """
    pause = rng.random(n_returns) < 0.2
    r = np.minimum(sample_first_return(rng, n_returns), horizon + 1)
    dj = sample_position_at(rng, r)
    idle = rng.negative_binomial(r - 1, 0.8)
    times = np.cumsum(np.where(pause, 1.0, r + idle))
    hit = np.zeros(n_returns, dtype=bool)
    j = 0.0
    for n, (p, d) in enumerate(zip(pause.tolist(), dj.tolist())):
        j += (2.0 if j >= 0 else 0.0) if p else d
        hit[n] = j == 0
    return hit, times


def cross_method_gap(
    a: GreenSumEstimate, b: GreenSumEstimate, n: int
) -> tuple[float, float]:
    """(|difference|, joint sigma) of two estimates of the partial sum at n."""
    ma, sa = a.checkpoint_stats[n]
    mb, sb = b.checkpoint_stats[n]
    return abs(ma - mb), math.sqrt(sa * sa + sb * sb)
