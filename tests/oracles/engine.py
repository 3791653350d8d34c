"""Generic Markov-chain machinery over a countable state space.

Exact one-step push-forward with explicit truncation accounting, seeded
trajectory sampling and the empirical laws drawn from it (the step-level
oracle for the event-driven walks), and return-time observables.
Everything that takes a seed is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from recwalk.rng import WALK_LANE, stream

from .spaces import Generator, StepMeasure

Action = Callable[[Generator, object], object]


@dataclass
class SparseDist:
    """Finitely supported distribution with explicit truncation accounting.

    entries maps states (or integers) to weights, either exact Fractions or
    floats.  leaked accumulates the probability mass dropped by cutoffs, so
    sum(entries) + leaked == 1 — exactly in rational mode, to 1e-12 in
    float mode.  Zero-weight keys are never stored.
    """

    entries: dict
    leaked: float = 0.0

    @classmethod
    def point(cls, state) -> "SparseDist":
        return cls({state: Fraction(1)})

    def total(self):
        return sum(self.entries.values())

    def is_exact(self) -> bool:
        return self.leaked == 0 and all(isinstance(p, Fraction) for p in self.entries.values())

    def validate(self, tol: float = 1e-12) -> None:
        for s, p in self.entries.items():
            if p <= 0:
                raise ValueError(f"non-positive weight {p} at {s!r}")
        if self.leaked < 0:
            raise ValueError(f"negative leaked mass {self.leaked}")
        total = self.total() + self.leaked
        if self.is_exact():
            if total != 1:
                raise ValueError(f"exact mass {total} != 1")
        elif abs(float(total) - 1.0) > tol:
            raise ValueError(f"mass {float(total)} deviates from 1 beyond {tol}")

    def prob(self, state):
        return self.entries.get(state, 0)


def push_forward(
    d: SparseDist,
    measure: StepMeasure,
    apply: Action,
    cutoff: float = 0.0,
) -> SparseDist:
    """One step of the chain: sum over generators g of weight(g) * (g . d).

    Entries below `cutoff` are dropped and their mass added to `leaked`;
    with cutoff 0 and rational inputs the push-forward is exact.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    out: dict = {}
    for state, p in d.entries.items():
        for g, w in measure.support:
            t = apply(g, state)
            pw = p * w
            if t in out:
                out[t] += pw
            else:
                out[t] = pw
    leaked = d.leaked
    if cutoff > 0:
        kept = {}
        for s, p in out.items():
            if p < cutoff:
                leaked += float(p)
            else:
                kept[s] = p
        out = kept
    return SparseDist(out, leaked)


def iterate_push_forward(
    d: SparseDist, measure: StepMeasure, apply: Action, n: int, cutoff: float = 0.0
) -> SparseDist:
    for _ in range(n):
        d = push_forward(d, measure, apply, cutoff)
    return d


def _float_cdf(measure: StepMeasure) -> np.ndarray:
    cdf = np.cumsum([float(w) for _, w in measure.support])
    cdf[-1] = 1.0  # guard against rounding; uniforms are < 1
    return cdf


@dataclass(frozen=True)
class Trajectory:
    """A seeded trajectory: start state plus generator step codes.

    States are derived lazily through the space action, so a trajectory
    costs O(horizon) bytes regardless of the state type.
    """

    start: object
    steps: np.ndarray  # uint8 indices into generator_order
    generator_order: tuple[Generator, ...]
    apply: Action = field(repr=False)

    def __len__(self) -> int:
        return len(self.steps)

    def generator_steps(self) -> Iterator[Generator]:
        order = self.generator_order
        for code in self.steps:
            yield order[code]

    def states(self) -> Iterator[object]:
        """Yield X_0, X_1, ..., X_horizon."""
        s = self.start
        yield s
        apply = self.apply
        order = self.generator_order
        for code in self.steps:
            s = apply(order[code], s)
            yield s


def sample_path(
    apply: Action,
    measure: StepMeasure,
    start: object,
    horizon: int,
    seed: int,
    stream_index: int = 0,
) -> Trajectory:
    """Draw `horizon` i.i.d. generator steps from `measure`.

    The stream is keyed by (seed, stream_index): identical arguments
    reproduce the identical trajectory bit for bit.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    rng = stream(seed, stream_index, WALK_LANE)
    u = rng.random(horizon)
    codes = np.searchsorted(_float_cdf(measure), u, side="right").astype(np.uint8)
    return Trajectory(start, codes, measure.generators(), apply)


@dataclass
class ReturnObservables:
    """Times at which a scalar observable returns to 0, with the value of a
    second observable at those times."""

    return_times: list[int]
    positions: list[int]
    completed: int


def observe_returns(
    traj: Trajectory,
    scalar: Callable[[object], int],
    position: Callable[[object], int],
    max_returns: int,
) -> ReturnObservables:
    """Record the first `max_returns` times n >= 1 with scalar(X_n) = 0,
    counting every visit, and the position observable there.

    Returns fewer records when the trajectory is exhausted first; the
    `completed` field reports how many were found.
    """
    if scalar(traj.start) != 0:
        raise ValueError("scalar observable must vanish at the start state")
    times: list[int] = []
    positions: list[int] = []
    for n, s in enumerate(traj.states()):
        if n == 0:
            continue
        if scalar(s) == 0:
            times.append(n)
            positions.append(position(s))
            if len(times) >= max_returns:
                break
    return ReturnObservables(times, positions, len(times))


def empirical_distribution(
    apply: Action,
    measure: StepMeasure,
    start: object,
    n: int,
    nsamples: int,
    seed: int,
) -> dict:
    """Empirical law of X_n over seeded samples (for exact/MC agreement
    checks against push_forward)."""
    counts: dict = {}
    for i in range(nsamples):
        traj = sample_path(apply, measure, start, n, seed, stream_index=i)
        *_, s = traj.states()
        counts[s] = counts.get(s, 0) + 1
    return {s: c / nsamples for s, c in counts.items()}


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(float(p.get(k, 0)) - float(q.get(k, 0))) for k in keys)
