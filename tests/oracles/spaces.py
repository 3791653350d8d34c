"""Generator actions on the three spaces of the walks, and step measures.

Three spaces share the generator alphabet {a, b, b^-1, c, c^-1}:

* the integer line, where b and c step right and their inverses left;
* the diagonal lattice {(s, t) : s + t even}, translated along its two
  diagonals by b, b^-1, c, c^-1;
* the branched space of `recwalk.branched_walk`, assembled from a
  two-sided tail ray, a one-sided inlet ray and a copy of the diagonal
  lattice, glued at two junction points.  b and c swap the junctions,
  while a drifts rightward along both rays, jumps from the inlet end onto
  the lattice, and translates one lattice half-axis.

Together with `oracles.engine` these give the step-level walk that the
event-driven walks of `recwalk.branched_walk` are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable

from recwalk.branched_walk import (
    INLET_JUNCTION,
    LATTICE_ORIGIN,
    TAIL_JUNCTION,
    BranchedState,
    Inlet,
    Lattice,
    Tail,
)


class Generator(Enum):
    """The five generators acting on the spaces."""

    A = "a"
    B = "b"
    BINV = "b~"
    C = "c"
    CINV = "c~"

    def inverse(self) -> "Generator":
        """Inverse generator; a is irreversible under every action here."""
        if self is Generator.A:
            raise ValueError("generator a has no inverse in these actions")
        return _INVERSE[self]


_INVERSE = {
    Generator.B: Generator.BINV,
    Generator.BINV: Generator.B,
    Generator.C: Generator.CINV,
    Generator.CINV: Generator.C,
}

# Diagonal moves on the lattice, shared by the branched and diagonal actions.
# i is the coordinate transverse to the translated half-axis, j runs along it.
_DI = {Generator.B: 1, Generator.BINV: -1, Generator.C: 1, Generator.CINV: -1}
_DJ = {Generator.B: 1, Generator.BINV: -1, Generator.C: -1, Generator.CINV: 1}


def branched_apply(g: Generator, s: BranchedState) -> BranchedState:
    """Apply one generator to a point of the branched space.

    b, c and their inverses act as the identity on both rays except at the
    two junctions, which all four swap.  a translates both rays rightward
    (tail indices move up for every k; inlet indices move up for k < 0),
    maps the inlet junction onto the lattice origin, translates the lattice
    half-axis {i = 0, j >= 0} by (0, +2), and fixes the rest of the lattice.
    On the lattice, b: (i, j) -> (i+1, j+1) and c: (i, j) -> (i+1, j-1),
    with their inverses reversed.
    """
    if isinstance(s, Tail):
        if g is Generator.A:
            return Tail(s.k + 1)
        return INLET_JUNCTION if s.k == 0 else s
    if isinstance(s, Inlet):
        if g is Generator.A:
            return LATTICE_ORIGIN if s.k == 0 else Inlet(s.k + 1)
        return TAIL_JUNCTION if s.k == 0 else s
    if isinstance(s, Lattice):
        if g is Generator.A:
            if s.i == 0 and s.j >= 0:
                return Lattice(0, s.j + 2)
            return s
        return Lattice(s.i + _DI[g], s.j + _DJ[g])
    raise TypeError(f"not a branched-space state: {s!r}")


def diagonal_apply(g: Generator, p: tuple[int, int]) -> tuple[int, int]:
    """Translate a diagonal-lattice point; a does not act on this space."""
    if g is Generator.A:
        raise ValueError("generator a does not act on the diagonal lattice")
    s, t = p
    if (s + t) % 2 != 0:
        raise ValueError(f"diagonal-lattice point {p} has odd coordinate sum")
    return (s + _DI[g], t + _DJ[g])


def line_apply(g: Generator, x: int) -> int:
    """Step on the integer line: b, c move right, their inverses left."""
    if g is Generator.A:
        raise ValueError("generator a does not act on the line")
    return x + (1 if g in (Generator.B, Generator.C) else -1)


@dataclass(frozen=True)
class StepMeasure:
    """Finitely supported probability measure on the generators.

    Weights are exact rationals, strictly positive, and sum exactly to 1.
    """

    support: tuple[tuple[Generator, Fraction], ...]

    def __post_init__(self) -> None:
        total = Fraction(0)
        seen = set()
        for g, w in self.support:
            if g in seen:
                raise ValueError(f"duplicate generator {g} in step measure")
            seen.add(g)
            if w <= 0:
                raise ValueError(f"weight of {g} must be positive, got {w}")
            total += w
        if total != 1:
            raise ValueError(f"weights must sum to 1 exactly, got {total}")

    def weight(self, g: Generator) -> Fraction:
        for h, w in self.support:
            if h is g:
                return w
        return Fraction(0)

    def generators(self) -> tuple[Generator, ...]:
        return tuple(g for g, _ in self.support)


def uniform_five() -> StepMeasure:
    """All five generators with weight 1/5 each."""
    w = Fraction(1, 5)
    return StepMeasure(tuple((g, w) for g in Generator))


def uniform_diagonal() -> StepMeasure:
    """The four invertible generators with weight 1/4 each."""
    w = Fraction(1, 4)
    gens = (Generator.B, Generator.BINV, Generator.C, Generator.CINV)
    return StepMeasure(tuple((g, w) for g in gens))


def ball(
    apply: Callable[[Generator, object], object],
    start: object,
    radius: int,
    generators: Iterable[Generator] = tuple(Generator),
) -> dict[object, int]:
    """Breadth-first distances of all states reachable within `radius`
    moves of `start` under the given generators (directed: only the moves
    actually available are followed)."""
    gens = tuple(generators)
    dist = {start: 0}
    frontier = [start]
    for d in range(1, radius + 1):
        nxt = []
        for s in frontier:
            for g in gens:
                t = apply(g, s)
                if t not in dist:
                    dist[t] = d
                    nxt.append(t)
        frontier = nxt
    return dist
