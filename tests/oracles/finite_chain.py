"""Exact analysis of finite Markov chains in rational arithmetic.

First-passage probabilities, expected visit counts and partial Green sums
are computed with Fractions, and the classical equivalences between the
"returns with probability one", "infinitely many visits" and "infinite
expected visits" formulations are machine-checked on concrete chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class FiniteChain:
    """Row-stochastic transition matrix with exact rational entries."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            if any(p < 0 for p in row):
                raise ValueError(f"row {i} has a negative entry")
            if sum(row) != 1:
                raise ValueError(f"row {i} sums to {sum(row)}, expected exactly 1")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_lists(cls, rows) -> "FiniteChain":
        return cls(tuple(tuple(Fraction(p) for p in row) for row in rows))


def random_chain(rng: np.random.Generator, nmax: int = 6) -> FiniteChain:
    """Random rational row-stochastic matrix, zeros included so reducible
    and absorbing structures appear."""
    n = int(rng.integers(2, nmax + 1))
    rows = []
    for _ in range(n):
        while True:
            raw = rng.integers(0, 5, size=n)
            if raw.sum() > 0:
                break
        total = int(raw.sum())
        rows.append([Fraction(int(x), total) for x in raw])
    return FiniteChain.from_lists(rows)


def green_partial_sums(chain: FiniteChain, z: int, y: int, nmax: int) -> list[Fraction]:
    """Partial sums S_N = sum_{n<=N} P^n(z, y) for N = 0..nmax, exactly.

    The n = 0 term is the indicator of z == y, so the sum counts the start
    when z and y coincide.
    """
    v = [Fraction(0)] * chain.n
    v[z] = Fraction(1)
    partial = v[y]
    out = [partial]
    for _ in range(nmax):
        w = [Fraction(0)] * chain.n
        for i, p in enumerate(v):
            if p:
                row = chain.rows[i]
                for jj in range(chain.n):
                    if row[jj]:
                        w[jj] += p * row[jj]
        v = w
        partial += v[y]
        out.append(partial)
    return out


def _solve_exact(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals; raises on singular systems."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        m[col], m[pivot] = m[pivot], m[col]
        row = m[col]
        # zero entries of the pivot row change nothing: skip them
        nonzero = [j for j in range(n + 1) if row[j]]
        inv = 1 / row[col]
        for j in nonzero:
            row[j] *= inv
        for r in range(n):
            f = m[r][col]
            if r != col and f:
                other = m[r]
                for j in nonzero:
                    other[j] -= f * row[j]
    return [m[r][n] for r in range(n)]


def _can_reach(chain: FiniteChain, y: int) -> list[bool]:
    """States with a positive-probability path to y (y itself included)."""
    rev: list[list[int]] = [[] for _ in range(chain.n)]
    for i, row in enumerate(chain.rows):
        for j, p in enumerate(row):
            if p:
                rev[j].append(i)
    seen = [False] * chain.n
    seen[y] = True
    stack = [y]
    while stack:
        j = stack.pop()
        for i in rev[j]:
            if not seen[i]:
                seen[i] = True
                stack.append(i)
    return seen


def hit_probability(chain: FiniteChain, x: int, y: int) -> Fraction:
    """P_x(the chain started at x ever sits at y), counting time 0."""
    if x == y:
        return Fraction(1)
    reach = _can_reach(chain, y)
    if not reach[x]:
        return Fraction(0)
    states = [i for i in range(chain.n) if i != y and reach[i]]
    idx = {s: r for r, s in enumerate(states)}
    a = [[Fraction(0)] * len(states) for _ in states]
    b = [Fraction(0)] * len(states)
    for r, s in enumerate(states):
        a[r][r] = Fraction(1)
        row = chain.rows[s]
        for t in range(chain.n):
            p = row[t]
            if not p:
                continue
            if t == y:
                b[r] += p
            elif t in idx:
                a[r][idx[t]] -= p
    h = _solve_exact(a, b)
    return h[idx[x]]


def first_return_probability(chain: FiniteChain, z: int, y: int) -> Fraction:
    """P_z(the chain visits y at some time n >= 1)."""
    total = Fraction(0)
    for w, p in enumerate(chain.rows[z]):
        if p:
            total += p * hit_probability(chain, w, y)
    return total


def visits_at_least(chain: FiniteChain, z: int, y: int, jmax: int) -> list[Fraction]:
    """P_z(G_y >= j) for j = 1..jmax, where G_y counts visits from time 0.

    Computed independently of the renewal factorization, by solving the
    absorption problem on the chain augmented with a visit counter.
    """
    out = []
    for j in range(1, jmax + 1):
        out.append(_visits_at_least_one(chain, z, y, j))
    return out


def _visits_at_least_one(chain: FiniteChain, z: int, y: int, j: int) -> Fraction:
    """P_z(G_y >= j) as a hitting probability on the chain of (x, c) with
    c < j visits so far, state c * n + x, and one absorbing state for
    c = j."""
    n = chain.n
    c0 = 1 if z == y else 0
    if c0 >= j:
        return Fraction(1)
    done = j * n
    rows = []
    for c in range(j):
        for x in range(n):
            row = [Fraction(0)] * (done + 1)
            for t, p in enumerate(chain.rows[x]):
                c2 = c + (t == y)
                row[done if c2 >= j else c2 * n + t] += p
            rows.append(tuple(row))
    rows.append((Fraction(0),) * done + (Fraction(1),))
    return hit_probability(FiniteChain(tuple(rows)), c0 * n + z, done)


def expected_visits(chain: FiniteChain, z: int, y: int):
    """E_z[G_y] with G_y counting visits from time 0.

    Equals 1{z=y} + P_z(R1_y < inf) / (1 - P_y(R1_y < inf)); returns
    math.inf exactly when the chain returns to y with probability one and
    y is reachable from z.
    """
    p_return = first_return_probability(chain, y, y)
    p_reach = first_return_probability(chain, z, y)
    base = Fraction(1) if z == y else Fraction(0)
    if p_return == 1:
        return float("inf") if p_reach > 0 else base
    return base + p_reach / (1 - p_return)


@dataclass
class EquivalenceReport:
    """Outcome of the cross-checks between the visit-count formulations."""

    p_return: Fraction
    p_reach: Fraction
    expected: object  # Fraction or inf
    product_tail: list[Fraction]
    direct_tail: list[Fraction]
    mismatches: list[int] = field(default_factory=list)
    extrapolation_gap: float | None = None
    ok: bool = True


def verify_equivalences(
    chain: FiniteChain,
    z: int,
    y: int,
    kmax: int = 4,
    tol: float = 1e-7,
) -> EquivalenceReport:
    """Check the renewal identities on one chain, exactly.

    P_z(G_y >= j) computed from the product formula must equal the value
    obtained by solving the augmented absorption system, for every j up to
    kmax + 1; the expected-visits formula must match the partial Green
    sums (extrapolated when finite, divergent exactly when the return
    probability is 1).  Any disagreement is reported with the offending j.
    """
    p_return = first_return_probability(chain, y, y)
    p_reach = first_return_probability(chain, z, y)
    base = Fraction(1) if z == y else p_reach
    product = [base * p_return ** (j - 1) for j in range(1, kmax + 2)]
    direct = visits_at_least(chain, z, y, kmax + 1)
    mismatches = [j + 1 for j, (a, b) in enumerate(zip(product, direct)) if a != b]

    expected = expected_visits(chain, z, y)
    gap = None
    ok = not mismatches
    if expected == float("inf"):
        # Lemma equivalence: infinite mean visits iff certain return.
        ok = ok and p_return == 1 and p_reach > 0
    else:
        gap = _extrapolation_gap(chain, z, y, float(expected))
        ok = ok and gap is not None and gap <= tol
    return EquivalenceReport(p_return, p_reach, expected, product, direct, mismatches, gap, ok)


def _extrapolation_gap(chain: FiniteChain, z: int, y: int, target: float) -> float | None:
    """Relative gap between the float partial Green sums (Aitken-accelerated
    once they stall) and the expected value."""
    n = chain.n
    p = [[float(x) for x in row] for row in chain.rows]
    v = [0.0] * n
    v[z] = 1.0
    s = v[y]
    prev2 = prev1 = None
    for it in range(1, 200000):
        w = [0.0] * n
        for i, pi in enumerate(v):
            if pi:
                row = p[i]
                for jj in range(n):
                    w[jj] += pi * row[jj]
        v = w
        prev2, prev1 = prev1, s
        s += v[y]
        if v[y] < 1e-16 * (1.0 + s):
            break
    est = s
    if prev1 is not None and prev2 is not None:
        d1, d2 = s - prev1, prev1 - prev2
        if abs(d1 - d2) > 1e-300:
            aitken = s - d1 * d1 / (d1 - d2)
            if math.isfinite(aitken):
                est = aitken
    return abs(est - target) / (1.0 + abs(target))
