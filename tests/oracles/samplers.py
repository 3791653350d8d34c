"""The Green-sum samplers, the classify entry count and the stream
constructor in their one-shot form, the bit-identity oracles for the
in-place, chunked versions in `recwalk`.

`sample_first_return`, `sample_position_at` and `survival_table` read
fresh arrays through boolean masks, all draws in one call, and build the
2^16-entry table from one array of all its m; `stream` keys
Philox through `key=`; `auxiliary_returns` draws a sample's shifts in one
call; `direct_returns` draws its idle steps in one call and walks j over
lists of all the returns; `count_entries` draws every classify walk
before it counts any.  The `recwalk` versions must return the same
arrays, counts and streams.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from recwalk.branched_walk import Tail
from recwalk.return_laws import _BINOM_LIMIT, _TABLE_M, _u_series
from recwalk.rng import POSITION_LANE, RETURN_LANE, SHIFT_LANE, WALK_LANE

_INDEX_LIMIT = 1 << 56


def stream(seed: int, index: int = 0, lane: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, lane, sample-index) triple.

    The key is the seed, which must lie in [0, 2**64), and a word packing
    the lane into the top 8 bits and the index into the low 56, so index
    must lie in [0, 2**56) and lane in [0, 256); anything else would alias
    another key and is rejected.
    """
    if not (0 <= seed < 1 << 64 and 0 <= index < _INDEX_LIMIT and 0 <= lane < 256):
        raise ValueError(f"stream key out of range: seed {seed}, index {index}, lane {lane}")
    # a uint64 array, because numpy would pass a Python list holding a
    # value >= 2**63 through float64 and round distinct keys together
    key = np.array([seed, (lane << 56) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@functools.cache
def survival_table() -> np.ndarray:
    """u_m = C(2m, m) / 4^m for m = 0.._TABLE_M, 512 KB, built on first use:
    the value rounded once for m < 9, and _u_series(x) / sqrt(pi x) at
    x = m + 1/4 from m = 9 on."""
    x = np.arange(_TABLE_M + 1) + 0.25
    table = _u_series(x) / np.sqrt(np.pi * x)
    table[:9] = [math.comb(2 * m, m) / 4**m for m in range(9)]
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
    only their magnitude matters downstream.
    """
    w = 1.0 - rng.random(n)
    c = np.maximum(np.floor(1.0 / (np.pi * w * w) - 0.25), 2.0)
    k = np.minimum(c, _TABLE_M).astype(np.intp)
    table = survival_table()
    u_below, u_at = table[k - 1], table[k]
    far = c > _TABLE_M
    if np.any(far):
        for u, m in ((u_below, c[far] - 1.0), (u_at, c[far])):
            x = m + 0.25
            u[far] = _u_series(x) / np.sqrt(np.pi * x)
    return 2.0 * (c - 1.0 + (u_below > w) + (u_at > w))


def sample_position_at(rng: np.random.Generator, lengths: np.ndarray) -> np.ndarray:
    """Position of an independent +-1 walk after each of the given numbers
    of steps, exact in law below 2^62 steps.

    A walk of r <= 64 steps reads one raw 64-bit word: its top r bits are
    r fair +-1 steps, so the position is 2 popcount - r.  Longer walks draw
    a binomial, and from 2^62 steps on a normal rounded to the lattice of
    even integers, beyond the integer range of the binomial.
    """
    out = np.empty(len(lengths), dtype=np.float64)
    short = lengths <= 64
    r = lengths[short]
    words = rng.bit_generator.random_raw(len(r))
    out[short] = 2.0 * np.bitwise_count(words >> (64 - r).astype(np.uint64)) - r
    mid = ~short & (lengths < _BINOM_LIMIT)
    if np.any(mid):
        ns = lengths[mid].astype(np.int64)
        out[mid] = 2.0 * rng.binomial(ns, 0.5) - ns.astype(np.float64)
    big = lengths >= _BINOM_LIMIT
    if np.any(big):
        ns = lengths[big]
        out[big] = 2.0 * np.round(np.sqrt(ns) * rng.standard_normal(len(ns)) / 2.0)
    return out


def auxiliary_returns(seed: int, i: int, n_returns: int, timed: bool):
    """(hit, time) at returns 1..n_returns of auxiliary sample i, as
    `recwalk.branched_walk._auxiliary_returns` returns them."""
    r = sample_first_return(stream(seed, i, RETURN_LANE), n_returns)
    z = sample_position_at(stream(seed, i, POSITION_LANE), r)
    z += 2 * (stream(seed, i, SHIFT_LANE).geometric(0.8, n_returns) - 1)
    return np.cumsum(z) == 0, np.cumsum(r) if timed else None


def direct_returns(rng: np.random.Generator, n_returns: int, horizon: int):
    """(hit, time) at returns 1..n_returns of the direct walk, as
    `recwalk.branched_walk._direct_returns` returns them."""
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


def count_entries(s, horizon: int, nsamples: int, seed: int) -> int:
    """Lattice entries by step `horizon` among nsamples walks from a ray
    start k <= 0, as `recwalk.branched_walk._count_entries` counts them.

    Walk i reads row i % 2^14 of stream(seed, i // 2^14, WALK_LANE): first,
    when k < 0, the -k + NegBin(-k, 1/5) steps to the junction, then the
    Geometric(1/5) wait of a's last firing.  It enters iff its steps add up
    to at most the horizon and that wait is even from the tail, odd from
    the inlet.
    """
    block, rate, fires = 1 << 14, 1 / 5, -s.k
    lead, last = [], []
    for b in range(-(-nsamples // block)):
        rng = stream(seed, b, WALK_LANE)
        lead.append(fires + rng.negative_binomial(fires, rate, block) if fires else np.zeros(block))
        last.append(rng.geometric(rate, block))
    lead, last = np.concatenate(lead)[:nsamples], np.concatenate(last)[:nsamples]
    parity = 0 if isinstance(s, Tail) else 1
    return int(np.count_nonzero((lead + last <= horizon) & (last % 2 == parity)))
