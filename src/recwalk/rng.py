"""Deterministic counter-based random streams.

Every Monte Carlo routine draws from a Philox stream keyed by
(seed, lane, index), the index being a sample index or the index of a
fixed-size block of them.  Sample i always sees the same draws no
matter how the work is scheduled, so serial and parallel runs — and
reruns — produce bit-identical results.
"""

from __future__ import annotations

import sys

import numpy as np

# numpy.random imports `secrets`, for SeedSequence's entropy, and through it
# `hmac`, which loads OpenSSL's `_hashlib` (3.4 MB resident).  Nothing here
# hashes or reads entropy, so unless `_hashlib` is loaded already it is
# masked for this one import: `hashlib` and `hmac` fall back on their
# builtin digests, and a later `import _hashlib` still loads it.
_masked = "_hashlib" not in sys.modules
if _masked:
    sys.modules["_hashlib"] = None
try:
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence
finally:
    if _masked:
        del sys.modules["_hashlib"]

_INDEX_LIMIT = 1 << 56

# Lanes separate logically independent draws made for the same sample index.
WALK_LANE = 0
SHIFT_LANE = 1
RETURN_LANE = 2
DIRECT_LANE = 3  # the direct Green walk, apart from the auxiliary draws it is compared with
POSITION_LANE = 4  # the auxiliary Green walk's positions, apart from classify's WALK_LANE


def stream(seed: int, index: int = 0, lane: int = 0) -> Generator:
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
    return Generator(Philox(PhiloxKey(np.array([seed, (lane << 56) | index], dtype=np.uint64))))


class PhiloxKey(ISeedSequence):
    """A seed sequence that hands Philox its 128-bit key as it is.

    Philox reads its key from `generate_state(2, np.uint64)`, the same two
    words that `Philox(key=...)` would set, with a zero counter either way.
    Passing `key=` instead makes Philox build an unused `SeedSequence()`
    first, which reads OS entropy on every stream.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return self.key
