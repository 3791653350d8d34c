import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import samplers as one_shot
from recwalk.rng import PhiloxKey, stream


class TestStreamKeys:
    @pytest.mark.parametrize("seed, lane", [(1, 255), (1, 128), (2**63 + 1, 1)])
    def test_neighbouring_keys_differ(self, seed, lane):
        # keys at or above 2**63 must not be rounded together
        top = stream(seed, 2**56 - 1, lane).random(4)
        assert (top != stream(seed, 2**56 - 2, lane).random(4)).all()
        assert (top != stream(seed - 1, 2**56 - 1, lane).random(4)).all()
        assert (top != stream(seed, 2**56 - 1, lane - 1).random(4)).all()

    @pytest.mark.parametrize("index, lane", [(2**56, 0), (-1, 0), (0, 256), (0, -1)])
    def test_out_of_range_key_rejected(self, index, lane):
        with pytest.raises(ValueError, match="out of range"):
            stream(1, index, lane)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_out_of_range_seed_rejected(self, seed):
        # a masked seed would alias: -1 with 2**64 - 1, 2**64 with 0
        with pytest.raises(ValueError, match="out of range"):
            stream(seed)

    def test_seed_range_ends_accepted(self):
        assert (stream(0).random(4) != stream(2**64 - 1).random(4)).all()


class TestKeyOnlyStreams:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1) | st.integers(2**63, 2**64 - 1),
        index=st.integers(0, 2**56 - 1),
        lane=st.integers(0, 255),
    )
    def test_same_stream_as_philox_key(self, seed, index, lane):
        got, want = stream(seed, index, lane), one_shot.stream(seed, index, lane)
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert np.array_equal(got.bit_generator.random_raw(9), want.bit_generator.random_raw(9))
        assert np.array_equal(got.random(5), want.random(5))

    def test_key_is_two_words_only(self):
        key = PhiloxKey(np.array([1, 2], dtype=np.uint64))
        assert key.generate_state(2, np.uint64).tolist() == [1, 2]
        for n_words, dtype in ((4, np.uint32), (2, np.uint32), (3, np.uint64)):
            with pytest.raises(ValueError, match="two 64-bit words"):
                key.generate_state(n_words, dtype)
