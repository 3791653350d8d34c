import pytest

from recwalk.rng import stream


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
