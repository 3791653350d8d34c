from fractions import Fraction

import numpy as np
import pytest

from oracles.finite_chain import (
    FiniteChain,
    expected_visits,
    first_return_probability,
    green_partial_sums,
    hit_probability,
    random_chain,
    verify_equivalences,
    visits_at_least,
)

F = Fraction

THREE_CYCLE = FiniteChain.from_lists([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
STAY_PUT = FiniteChain.from_lists([[1, 0], [0, 1]])
HALF_ABSORBING = FiniteChain.from_lists([[F(1, 2), F(1, 2)], [0, 1]])
DOUBLY_STOCHASTIC = FiniteChain.from_lists(
    [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 4), F(1, 2), F(1, 4)], [F(1, 4), F(1, 4), F(1, 2)]]
)


class TestValidation:
    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            FiniteChain.from_lists([[F(1, 3), F(1, 3)], [0, 1]])
        with pytest.raises(ValueError):
            FiniteChain.from_lists([[F(1, 2), F(1, 2)], [0, 1], [1, 0]])


class TestGreenPartialSums:
    def test_three_cycle(self):
        sums = green_partial_sums(THREE_CYCLE, 0, 0, 9)
        # visits at n = 0, 3, 6, 9
        assert sums[9] == 4
        assert sums == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4]

    def test_stay_put(self):
        sums = green_partial_sums(STAY_PUT, 0, 0, 7)
        assert sums[7] == 8  # N + 1 visits counting time 0

    def test_geometric_limit(self):
        sums = green_partial_sums(HALF_ABSORBING, 0, 0, 60)
        assert sums[60] == 2 - F(1, 2**60)


class TestFirstPassage:
    def test_half_absorbing(self):
        assert first_return_probability(HALF_ABSORBING, 0, 0) == F(1, 2)
        assert expected_visits(HALF_ABSORBING, 0, 0) == 2

    def test_doubly_stochastic_certain_return(self):
        for y in range(3):
            assert first_return_probability(DOUBLY_STOCHASTIC, y, y) == 1

    def test_unreachable(self):
        chain = FiniteChain.from_lists([[1, 0], [F(1, 2), F(1, 2)]])
        assert first_return_probability(chain, 0, 1) == 0
        assert expected_visits(chain, 0, 1) == 0

    def test_hit_probability_counts_start(self):
        assert hit_probability(HALF_ABSORBING, 0, 0) == 1

    def test_infinite_expectation(self):
        assert expected_visits(THREE_CYCLE, 0, 0) == float("inf")
        assert expected_visits(DOUBLY_STOCHASTIC, 1, 2) == float("inf")


class TestVisitsAtLeast:
    def test_half_absorbing_tail(self):
        # P(G >= j) from 0 with G counting the start: 1, 1/2, 1/4, ...
        tail = visits_at_least(HALF_ABSORBING, 0, 0, 4)
        assert tail == [1, F(1, 2), F(1, 4), F(1, 8)]

    def test_from_other_state(self):
        # starting at the absorbing state, 0 is never visited
        tail = visits_at_least(HALF_ABSORBING, 1, 0, 3)
        assert tail == [0, 0, 0]


class TestVerifyEquivalences:
    def test_half_absorbing_report(self):
        rep = verify_equivalences(HALF_ABSORBING, 0, 0)
        assert rep.ok
        assert rep.p_return == F(1, 2)
        assert rep.expected == 2
        assert rep.mismatches == []

    def test_doubly_stochastic(self):
        rep = verify_equivalences(DOUBLY_STOCHASTIC, 0, 1)
        assert rep.ok
        assert rep.p_return == 1
        assert rep.expected == float("inf")

    def test_unreachable_target(self):
        chain = FiniteChain.from_lists([[1, 0], [F(1, 2), F(1, 2)]])
        rep = verify_equivalences(chain, 0, 1)
        assert rep.ok
        assert rep.p_reach == 0
        assert rep.expected == 0

    def test_randomized_suite(self):
        rng = np.random.Generator(np.random.Philox(key=2024))
        for _ in range(30):
            chain = random_chain(rng)
            z = int(rng.integers(chain.n))
            y = int(rng.integers(chain.n))
            rep = verify_equivalences(chain, z, y)
            assert rep.ok, (chain.rows, z, y, rep.mismatches, rep.extrapolation_gap)
            assert rep.product_tail == rep.direct_tail


class TestDivergenceRate:
    def test_doubly_stochastic_linear_growth(self):
        # uniform stationary law: S_N / N -> 1/n, so S_N >= N / (2n) eventually
        n_states = DOUBLY_STOCHASTIC.n
        sums = green_partial_sums(DOUBLY_STOCHASTIC, 0, 1, 240)
        assert sums[240] >= F(240, 2 * n_states)
        sums_cycle = green_partial_sums(THREE_CYCLE, 0, 0, 240)
        assert sums_cycle[240] >= F(240, 6)
