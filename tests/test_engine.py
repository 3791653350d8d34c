import math
import statistics
from fractions import Fraction

import numpy as np
import pytest

from oracles.engine import (
    SparseDist,
    empirical_distribution,
    iterate_push_forward,
    observe_returns,
    push_forward,
    sample_path,
    total_variation,
)
from oracles.spaces import (
    Generator,
    branched_apply,
    diagonal_apply,
    line_apply,
    uniform_diagonal,
    uniform_five,
)
from recwalk.branched_walk import Inlet, Lattice, Tail, wilson_interval

A, B, BINV, C, CINV = Generator.A, Generator.B, Generator.BINV, Generator.C, Generator.CINV


class TestPushForward:
    def test_one_step_from_lattice_origin(self):
        d = push_forward(SparseDist.point(Lattice(0, 0)), uniform_five(), branched_apply)
        fifth = Fraction(1, 5)
        assert d.entries == {
            Lattice(1, 1): fifth,
            Lattice(1, -1): fifth,
            Lattice(-1, 1): fifth,
            Lattice(-1, -1): fifth,
            Lattice(0, 2): fifth,
        }
        assert d.leaked == 0

    def test_one_step_from_deep_tail(self):
        d = push_forward(SparseDist.point(Tail(5)), uniform_five(), branched_apply)
        assert d.entries == {Tail(5): Fraction(4, 5), Tail(6): Fraction(1, 5)}

    def test_identity_action_is_noop(self):
        d = SparseDist({Tail(2): Fraction(1, 3), Inlet(-1): Fraction(2, 3)})
        out = push_forward(d, uniform_five(), lambda g, s: s)
        assert out.entries == d.entries

    def test_exact_mass_conservation(self):
        d = iterate_push_forward(
            SparseDist.point(Lattice(0, 0)), uniform_five(), branched_apply, 12
        )
        assert d.total() == 1
        assert d.is_exact()
        d.validate()

    def test_cutoff_mass_accounting(self):
        d = SparseDist.point(Lattice(0, 0))
        for _ in range(10):
            d = push_forward(d, uniform_five(), branched_apply, cutoff=1e-4)
        assert d.leaked > 0
        assert abs(float(d.total()) + d.leaked - 1.0) < 1e-12

    def test_validate_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            SparseDist({0: 0.5}, leaked=0.2).validate()


class TestSamplePath:
    def test_zero_horizon(self):
        t = sample_path(branched_apply, uniform_five(), Tail(0), 0, seed=1)
        assert list(t.states()) == [Tail(0)]

    def test_same_seed_identical(self):
        a = sample_path(diagonal_apply, uniform_diagonal(), (0, 0), 500, seed=9, stream_index=3)
        b = sample_path(diagonal_apply, uniform_diagonal(), (0, 0), 500, seed=9, stream_index=3)
        assert np.array_equal(a.steps, b.steps)
        assert list(a.states())[-1] == list(b.states())[-1]

    def test_different_stream_differs(self):
        a = sample_path(diagonal_apply, uniform_diagonal(), (0, 0), 200, seed=9, stream_index=0)
        b = sample_path(diagonal_apply, uniform_diagonal(), (0, 0), 200, seed=9, stream_index=1)
        assert not np.array_equal(a.steps, b.steps)

    def test_generator_frequencies(self):
        t = sample_path(branched_apply, uniform_five(), Tail(0), 1_000_000, seed=4)
        counts = np.bincount(t.steps, minlength=5)
        # 3 sigma around 1/5 at a million draws
        sigma = math.sqrt(0.2 * 0.8 / 1_000_000)
        for c in counts:
            assert abs(c / 1_000_000 - 0.2) < 3 * sigma

    def test_states_follow_steps(self):
        t = sample_path(branched_apply, uniform_five(), Inlet(-2), 50, seed=2)
        states = list(t.states())
        for g, before, after in zip(t.generator_steps(), states, states[1:]):
            assert branched_apply(g, before) == after


class TestObserveReturns:
    def test_alternating_trajectory(self):
        from oracles.engine import Trajectory

        t = Trajectory(
            start=0,
            steps=np.array([0, 1, 0, 1], dtype=np.uint8),
            generator_order=(B, BINV),
            apply=line_apply,
        )
        # states 0, 1, 0, 1, 0 -> scalar returns at times 2 and 4
        obs = observe_returns(t, scalar=lambda s: s, position=lambda s: s, max_returns=10)
        assert obs.return_times == [2, 4]
        assert obs.positions == [0, 0]
        assert obs.completed == 2

    def test_requires_zero_start(self):
        t = sample_path(diagonal_apply, uniform_diagonal(), (2, 2), 10, seed=1)
        with pytest.raises(ValueError):
            observe_returns(t, scalar=lambda p: p[1], position=lambda p: p[0], max_returns=1)

    def test_diagonal_return_times_are_even(self):
        for idx in range(20):
            t = sample_path(diagonal_apply, uniform_diagonal(), (0, 0), 400, seed=7, stream_index=idx)
            obs = observe_returns(t, scalar=lambda p: p[1], position=lambda p: p[0], max_returns=50)
            assert all(r % 2 == 0 for r in obs.return_times)
            # the tracked coordinate is 0 at every recorded time by construction
            assert obs.completed == len(obs.return_times)

    def test_first_return_at_two_frequency(self):
        # oracle: of the 4 equally likely two-step sign patterns of the
        # tracked coordinate, exactly 2 return at time 2
        hits = 0
        n = 30_000
        for idx in range(n):
            t = sample_path(diagonal_apply, uniform_diagonal(), (0, 0), 2, seed=13, stream_index=idx)
            obs = observe_returns(t, scalar=lambda p: p[1], position=lambda p: p[0], max_returns=1)
            hits += obs.return_times == [2]
        se = math.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) < 3 * se


class TestExactMonteCarloAgreement:
    @pytest.mark.parametrize(
        "apply,measure,start,n",
        [
            (branched_apply, uniform_five(), Lattice(0, 0), 5),
            (branched_apply, uniform_five(), Tail(-2), 6),
            (diagonal_apply, uniform_diagonal(), (0, 0), 6),
            (line_apply, uniform_diagonal(), 0, 7),
        ],
    )
    def test_total_variation(self, apply, measure, start, n):
        exact = iterate_push_forward(SparseDist.point(start), measure, apply, n)
        nsamples = 20_000
        emp = empirical_distribution(apply, measure, start, n, nsamples, seed=23)
        bound = 3 * math.sqrt(len(exact.entries) / nsamples)
        assert total_variation(exact.entries, emp) < bound


class TestWilson:
    def test_extremes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo > 0.95

    def test_single_sample_closed_form(self):
        # at n = 1 the interval is (0, z^2 / (1 + z^2)) or its mirror
        z = statistics.NormalDist().inv_cdf(0.975)
        lo, hi = wilson_interval(0, 1)
        assert lo == 0.0 and hi == pytest.approx(z * z / (1 + z * z), rel=1e-14)
        lo, hi = wilson_interval(1, 1)
        assert lo == pytest.approx(1 / (1 + z * z), rel=1e-14) and hi == 1.0

    def test_contains_phat(self):
        lo, hi = wilson_interval(37, 100)
        assert lo < 0.37 < hi

    def test_known_value(self):
        # half successes at n = 100: symmetric interval around 1/2
        lo, hi = wilson_interval(50, 100)
        assert abs((lo + hi) / 2 - 0.5) < 1e-12
        assert 0.09 < hi - lo < 0.21
