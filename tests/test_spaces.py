import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.spaces import (
    Generator,
    StepMeasure,
    ball,
    branched_apply,
    diagonal_apply,
    line_apply,
    uniform_diagonal,
    uniform_five,
)
from recwalk.branched_walk import Inlet, Lattice, Tail, standard_points

A, B, BINV, C, CINV = Generator.A, Generator.B, Generator.BINV, Generator.C, Generator.CINV
INVERTIBLE = (B, BINV, C, CINV)

lattice_points = st.builds(
    lambda i, j: Lattice(i, j + (i + j) % 2), st.integers(-50, 50), st.integers(-50, 50)
)
ray_points = st.builds(Tail, st.integers(-50, 50)) | st.builds(Inlet, st.integers(-50, 0))
states = lattice_points | ray_points
words = st.lists(st.sampled_from(list(Generator)), max_size=30)


class TestBranchedAction:
    def test_inlet_junction_jumps_to_lattice_origin(self):
        assert branched_apply(A, Inlet(0)) == Lattice(0, 0)

    def test_junction_swap(self):
        assert branched_apply(B, Tail(0)) == Inlet(0)
        for g in (B, BINV, C, CINV):
            assert branched_apply(g, Tail(0)) == Inlet(0)
            assert branched_apply(g, Inlet(0)) == Tail(0)

    def test_lattice_diagonals(self):
        assert branched_apply(B, Lattice(2, 0)) == Lattice(3, 1)
        assert branched_apply(C, Lattice(2, 0)) == Lattice(3, -1)
        assert branched_apply(BINV, Lattice(3, 1)) == Lattice(2, 0)
        assert branched_apply(CINV, Lattice(3, -1)) == Lattice(2, 0)

    def test_half_axis_translation(self):
        assert branched_apply(A, Lattice(2, 0)) == Lattice(2, 0)
        assert branched_apply(A, Lattice(0, 2)) == Lattice(0, 4)
        assert branched_apply(A, Lattice(0, 0)) == Lattice(0, 2)
        # only the j >= 0 half of the i = 0 axis is translated
        assert branched_apply(A, Lattice(0, -2)) == Lattice(0, -2)

    def test_rays(self):
        assert branched_apply(A, Tail(-2)) == Tail(-1)
        assert branched_apply(A, Tail(5)) == Tail(6)
        assert branched_apply(A, Inlet(-1)) == Inlet(0)
        assert branched_apply(B, Tail(5)) == Tail(5)
        assert branched_apply(CINV, Inlet(-3)) == Inlet(-3)

    def test_inverse_pairs_on_ball(self):
        # b/b~ and c/c~ invert each other away from the junction swap states
        reachable = ball(branched_apply, Lattice(0, 0), 10)
        reachable.update(ball(branched_apply, Inlet(-4), 10))
        for s in reachable:
            if s in (Tail(0), Inlet(0)):
                continue
            for g in (B, C):
                assert branched_apply(g.inverse(), branched_apply(g, s)) == s
                assert branched_apply(g, branched_apply(g.inverse(), s)) == s

    def test_junction_swap_is_an_involution(self):
        # the swap pair is consistent with b/b~ both mapping either way
        assert branched_apply(BINV, branched_apply(B, Tail(0))) == Tail(0)

    def test_parity_preserved_on_lattice(self):
        states = [s for s in ball(branched_apply, Lattice(0, 0), 8) if isinstance(s, Lattice)]
        assert states
        for s in states:
            assert (s.i + s.j) % 2 == 0

    def test_lattice_never_left(self):
        for s in ball(branched_apply, Lattice(0, 0), 8):
            assert isinstance(s, Lattice)

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError):
            Lattice(1, 0)
        with pytest.raises(ValueError):
            Inlet(1)
        with pytest.raises(TypeError):
            branched_apply(B, "not-a-state")

    def test_determinism(self):
        s = Lattice(4, -2)
        assert branched_apply(C, s) == branched_apply(C, s)


class TestGeneratorActionProperties:
    """The branched action of the five generators, over random points and
    words."""

    @settings(max_examples=200, deadline=None)
    @given(start=lattice_points, word=words)
    def test_parity_preserved(self, start, word):
        s, p = start, (start.i, start.j)
        for g in word:
            s = branched_apply(g, s)
            assert isinstance(s, Lattice) and (s.i + s.j) % 2 == 0
            if g is not A:
                p = diagonal_apply(g, p)
                assert (p[0] + p[1]) % 2 == 0

    @settings(max_examples=200, deadline=None)
    @given(g=st.sampled_from(INVERTIBLE), s=ray_points)
    def test_invertible_generators_swap_the_junctions(self, g, s):
        swapped = {Tail(0): Inlet(0), Inlet(0): Tail(0)}
        assert branched_apply(g, s) == swapped.get(s, s)

    @settings(max_examples=200, deadline=None)
    @given(g=st.sampled_from(INVERTIBLE), s=states)
    def test_inverse_undoes(self, g, s):
        assert branched_apply(g.inverse(), branched_apply(g, s)) == s
        assert branched_apply(g, branched_apply(g.inverse(), s)) == s

    @settings(max_examples=50, deadline=None)
    @given(start=states, radius=st.integers(0, 6))
    def test_a_is_injective_on_a_ball(self, start, radius):
        points = ball(branched_apply, start, radius)
        assert len({branched_apply(A, s) for s in points}) == len(points)

    @settings(max_examples=200, deadline=None)
    @given(s=states)
    def test_step_law_never_undoes_a(self, s):
        # a has no inverse here, and no step of the five-generator law
        # leads back from a point that a moved
        law = uniform_five()
        assert set(law.generators()) == set(Generator)
        with pytest.raises(ValueError):
            A.inverse()
        moved = branched_apply(A, s)
        if moved != s:
            assert all(branched_apply(g, moved) != s for g in law.generators())


class TestDiagonalAndLine:
    def test_diagonal_examples(self):
        assert diagonal_apply(B, (0, 0)) == (1, 1)
        assert diagonal_apply(CINV, (1, 1)) == (0, 2)

    def test_four_generators_compose_to_identity(self):
        for order in itertools.permutations((B, BINV, C, CINV)):
            p = (0, 0)
            for g in order:
                p = diagonal_apply(g, p)
            assert p == (0, 0)

    def test_rejects_a_and_odd_parity(self):
        with pytest.raises(ValueError):
            diagonal_apply(A, (0, 0))
        with pytest.raises(ValueError):
            diagonal_apply(B, (1, 0))

    def test_line(self):
        assert line_apply(B, 3) == 4
        assert line_apply(CINV, 3) == 2
        with pytest.raises(ValueError):
            line_apply(A, 0)


class TestReachability:
    def test_ball_radius_counts(self):
        # by hand: radius 1 around the lattice origin = 4 diagonal neighbours
        # plus the half-axis translate
        d1 = ball(branched_apply, Lattice(0, 0), 1)
        assert set(d1) == {
            Lattice(0, 0), Lattice(1, 1), Lattice(1, -1), Lattice(-1, 1),
            Lattice(-1, -1), Lattice(0, 2),
        }

    def test_tail_reaches_junction_in_exactly_d_steps(self):
        for d in (1, 3, 5):
            dist = ball(branched_apply, Tail(-d), d)
            assert dist[Tail(0)] == d

    def test_directional_transitivity_witness(self):
        # from a left inlet point every pictured region is reachable ...
        dist = ball(branched_apply, Inlet(-2), 8)
        for target in (Inlet(0), Tail(0), Tail(1), Lattice(0, 0), Lattice(1, 1)):
            assert target in dist
        # ... but the lattice is absorbing: nothing off it is reachable
        assert all(isinstance(s, Lattice) for s in ball(branched_apply, Lattice(0, 0), 6))


class TestStepMeasure:
    def test_uniform_five(self):
        m = uniform_five()
        assert sum(w for _, w in m.support) == 1
        assert m.weight(A) == Fraction(1, 5)

    def test_uniform_diagonal_excludes_a(self):
        m = uniform_diagonal()
        assert m.weight(A) == 0
        assert m.weight(B) == Fraction(1, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepMeasure(((A, Fraction(1, 2)),))
        with pytest.raises(ValueError):
            StepMeasure(((A, Fraction(0)), (B, Fraction(1))))
        with pytest.raises(ValueError):
            StepMeasure(((A, Fraction(1, 2)), (A, Fraction(1, 2))))


class TestIdsAndOrdering:
    def test_standard_points(self):
        pts = standard_points()
        assert set(pts) == {
            "lattice(0,0)", "tail(1)", "tail(0)", "inlet(0)", "tail(-3)", "inlet(-3)",
        }
