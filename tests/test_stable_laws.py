import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import recwalk.stable_laws as sl
from oracles.stable_laws import (
    dense_lll_error,
    lower_bound_check,
    one_shot_self_convolve,
    zero_mass_exact,
)
from recwalk.stable_laws import (
    LatticeLaw,
    cauchy_density,
    convolve_dists,
    lll_error,
    self_convolve,
)


def pm_one() -> LatticeLaw:
    return LatticeLaw(-1, np.array([0.5, 0.5]))


def sequential_fold(d: LatticeLaw, n: int) -> LatticeLaw:
    """Oracle for self_convolve: n - 1 direct convolutions with d."""
    out = d
    for _ in range(n - 1):
        out = convolve_dists(out, d)
    return out


@st.composite
def lattice_laws(draw) -> LatticeLaw:
    """A small law on 2Z whose entries plus leaked mass are one."""
    weights = draw(st.lists(st.floats(0, 1), min_size=1, max_size=40).filter(lambda w: sum(w) > 0))
    leaked = draw(st.floats(0, 0.5))
    entries = np.array(weights) / sum(weights) * (1.0 - leaked)
    return LatticeLaw(2 * draw(st.integers(-15, 15)), entries, leaked)


class TestDensities:
    def test_cauchy_values(self):
        assert abs(cauchy_density(0.0, 1.0) - 1 / math.pi) < 1e-15
        assert abs(cauchy_density(1.0, 1.0) - 1 / (2 * math.pi)) < 1e-15
        for s in (0.3, 1.7, 12.0):
            assert cauchy_density(s, 1.0) == cauchy_density(-s, 1.0)

    def test_normalization(self):
        for scale in (1.0, 1.7):
            val, _ = quad(cauchy_density, -np.inf, np.inf, args=(scale,), limit=400)
            assert abs(val - 1.0) < 1e-9


class TestSelfConvolve:
    def test_point_mass(self):
        out = self_convolve(LatticeLaw(0, np.array([1.0])), 17)
        assert (out.lo, out.entries.tolist()) == (0, [1.0])

    def test_hand_convolution(self):
        out = self_convolve(pm_one(), 2)
        assert (out.lo, out.entries.tolist()) == (-2, [0.25, 0.5, 0.25])

    def test_pm_one_fold_matches_binomial(self):
        # independent oracle: P(S_n = 2k - n) = C(n, k) / 2^n
        for n in (7, 64, 301):
            out = self_convolve(pm_one(), n)
            assert (out.lo, out.hi) == (-n, n)
            exact = [math.comb(n, k) / 2**n for k in range(n + 1)]
            assert np.max(np.abs(out.entries - exact)) < 1e-15

    def test_mass_accounting_with_leaked_input(self):
        d = LatticeLaw(-1, np.array([0.45, 0.45]), leaked=0.1)
        out = self_convolve(d, 64)
        assert abs(out.leaked - (1 - 0.9**64)) < 1e-12
        assert abs(out.entries.sum() + out.leaked - 1.0) < 1e-10

    def test_position_law_convolution_mass(self, pos_law_small):
        out = self_convolve(LatticeLaw.from_position_law(pos_law_small), 8)
        assert abs(out.entries.sum() + out.leaked - 1.0) < 1e-10

    def test_symmetric_input_symmetric_output(self, pos_law_small):
        out = self_convolve(LatticeLaw.from_position_law(pos_law_small), 8)
        assert out.lo == -out.hi
        for l in (0, 2, 100, 1000, 2500):
            assert out.prob(l) == out.prob(-l)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            self_convolve(pm_one(), 0)


class TestMassAccountingProperty:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_convolve_conserves_mass(self, data):
        a, b = data.draw(lattice_laws()), data.draw(lattice_laws())
        out = convolve_dists(a, b)
        assert out.lo == a.lo + b.lo
        assert abs(out.entries.sum() + out.leaked - 1.0) < 1e-12
        assert out.leaked >= a.leaked + b.leaked - a.leaked * b.leaked - 1e-15

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40))
    def test_self_convolve_conserves_mass(self, data, n):
        d = data.draw(lattice_laws())
        out = self_convolve(d, n)
        assert out.lo == n * d.lo
        assert abs(out.entries.sum() + out.leaked - 1.0) < 1e-12
        assert out.leaked >= 1.0 - (1.0 - d.leaked) ** n - 1e-12


def mirrored(d: LatticeLaw) -> LatticeLaw:
    """A symmetric law about 0 with d's entries on its right half and d's
    mass and leak."""
    entries = np.concatenate((d.entries[:0:-1], d.entries))
    entries *= (1.0 - d.leaked) / entries.sum()
    return LatticeLaw(-2 * (len(d.entries) - 1), entries, d.leaked)


class TestTransformPath:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 64), symmetric=st.booleans())
    def test_matches_sequential_fold(self, data, n, symmetric):
        d = data.draw(lattice_laws())
        if symmetric:
            d = mirrored(d)
        fold = sequential_fold(d, n)
        out = self_convolve(d, n)
        assert (out.lo, len(out.entries)) == (fold.lo, len(fold.entries))
        assert np.max(np.abs(out.entries - fold.entries)) < 1e-12
        assert abs(out.leaked - fold.leaked) < 1e-12
        assert np.all(out.entries >= 0.0)
        if symmetric:
            assert out.is_symmetric()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 80) | st.just(4096), symmetric=st.booleans())
    def test_bit_identical_to_one_shot(self, data, n, symmetric):
        # the in-place power and the half-length symmetrisation change no bit
        d = data.draw(lattice_laws())
        if symmetric:
            d = mirrored(d)
        out, want = self_convolve(d, n), one_shot_self_convolve(d, n)
        assert (out.lo, out.leaked) == (want.lo, want.leaked)
        assert np.array_equal(out.entries, want.entries)

    def test_position_law_bit_identical_to_one_shot(self, pos_law_small):
        base = LatticeLaw.from_position_law(pos_law_small)
        for n in (1, 2, 3, 64, 65):
            out, want = self_convolve(base, n), one_shot_self_convolve(base, n)
            assert out.leaked == want.leaked, n
            assert np.array_equal(out.entries, want.entries), n

    def test_large_law_takes_one_transform(self, pos_law_small, monkeypatch):
        base = LatticeLaw.from_position_law(pos_law_small)
        monkeypatch.setattr(sl, "convolve_dists", None)  # must not be called
        out = self_convolve(base, 64)
        assert (out.lo, len(out.entries)) == (64 * base.lo, 64 * (len(base.entries) - 1) + 1)
        assert out.is_symmetric()
        assert abs(out.entries.sum() + out.leaked - 1.0) < 1e-12

    def test_transform_length(self):
        assert sl.transform_length(1, 7) == 1
        assert sl.transform_length(2001, 8) == 1 << 14  # 16001 points
        assert sl.transform_length(2001, 4096) == 1 << 23
        assert sl.transform_length(5, 4) == 32  # 17 points


@st.composite
def lll_cases(draw):
    """(law, scale, n) on the even lattice: Cauchy scales from 0.05 to 100,
    the law's mass anywhere from 1e-6 (narrower and lower than the target,
    so the sup sits off the support) to 30."""
    n = draw(st.integers(1, 64))
    scale = draw(st.sampled_from([0.05, 0.3, 1.0, 3.0, 100.0]))
    weights = np.array(draw(st.lists(st.floats(0, 1), min_size=1, max_size=30)))
    lo = 2 * draw(st.integers(-40, 40))
    law = LatticeLaw(lo, weights * 10 ** draw(st.floats(-6, 0)), draw(st.floats(0, 0.5)))
    return law, scale, n


class TestLLTError:
    @settings(max_examples=150, deadline=None)
    @given(case=lll_cases())
    def test_matches_dense_oracle(self, case):
        assert lll_error(*case) == dense_lll_error(*case)

    @settings(max_examples=100, deadline=None)
    @given(case=lll_cases(), block=st.integers(1, 12))
    def test_blocked_support_matches_dense_oracle(self, case, block):
        # blocks of a few points, so that the sup and its ties cross blocks
        with mock.patch.object(sl, "_SUPPORT_BLOCK", block):
            assert lll_error(*case) == dense_lll_error(*case)

    def test_tie_across_blocks_takes_first_point(self):
        # equal errors n/2 P - g at -2 and 2, in different blocks of one point each
        law = LatticeLaw(-2, np.array([0.25, 0.0, 0.25]))
        with mock.patch.object(sl, "_SUPPORT_BLOCK", 1):
            rep = lll_error(law, 100.0, 1)
        assert rep == dense_lll_error(law, 100.0, 1)
        assert (rep.sup_error, rep.argmax_point) == (0.125 - cauchy_density(2.0, 100.0), -2)

    @staticmethod
    def matched_law(lo: int, hi: int) -> LatticeLaw:
        """A law with n/2 P = g exactly on [lo, hi], at n = 4 and scale 3."""
        pts = np.arange(lo, hi + 1, 2)
        return LatticeLaw(lo, 2 / 4 * cauchy_density(pts / 4, 3.0))

    def test_off_support_sup_takes_first_point(self):
        # on [-40, 40] the error is 0, so the sup is g off the support, at
        # -42 and 42 alike: the first of the two points
        law = self.matched_law(-40, 40)
        rep = lll_error(law, 3.0, 4)
        assert rep == dense_lll_error(law, 3.0, 4)
        assert (rep.argmax_point, rep.sup_error) == (-42, cauchy_density(10.5, 3.0))

    def test_off_support_sup_next_to_support(self):
        # the law matches n/2 P = g on [-40, 10], so the sup is g at the
        # outside point nearest 0: 12, not the far end -42
        law = self.matched_law(-40, 10)
        rep = lll_error(law, 3.0, 4)
        assert rep == dense_lll_error(law, 3.0, 4)
        assert rep.argmax_point == 12

    def test_position_family_monotone(self, pos_law_small):
        # the 400-wide window supports the trend up to n = 16; beyond that
        # the window-conditioning bias (~ n * window tail mass) takes over,
        # so the full 8..64 doubling ladder runs on the 2000-wide law in
        # the acceptance suite
        base = LatticeLaw.from_position_law(pos_law_small)
        errs = []
        for n in (4, 8, 16):
            dn = self_convolve(base, n)
            errs.append(lll_error(dn, 1.0, n).sup_error)
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.05

    def test_off_lattice_support_rejected(self):
        with pytest.raises(ValueError, match="support does not lie on the stated lattice"):
            lll_error(LatticeLaw(1, np.array([0.5, 0.5])), 1.0, 1)


class TestLowerBound:
    def test_position_family_band(self, pos_law_small):
        base = LatticeLaw.from_position_law(pos_law_small)
        dns = {n: self_convolve(base, n) for n in (16, 32, 64)}
        rep = lower_bound_check(dns, 0.5, 16)
        assert rep.passed
        for n, v in rep.values.items():
            assert 0.55 <= v <= 0.72, (n, v)

    def test_too_large_constant_fails(self, pos_law_small):
        base = LatticeLaw.from_position_law(pos_law_small)
        dns = {n: self_convolve(base, n) for n in (16, 32, 64)}
        assert not lower_bound_check(dns, 1.0, 16).passed

    def test_threshold_filters(self, pos_law_small):
        base = LatticeLaw.from_position_law(pos_law_small)
        dns = {n: self_convolve(base, n) for n in (4, 16)}
        rep = lower_bound_check(dns, 0.58, 16)
        assert rep.passed  # n = 4 sits below the threshold and is not tested
        assert 4 in rep.values


class TestZeroMassExact:
    """P(Z_n = 0) for the untruncated law nu, from the exact form a_n + b_n / pi."""

    @pytest.mark.parametrize("n", [4, 7, 8, 64, 256, 512])
    def test_matches_quadrature_and_bracket(self, n):
        exact = zero_mass_exact(n)
        with mpmath.workdps(30):
            # u = sin theta turns the mean of (1 - |sin theta|)^n into this integral
            quad_value = 2 / mpmath.pi * mpmath.quad(
                lambda u: (1 - u) ** (n - 0.5) * (1 + u) ** -0.5, [0, mpmath.mpf(1) / n, 1]
            )
            assert abs(exact - quad_value) < 1e-25 * exact
            # Taylor bounds on (1 + u)^(-1/2) bracket n P(Z_n = 0)
            lower = n / mpmath.pi * (1 / (n + 0.5) + 1 / (n + 1.5))
            upper = lower + n / mpmath.pi * 3 / (2 * (n + 0.5) * (n + 1.5) * (n + 2.5))
            assert lower <= n * exact <= upper

    @pytest.mark.parametrize("n, want", [
        (8, 0.571369317823), (64, 0.626967646917), (512, 0.635381198516),
    ])
    def test_known_values(self, n, want):
        assert abs(float(n * zero_mass_exact(n)) - want) < 1e-12
