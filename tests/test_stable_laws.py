import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import recwalk.stable_laws as sl
from recwalk.stable_laws import (
    LatticeLaw,
    LLTError,
    StableTarget,
    _density_range,
    cauchy_density,
    convolve_dists,
    gaussian_density,
    lll_error,
    lower_bound_check,
    self_convolve,
)


def pm_one() -> LatticeLaw:
    return LatticeLaw(-1, 2, np.array([0.5, 0.5]))


def dense_lll_error(dn: LatticeLaw, target: StableTarget, n: int, floor: float = 1e-9) -> LLTError:
    """Oracle for lll_error: the error on every lattice point from the
    support out to where the density drops below the floor, with
    probability zero off the support, and the first point on ties."""
    h, a = target.span, target.offset
    bn = target.norming(n)
    base = a * n
    support = dn.lo + dn.span * np.arange(len(dn.entries), dtype=np.int64)
    assert not np.any((support - base) % h)
    s_floor = _density_range(target.density, floor)
    lo = min(dn.lo, base + h * math.floor((s_floor[0] * bn) / h))
    hi = max(dn.hi, base + h * math.ceil((s_floor[1] * bn) / h))
    pts = np.arange(lo, hi + 1, h, dtype=np.int64)
    probs = np.zeros(len(pts))
    probs[(support - lo) // h] = dn.entries
    err = np.abs(bn / h * probs - target.density(pts / bn))
    i = int(np.argmax(err))
    sup = float(err[i])
    return LLTError(n, sup, int(pts[i]), dn.prob(0), dn.leaked * bn / h > 0.1 * sup)


@contextmanager
def transform_path():
    """Send every self-convolution through the transform."""
    old = sl._FFT_LIMIT
    sl._FFT_LIMIT = 1
    try:
        yield
    finally:
        sl._FFT_LIMIT = old


@st.composite
def lattice_laws(draw, span: int) -> LatticeLaw:
    """A small law on the given span whose entries plus leaked mass are one."""
    weights = draw(st.lists(st.floats(0, 1), min_size=1, max_size=40).filter(lambda w: sum(w) > 0))
    leaked = draw(st.floats(0, 0.5))
    entries = np.array(weights) / sum(weights) * (1.0 - leaked)
    return LatticeLaw(draw(st.integers(-30, 30)), span, entries, leaked)


class TestDensities:
    def test_cauchy_values(self):
        assert abs(cauchy_density(0.0) - 1 / math.pi) < 1e-15
        assert abs(cauchy_density(1.0) - 1 / (2 * math.pi)) < 1e-15
        for s in (0.3, 1.7, 12.0):
            assert cauchy_density(s) == cauchy_density(-s)

    def test_normalization(self):
        targets = (StableTarget.cauchy(), StableTarget.cauchy(scale=1.7), StableTarget.gaussian())
        for target in targets:
            val, _ = quad(target.density, -np.inf, np.inf, limit=400)
            assert abs(val - 1.0) < 1e-9

    def test_gaussian_value(self):
        assert abs(gaussian_density(0.0) - 1 / math.sqrt(2 * math.pi)) < 1e-15


class TestSelfConvolve:
    def test_point_mass(self):
        out = self_convolve(LatticeLaw(0, 1, np.array([1.0])), 17)
        assert (out.lo, out.entries.tolist()) == (0, [1.0])

    def test_hand_convolution(self):
        out = self_convolve(pm_one(), 2)
        assert (out.lo, out.span, out.entries.tolist()) == (-2, 2, [0.25, 0.5, 0.25])

    def test_pm_one_fold_matches_binomial(self):
        # independent oracle: P(S_n = 2k - n) = C(n, k) / 2^n
        for n in (7, 64, 301):
            out = self_convolve(pm_one(), n)
            assert (out.lo, out.hi) == (-n, n)
            exact = [math.comb(n, k) / 2**n for k in range(n + 1)]
            assert np.max(np.abs(out.entries - exact)) < 1e-15

    def test_binary_exponentiation_matches_sequential_fold(self):
        # dyadic weights keep every partial sum exact in float64
        d = LatticeLaw(-1, 1, np.array([0.25, 0.25, 0.0, 0.5]))
        fold = d
        for _ in range(6):
            fold = convolve_dists(fold, d)
        out = self_convolve(d, 7)
        assert out.lo == fold.lo == -7
        assert np.array_equal(out.entries, fold.entries)

    def test_mass_accounting_with_leaked_input(self):
        d = LatticeLaw(-1, 2, np.array([0.45, 0.45]), leaked=0.1)
        out = self_convolve(d, 64)
        assert abs(out.leaked - (1 - 0.9**64)) < 1e-12
        assert abs(out.entries.sum() + out.leaked - 1.0) < 1e-10

    def test_mismatched_spans_rejected(self):
        with pytest.raises(ValueError, match="spans"):
            convolve_dists(pm_one(), LatticeLaw(0, 1, np.array([0.5, 0.5])))

    def test_position_law_convolution_mass(self, pos_law_small):
        out = self_convolve(LatticeLaw.from_position_law(pos_law_small), 8)
        assert abs(out.entries.sum() + out.leaked - 1.0) < 1e-10

    def test_symmetric_input_symmetric_output(self, pos_law_small):
        out = self_convolve(LatticeLaw.from_position_law(pos_law_small), 8)
        assert out.lo == -out.hi
        for l in (0, 2, 100, 1000, 2500):
            assert out.prob(l) == out.prob(-l)

    def test_fft_matches_direct(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        vals = rng.random(1200)
        vals /= vals.sum()
        a = LatticeLaw(-1200, 2, vals)
        direct = np.convolve(vals, vals)
        import recwalk.stable_laws as sl

        old = sl._FFT_LIMIT
        sl._FFT_LIMIT = 1  # force the transform path
        try:
            fft_out = convolve_dists(a, a)
        finally:
            sl._FFT_LIMIT = old
        assert fft_out.lo == -2400
        assert np.max(np.abs(fft_out.entries - direct)) < 1e-12

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            self_convolve(pm_one(), 0)


class TestMassAccountingProperty:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), span=st.sampled_from([1, 2, 3]), fft=st.booleans())
    def test_convolve_conserves_mass(self, data, span, fft):
        import recwalk.stable_laws as sl

        a, b = data.draw(lattice_laws(span)), data.draw(lattice_laws(span))
        old = sl._FFT_LIMIT
        sl._FFT_LIMIT = 1 if fft else old
        try:
            out = convolve_dists(a, b)
        finally:
            sl._FFT_LIMIT = old
        assert (out.lo, out.span) == (a.lo + b.lo, span)
        assert abs(out.entries.sum() + out.leaked - 1.0) < 1e-12
        assert out.leaked >= a.leaked + b.leaked - a.leaked * b.leaked - 1e-15

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), span=st.sampled_from([1, 2, 3]), n=st.integers(1, 40))
    def test_self_convolve_conserves_mass(self, data, span, n):
        d = data.draw(lattice_laws(span))
        out = self_convolve(d, n)
        assert out.lo == n * d.lo
        assert abs(out.entries.sum() + out.leaked - 1.0) < 1e-12
        assert out.leaked >= 1.0 - (1.0 - d.leaked) ** n - 1e-12


def mirrored(d: LatticeLaw) -> LatticeLaw:
    """A symmetric law about 0 with d's entries on its right half and d's
    mass and leak."""
    entries = np.concatenate((d.entries[:0:-1], d.entries))
    entries *= (1.0 - d.leaked) / entries.sum()
    return LatticeLaw(-d.span * (len(d.entries) - 1), d.span, entries, d.leaked)


class TestTransformPath:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(), span=st.sampled_from([1, 2, 3]), n=st.integers(1, 64),
        symmetric=st.booleans(),
    )
    def test_matches_binary_exponentiation(self, data, span, n, symmetric):
        d = data.draw(lattice_laws(span))
        if symmetric:
            d = mirrored(d)
        chain = self_convolve(d, n)  # direct kernel at these sizes
        with transform_path():
            out = self_convolve(d, n)
        assert (out.lo, out.span, len(out.entries)) == (chain.lo, span, len(chain.entries))
        assert np.max(np.abs(out.entries - chain.entries)) < 1e-12
        assert abs(out.leaked - chain.leaked) < 1e-12
        assert np.all(out.entries >= 0.0)
        if symmetric:
            assert out.is_symmetric()

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
    """(law, target, n) on the target's lattice: Cauchy targets at several
    scales or the Gaussian at offset 1, the law's span one or two lattice
    steps, its mass anywhere from 1e-6 (narrower and lower than the target,
    so the sup sits off the support) to 30."""
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        target = StableTarget.cauchy(scale=draw(st.sampled_from([0.05, 0.3, 1.0, 3.0])))
    else:
        target = StableTarget.gaussian()
    weights = np.array(draw(st.lists(st.floats(0, 1), min_size=1, max_size=30)))
    lo = target.offset * n + target.span * draw(st.integers(-40, 40))
    span = target.span * draw(st.sampled_from([1, 2]))
    law = LatticeLaw(lo, span, weights * 10 ** draw(st.floats(-6, 0)), draw(st.floats(0, 0.5)))
    return law, target, n


class TestLLTError:
    @settings(max_examples=150, deadline=None)
    @given(case=lll_cases())
    def test_matches_dense_oracle(self, case):
        law, target, n = case
        assert lll_error(law, target, n) == dense_lll_error(law, target, n)

    def test_off_support_sup_takes_first_point(self):
        # P = 0 at -1 and 1, where the Gaussian density is largest: the sup
        # is g(1) off the support, at the first of the two points
        law = LatticeLaw(5, 2, np.array([1e-6, 1e-6]))
        target = StableTarget.gaussian()
        rep = lll_error(law, target, 1)
        assert rep == dense_lll_error(law, target, 1)
        assert (rep.argmax_point, rep.sup_error) == (-1, float(gaussian_density(np.array(1.0))))

    def test_off_support_sup_next_to_support(self):
        # the law matches B_n/h P = g on [-40, 10], so the sup is g at the
        # outside point nearest the mode: 12, not the far end -42
        pts = np.arange(-40, 11, 2)
        law = LatticeLaw(-40, 2, 2 / 4 * cauchy_density(pts / 4, 3.0))
        target = StableTarget.cauchy(scale=3.0)
        rep = lll_error(law, target, 4)
        assert rep == dense_lll_error(law, target, 4)
        assert rep.argmax_point == 12

    def test_binomial_family_monotone(self):
        target = StableTarget.gaussian(span=2, offset=1)
        errs = []
        for n in (25, 100, 400):
            dn = self_convolve(pm_one(), n)
            errs.append(lll_error(dn, target, n).sup_error)
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.01

    def test_position_family_monotone(self, pos_law_small):
        # the 400-wide window supports the trend up to n = 16; beyond that
        # the window-conditioning bias (~ n * window tail mass) takes over,
        # so the full 8..64 doubling ladder runs on the 2000-wide law in
        # the acceptance suite
        base = LatticeLaw.from_position_law(pos_law_small)
        target = StableTarget.cauchy(scale=1.0)
        errs = []
        for n in (4, 8, 16):
            dn = self_convolve(base, n)
            errs.append(lll_error(dn, target, n).sup_error)
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.05

    def test_self_target_is_exact(self):
        # n = 1 against the law itself re-expressed as the target density
        d = LatticeLaw(-2, 2, np.array([0.25, 0.5, 0.25]))

        def g(s):  # B_1 = 1, h = 2: g(s) = (1/2) P(Z = s)
            return np.select([s == -2.0, s == 0.0, s == 2.0], [0.125, 0.25, 0.125], 0.0)

        target = StableTarget(g, span=2, offset=0, norming=lambda n: 1.0)
        rep = lll_error(d, target, 1)
        assert rep.sup_error == 0.0

    def test_off_lattice_support_rejected(self):
        d = LatticeLaw(1, 1, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            lll_error(d, StableTarget.cauchy(), 1)

    def test_truncation_warning(self):
        d = LatticeLaw(-2, 2, np.array([0.1, 0.6, 0.2]), leaked=0.1)
        rep = lll_error(d, StableTarget.cauchy(), 1)
        assert rep.truncation_warning


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
