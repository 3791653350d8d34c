import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, polygamma

from recwalk.return_laws import (
    _inverse_square_tail,
    _u_float,
    first_return_law,
    first_return_prob_exact,
    fit_tail_exponent,
    return_position_law,
    sample_first_return,
    sample_position_at,
    survival,
    tail_functional,
    tail_limit,
)
from recwalk.rng import stream


def enumerate_first_returns(nmax: int) -> dict[int, Fraction]:
    """Brute-force oracle: walk every sign path of length nmax and record
    the first time its prefix sums return to zero."""
    n = nmax
    bits = np.arange(1 << n, dtype=np.uint32)
    steps = np.where((bits[:, None] >> np.arange(n)) & 1, 1, -1)
    prefix = np.cumsum(steps, axis=1)
    first_zero = np.full(len(bits), -1)
    for t in range(n - 1, -1, -1):
        first_zero = np.where(prefix[:, t] == 0, t + 1, first_zero)
    counts = {}
    for t in range(2, n + 1, 2):
        counts[t] = Fraction(int((first_zero == t).sum()), 1 << n)
    return counts


# closed forms for the return-position law, derived via the elementary
# Fourier series of 1 - |sin|; independent of the summation under test
def closed_form(l: int) -> float:
    l = abs(l)
    if l % 2:
        return 0.0
    if l == 0:
        return 1 - 2 / math.pi
    return 2 / (math.pi * (l * l - 1))


class TestFirstReturnLaw:
    def test_matches_exhaustive_enumeration_up_to_16(self):
        oracle = enumerate_first_returns(16)
        law = first_return_law(16)
        for n in range(2, 17, 2):
            assert law.prob(n) == oracle[n], n

    def test_headline_values(self):
        law = first_return_law(8)
        assert law.prob(2) == Fraction(1, 2)
        assert law.prob(4) == Fraction(1, 8)
        assert law.prob(3) == 0

    def test_mass_identity(self, return_law_2000):
        ns, ps = return_law_2000.arrays()
        assert abs(ps.sum() + return_law_2000.tail_mass - 1.0) < 1e-12

    def test_tail_mass_is_survival(self, return_law_2000):
        assert abs(return_law_2000.tail_mass - survival(2000)) < 1e-14

    def test_rational_float_boundary(self, return_law_2000):
        assert isinstance(return_law_2000.prob(64), Fraction)
        assert isinstance(return_law_2000.prob(66), float)
        assert abs(return_law_2000.prob(66) - float(first_return_prob_exact(66))) < 1e-18

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            first_return_law(3)
        with pytest.raises(ValueError):
            first_return_law(0)


class TestTailExponentFit:
    def test_slope_and_prefactor(self, return_law_2000):
        fit = fit_tail_exponent(return_law_2000, 100, 1000)
        assert -1.55 <= fit.slope <= -1.45
        assert abs(fit.prefactor - 0.798) <= 0.02

    def test_planted_exponent_recovered(self):
        law = first_return_law(2000)
        planted = {n: n**-1.5 for n in range(2, 2001, 2)}
        z = sum(planted.values())
        law.probs = {n: p / z for n, p in planted.items()}
        fit = fit_tail_exponent(law, 100, 1000)
        assert abs(fit.slope + 1.5) < 1e-6

    def test_too_few_points(self, return_law_2000):
        with pytest.raises(ValueError):
            fit_tail_exponent(return_law_2000, 100, 112)


class TestReturnPositionLaw:
    def test_symmetry_and_parity(self, pos_law_small):
        assert pos_law_small.prob(10) == pos_law_small.prob(-10)
        assert pos_law_small.prob(1) == 0.0
        assert pos_law_small.prob(7) == 0.0

    def test_against_closed_form(self, pos_law_small):
        for l in (0, 2, 4, 10, 40, 200, 400):
            got = pos_law_small.prob(l)
            assert abs(got - closed_form(l)) <= pos_law_small.error_bound, l

    def test_error_bound_within_survival_certificate(self, pos_law_small):
        assert pos_law_small.error_bound <= survival(pos_law_small.kmax)

    def test_mass_accounting(self, pos_law_small):
        assert abs(pos_law_small.window_mass() + pos_law_small.tail_mass - 1.0) < 1e-12

    def test_kmax_doubling_stays_within_certificate(self):
        a = return_position_law(100, 10_000)
        b = return_position_law(100, 20_000)
        cert = survival(10_000)
        for l in range(0, 101, 2):
            assert abs(a.prob(l) - b.prob(l)) < cert

    def test_without_k_tail_completion_still_certified(self):
        # dropping the completion leaves a certified (larger) leak
        a = return_position_law(100, 40_000, k_tail=False)
        for l in (0, 2, 20, 80):
            assert abs(a.prob(l) - closed_form(l)) <= a.error_bound, l

    def test_rejects_odd_windows(self):
        with pytest.raises(ValueError):
            return_position_law(101)
        with pytest.raises(ValueError):
            return_position_law(100, 1001)


class TestTailFunctional:
    def test_values_near_their_limit(self, pos_law_small):
        # closed form: m * P(pos >= m) = m / (pi (m - 1)) for even m
        for m in (50, 100, 200):
            tf = tail_functional(pos_law_small, m)
            want = m / (math.pi * (m - 1))
            assert abs(tf.value - want) < 0.01 * want, m
            assert tf.certified_error < 0.10 * tf.value
            assert tf.completion > 0

    def test_monotone_tail(self, pos_law_small):
        vals = [tail_functional(pos_law_small, m).value / m for m in (50, 100, 150, 200)]
        assert vals == sorted(vals, reverse=True)

    def test_limit_extrapolation(self, pos_law_small):
        res = tail_limit(pos_law_small, ms=(50, 100, 200))
        assert abs(res.sigma - 1 / math.pi) < 0.01

    def test_refuses_near_window_edge(self, pos_law_small):
        with pytest.raises(ValueError):
            tail_functional(pos_law_small, 380)

    def test_refuses_uncertified_truncation(self):
        rough = return_position_law(400, 2_000, k_tail=False)
        with pytest.raises(ValueError):
            tail_functional(rough, 200)

    def test_variation_between_m_and_2m(self, pos_law_small):
        a = tail_functional(pos_law_small, 100).value
        b = tail_functional(pos_law_small, 200).value
        assert abs(b - a) / a < 0.05


class TestScalarSpecialFunctions:
    @pytest.mark.parametrize("t", [1, 5, 20, 1000, 10**5, 10**7])
    def test_inverse_square_tail_is_trigamma(self, t):
        want = float(polygamma(1, t + 1))
        assert abs(_inverse_square_tail(t) - want) < 1e-13 * want

    @pytest.mark.parametrize("m", [1, 1.5, 2, 3.25, 7, 10, 20])
    def test_u_float_matches_gammaln(self, m):
        want = math.exp(gammaln(2 * m + 1) - 2 * gammaln(m + 1) - 2 * m * math.log(2))
        assert abs(_u_float(m) - want) < 1e-13 * want

    @pytest.mark.parametrize("m", [50, 333, 1000, 5000, 9999])
    def test_u_float_matches_exact_rational(self, m):
        # the log-gamma difference rounds at about eps * lgamma(2m + 1) relative
        # (3e-11 at m = 10^4), so larger m are held to that floor, not to 1e-13
        want = float(Fraction(math.comb(2 * m, m), 4**m))
        assert abs(_u_float(m) - want) < 4e-16 * math.lgamma(2 * m + 1) * want


class TestSamplers:
    def test_first_return_marginals(self):
        rng = stream(31, 0, 0)
        r = sample_first_return(rng, 60_000)
        assert np.all(r >= 2)
        assert abs((r == 2).mean() - 0.5) < 3 * math.sqrt(0.25 / 60_000)
        for m in (5, 50, 1000):
            want = survival(2 * m)
            got = (r > 2 * m).mean()
            assert abs(got - want) < 4 * math.sqrt(want * (1 - want) / 60_000), m

    def test_position_conditional_law(self):
        rng = stream(32, 0, 0)
        r = np.full(50_000, 4.0)
        z = sample_position_at(rng, r)
        # S_4: P(0) = 6/16, P(+-2) = 4/16, P(+-4) = 1/16
        assert abs((z == 0).mean() - 6 / 16) < 4 * math.sqrt(0.375 * 0.625 / 50_000)
        assert set(np.unique(z)) <= {-4.0, -2.0, 0.0, 2.0, 4.0}

    def test_position_at_first_return_matches_law(self, pos_law_small):
        # Monte Carlo oracle for the center mass: draw (return, position) pairs
        n = 50_000
        r = sample_first_return(stream(33, 0, 0), n)
        z = sample_position_at(stream(33, 0, 1), r)
        want = pos_law_small.prob(0)
        assert abs((z == 0).mean() - want) < 4 * math.sqrt(want * (1 - want) / n)

    def test_reproducible(self):
        a = sample_first_return(stream(5, 7, 2), 1000)
        b = sample_first_return(stream(5, 7, 2), 1000)
        assert np.array_equal(a, b)

    def test_deep_tail_inversion(self):
        # force the beyond-table branch via tiny survival targets
        from recwalk.return_laws import _invert_survival_scalar

        for w in (1e-4, 1e-6, 1e-10, 1e-14):
            m = _invert_survival_scalar(w)
            assert survival(2 * math.floor(m)) <= w * (1 + 1e-6)
            # predecessor still above w: the inversion is (near) minimal
            assert survival(2 * math.floor(m * (1 - 2e-9) - 1)) > w
