import functools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, polygamma

from oracles import samplers as one_shot
from oracles.return_laws import enumerate_first_returns, first_return_prob_exact, survival_series
from recwalk import return_laws
from recwalk.return_laws import (
    LONG,
    LatticeLaw,
    _inverse_square_tail,
    _k_tail_completion,
    _k_tail_grid,
    _TABLE_M,
    _median,
    _survival_table,
    _u_float,
    _u_series,
    first_return_law,
    fit_tail_exponent,
    fit_tail_scale,
    return_position_law,
    sample_first_return,
    sample_position_at,
    survival,
    tail_functional,
    tail_limit,
)
from recwalk.rng import POSITION_LANE, RETURN_LANE, stream


# closed forms for the return-position law, derived via the elementary
# Fourier series of 1 - |sin|; independent of the summation under test
def closed_form(l: int) -> float:
    l = abs(l)
    if l % 2:
        return 0.0
    if l == 0:
        return 1 - 2 / math.pi
    return 2 / (math.pi * (l * l - 1))


def nonnegative_half(law) -> np.ndarray:
    """P(pos = 0), P(pos = 2), ..., P(pos = lmax) of a return-position law."""
    return law.entries[law.hi // 2 :]


def telescoped(lmax: int, kmax: int):
    """return_position_law(lmax, kmax) without its completion beyond kmax:
    the telescoped sum over return times k <= kmax alone, with the mass
    beyond kmax in leaked."""
    with mock.patch.object(
        return_laws, "_k_tail_completion", lambda kmax, ls: (np.zeros(len(ls), dtype=LONG), 0.0)
    ):
        return return_position_law(lmax, kmax)


def assert_mass_accounted(law) -> None:
    """The entries and the leaked mass of a law add up to one."""
    assert abs(float(law.entries.sum()) + law.leaked - 1.0) < 1e-13


def completion_grid(kmax: int, ratio: float = 1.005) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for _k_tail_grid: the edges and survivals one at a time, each
    edge from the running product k, and the grid ended after the first edge
    whose survival times sqrt(2 / (pi edge)) is below 1e-18."""
    edges, survs = [kmax], [survival(kmax)]
    k = float(kmax)
    while True:
        k *= ratio
        ke = max(int(2 * round(k / 2)), edges[-1] + 2)
        edges.append(ke)
        survs.append(survival(ke))
        if survs[-1] * math.sqrt(2 / (math.pi * ke)) < 1e-18:
            break
    surv = np.array(survs)
    weights = surv[:-1] - surv[1:]
    mids = np.sqrt(np.array(edges[:-1], dtype=float) * np.array(edges[1:], dtype=float))
    return weights, mids


def dense_k_tail_completion(kmax: int, ls: np.ndarray) -> tuple[np.ndarray, float]:
    """Oracle for _k_tail_completion: the same grid, with the whole grid x
    window matrix of densities formed at once and each sum taken in one
    product."""
    weights, mids = completion_grid(kmax)
    dens = np.sqrt(2.0 / (np.pi * mids))[:, None] * np.exp(-(ls[None, :] ** 2) / (2.0 * mids[:, None]))
    contrib = weights @ dens
    covered = float(np.dot(weights, 2.0 * dens.sum(axis=1) - dens[:, 0]))
    return contrib.astype(LONG), covered


def marching_oracle(lmax: int, kmax: int, k_tail: bool) -> tuple[np.ndarray, float]:
    """Brute-force double sum for the return-position law, (values, tail_mass):
    march the binomial column P(S_k = l) across l for every even k <= kmax at
    once and dot it with P(return = k), then add the dense completion beyond
    kmax.  O(lmax kmax), independent of the telescoping and of the blocked
    completion."""
    ls = np.arange(0, lmax + 1, 2, dtype=np.float64)
    u = survival_series(kmax // 2)
    ks = np.arange(2, kmax + 1, 2, dtype=np.float64)
    f = u.astype(np.float64) / (ks - 1.0)  # P(return = k)
    p = u.astype(np.float64)  # P(S_k = 0), overwritten in place per l
    row_sum = p.copy()  # in-window mass per k, counting l = 0 once
    acc = np.zeros(len(ls), dtype=LONG)
    acc[0] = np.dot(f, p)
    for t in range(1, len(ls)):
        # P(S_k = l + 2) = P(S_k = l) (k - l) / (k + l + 2), clamped to 0 for l >= k
        p *= np.maximum(ks - ls[t - 1], 0.0) / (ks + ls[t - 1] + 2.0)
        acc[t] = np.dot(f, p)
        row_sum += 2.0 * p
    covered = LONG(np.dot(f, row_sum))
    if k_tail:
        tail_in, tail_covered = dense_k_tail_completion(kmax, ls)
        acc += tail_in
        covered += LONG(tail_covered)
    return acc, float(1 - covered)


@functools.cache
def _former_negated_table() -> np.ndarray:
    return -survival_series(1 << 20).astype(np.float64)


def _former_bisection(w: float) -> float:
    lo = float(1 << 20)
    hi = max(2 * lo, 2.0 / (math.pi * w * w))  # u_m ~ 1/sqrt(pi m)
    while _u_float(hi) > w:
        hi *= 2
    while hi - lo > max(1.0, 1e-9 * hi):
        mid = float(math.floor((lo + hi) / 2))
        if _u_float(mid) <= w:
            hi = mid
        else:
            lo = mid
    return hi


def former_inversion(w: np.ndarray) -> np.ndarray:
    """Oracle for sample_first_return: the least m >= 1 with u_m <= w, as
    the sampler used to find it, by a searchsorted over the float64 table
    of u_m up to m = 2^20 and a scalar bisection on _u_float past it.  The
    bisection is exact while float64 resolves the integers around m and
    stops at 1e-9 relative beyond; it never returns below the least m."""
    neg = _former_negated_table()
    m = (np.searchsorted(neg, -w, side="left") + 1).astype(np.float64)
    for idx in np.nonzero(m > len(neg))[0]:
        m[idx] = _former_bisection(w[idx])
    return m


class StubGenerator:
    """Stands in for a Generator, handing the samplers fixed draws: the
    uniforms for `random` and the 64-bit words for `bit_generator.random_raw`,
    all of them in one call."""

    def __init__(self, uniforms=(), words=()):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)
        self.words = np.asarray(words, dtype=np.uint64)
        self.bit_generator = self

    def random(self, n):
        assert n == len(self.uniforms)
        return self.uniforms

    def random_raw(self, n):
        assert n == len(self.words)
        return self.words


def first_returns_at(w) -> np.ndarray:
    """m drawn by sample_first_return where 1 - rng.random() gives w, which
    must be a multiple of 2^-53 in (0, 1], as every such draw is."""
    w = np.asarray(w, dtype=np.float64)
    uniforms = 1.0 - w
    assert np.array_equal(1.0 - uniforms, w)
    return sample_first_return(StubGenerator(uniforms), len(w)) / 2


def central_binomials(lo: int, hi: int) -> dict[int, int]:
    """C(2m, m) for lo <= m <= hi: one comb, then C(2m + 2, m + 1) =
    C(2m, m) 2 (2m + 1) / (m + 1)."""
    out = {lo: math.comb(2 * lo, lo)}
    for m in range(lo, hi):
        out[m + 1] = out[m] * 2 * (2 * m + 1) // (m + 1)
    return out


def u_mp(m: int) -> mpmath.mpf:
    """u_m = Gamma(m + 1/2) / (sqrt(pi) Gamma(m + 1)) in 80-digit arithmetic."""
    with mpmath.workdps(80):
        m = mpmath.mpf(m)
        return mpmath.exp(mpmath.loggamma(m + 0.5) - mpmath.loggamma(m + 1)) / mpmath.sqrt(mpmath.pi)


def least_m_mp(w: float) -> int:
    """The least integer m >= 1 with u_m <= w, in 80-digit arithmetic."""
    with mpmath.workdps(80):
        m = max(1, int(mpmath.floor(1 / (mpmath.pi * mpmath.mpf(w) ** 2))))
        while u_mp(m) > w:
            m += 1
        while m > 1 and u_mp(m - 1) <= w:
            m -= 1
        return m


def boundary_term(m: int, t: int) -> Fraction:
    """F(m, t) = P(return = 2m) P(S_2m = 2t), exactly."""
    if abs(t) > m:
        return Fraction(0)
    return first_return_prob_exact(2 * m) * Fraction(math.comb(2 * m, m + t), 4**m)


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
        assert abs(return_law_2000.entries.sum() + return_law_2000.leaked - 1.0) < 1e-12

    def test_tail_mass_is_survival(self, return_law_2000):
        assert abs(return_law_2000.leaked - survival(2000)) < 1e-14

    def test_arrays_round_the_exact_law(self, return_law_2000):
        ns, ps = return_law_2000.support(), return_law_2000.entries
        exact = [float(first_return_prob_exact(n)) for n in range(2, 65, 2)]
        assert ns[:32].tolist() == list(range(2, 65, 2))
        assert ps[:32].tolist() == exact
        assert (return_law_2000.lo, return_law_2000.hi) == (2, 2000)
        assert abs(return_law_2000.prob(66) - float(first_return_prob_exact(66))) < 1e-18
        assert return_law_2000.prob(65) == return_law_2000.prob(2002) == 0.0

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
        planted = np.arange(2, 2001, 2, dtype=float) ** -1.5
        law = LatticeLaw(2, planted / planted.sum())
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
        for law, ls in (
            (pos_law_small, (0, 2, 4, 10, 40, 200, 400)),
            (return_position_law(100, 40_000), (0, 2, 20, 80)),
        ):
            for l in ls:
                assert abs(law.prob(l) - closed_form(l)) <= law.error_bound, (law.hi, l)

    def test_error_bound_within_survival_certificate(self, pos_law_small):
        assert pos_law_small.error_bound <= survival(pos_law_small.kmax)

    def test_mass_accounting(self, pos_law_small):
        assert_mass_accounted(pos_law_small)

    def test_kmax_doubling_stays_within_certificate(self):
        a = return_position_law(100, 10_000)
        b = return_position_law(100, 20_000)
        cert = survival(10_000)
        for l in range(0, 101, 2):
            assert abs(a.prob(l) - b.prob(l)) < cert

    def test_rejects_odd_windows(self):
        with pytest.raises(ValueError):
            return_position_law(101, 10_000)
        with pytest.raises(ValueError):
            return_position_law(100, 1001)


class TestTelescoping:
    """The two Gosper certificates behind return_position_law, in exact
    rationals, and the float build against the brute-force double sum."""

    @pytest.mark.parametrize("m", range(1, 25))
    def test_certificates_exact(self, m):
        F = boundary_term
        assert -4 * (m + 1) ** 2 * F(m + 1, 0) + 4 * m**2 * F(m, 0) == F(m, 0)
        for t in range(0, m + 3):
            g_next = -4 * (m + 1 - t) * F(m + 1, t)
            g = -4 * (m - t) * F(m, t)
            assert g_next - g == (2 * t + 3) * F(m, t + 1) - (2 * t - 1) * F(m, t), t

    @pytest.mark.parametrize("M", [0, 1, 2, 5, 12, 30])
    def test_telescoped_sums_exact(self, M):
        F = boundary_term
        assert (F(1, 0), F(1, 1), F(1, 2)) == (Fraction(1, 4), Fraction(1, 8), 0)
        S = [sum((F(m, t) for m in range(1, M + 1)), Fraction(0)) for t in range(M + 3)]
        assert S[0] == 1 - 4 * (M + 1) ** 2 * F(M + 1, 0)
        for t in range(M + 2):
            assert (2 * t + 3) * S[t + 1] == (
                (2 * t - 1) * S[t] - 4 * (M + 1 - t) * F(M + 1, t) + 4 * (1 - t) * F(1, t)
            ), t
        for t in range(1, M + 3):
            tail = sum(((2 * s + 1) * (M + 1 - s) * F(M + 1, s) for s in range(t, M + 1)), Fraction(0))
            assert (4 * t * t - 1) * S[t] == 4 * tail, t

    def test_float_build_matches_exact_truncated_sum(self):
        law = telescoped(40, 30)
        for t in range(21):
            want = float(sum((boundary_term(m, t) for m in range(1, 16)), Fraction(0)))
            assert abs(law.prob(2 * t) - want) <= 1e-16 * want, t

    @pytest.mark.parametrize("lmax,kmax,k_tail", [
        (40, 30, True),
        (100, 10**4, True),
        (400, 2000, False),
        (2000, 200, False),
        (400, 160_000, True),
    ])
    def test_matches_marching_oracle(self, lmax, kmax, k_tail):
        law = return_position_law(lmax, kmax) if k_tail else telescoped(lmax, kmax)
        want, tail_mass = marching_oracle(lmax, kmax, k_tail)
        assert law.is_symmetric() and law.lo == -lmax
        diff = np.abs(nonnegative_half(law) - want)
        assert np.all(diff <= 1e-15)
        big = want > 1e-12
        assert np.all(diff[big] <= 1e-12 * want[big])
        assert abs(law.leaked - tail_mass) < 1e-14

    @settings(max_examples=60, deadline=None)
    @given(
        half_l=st.integers(1, 80), half_k=st.integers(1, 600), k_tail=st.booleans(),
        half_n=st.integers(1, 10**5),
    )
    def test_nonnegative_zero_beyond_kmax_and_mass_accounted(self, half_l, half_k, k_tail, half_n):
        law = (return_position_law if k_tail else telescoped)(2 * half_l, 2 * half_k)
        assert np.all(law.entries >= 0)
        if not k_tail:
            assert np.all(nonnegative_half(law)[half_k + 1 :] == 0)
        assert_mass_accounted(law)
        assert law.is_symmetric()
        conditioned = LatticeLaw.from_position_law(law)
        assert conditioned.entries.dtype == np.float64 and conditioned.leaked == 0.0
        assert abs(conditioned.entries.sum() - 1.0) < 1e-13
        # the first-return law on 2, 4, ..., 2 half_n accounts for its mass too
        assert_mass_accounted(first_return_law(2 * half_n))


class TestKTailCompletion:
    """The completion of return times beyond kmax, summed in blocks of
    grid buckets, against the dense oracle and the telescoped sum."""

    @settings(max_examples=60, deadline=None)
    @given(kmax=st.integers(1, 10**9).map(lambda h: 2 * h) | st.just(5 * 10**17))
    def test_grid_matches_scalar_loop(self, kmax):
        weights, mids = _k_tail_grid(kmax)
        want_weights, want_mids = completion_grid(kmax)
        assert np.array_equal(weights, want_weights)
        assert np.array_equal(mids, want_mids)

    @staticmethod
    def assert_matches_dense(kmax, lmax):
        ls = np.arange(0, lmax + 1, 2, dtype=np.float64)
        contrib, covered = _k_tail_completion(kmax, ls)
        want, want_covered = dense_k_tail_completion(kmax, ls)
        np.testing.assert_allclose(contrib.astype(np.float64), want.astype(np.float64), rtol=1e-13, atol=0)
        assert abs(covered - want_covered) <= 1e-13 * want_covered

    @settings(max_examples=60, deadline=None)
    @given(
        half_k=st.integers(1, 10**9),
        half_l=st.integers(1, 100),
        budget=st.one_of(st.none(), st.integers(1, 4096)),
    )
    def test_blocked_matches_dense(self, half_k, half_l, budget):
        # a small budget stands for windows longer than the budget: one
        # bucket per block once it is below the window length
        if budget is None:
            self.assert_matches_dense(2 * half_k, 2 * half_l)
        else:
            with mock.patch.object(return_laws, "_BLOCK_ENTRIES", budget):
                self.assert_matches_dense(2 * half_k, 2 * half_l)

    def test_partial_last_block_at_the_lll_defaults(self):
        rows = return_laws._BLOCK_ENTRIES // 1001
        buckets = len(completion_grid(4_000_000)[1])
        assert rows > 1 and buckets % rows != 0
        self.assert_matches_dense(4_000_000, 2000)

    def test_window_longer_than_the_budget(self):
        # 35,001 window entries against 2^15: one bucket per block; the
        # grid from 5e17 has a few dozen buckets, so the oracle stays small
        assert 35_001 > return_laws._BLOCK_ENTRIES
        self.assert_matches_dense(5 * 10**17, 70_000)

    @pytest.mark.parametrize("lmax", [2000, 20_000])
    def test_peak_memory_does_not_grow_with_the_window(self, lmax):
        # a dense grid x window matrix would be 41 MB per copy at lmax = 2000
        tracemalloc.start()
        try:
            return_position_law(lmax, 4_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    @pytest.mark.parametrize("lmax,kmax,far", [
        (200, 40_000, 4_000_000),
        (100, 10_000, 10_000_000),
        (400, 160_000, 16_000_000),
    ])
    def test_completed_part_matches_telescoped_sum(self, lmax, kmax, far):
        # return times in (kmax, far]: the completion's share of them against
        # the exact truncated sums, which the marching oracle checks
        ls = np.arange(0, lmax + 1, 2, dtype=np.float64)
        completed = _k_tail_completion(kmax, ls)[0] - _k_tail_completion(far, ls)[0]
        exact = nonnegative_half(telescoped(lmax, far)) - nonnegative_half(telescoped(lmax, kmax))
        np.testing.assert_allclose(completed.astype(np.float64), exact.astype(np.float64), rtol=1e-4, atol=0)


class TestTailFunctional:
    def test_values_near_their_limit(self, pos_law_small):
        # closed form: m * P(pos >= m) = m / (pi (m - 1)) for even m
        law = pos_law_small
        for m in (50, 100, 200):
            value = tail_functional(law, m)
            want = m / (math.pi * (m - 1))
            assert abs(value - want) < 0.01 * want, m
            # the window entries l = m..lmax, each within the law's bound
            t0, top = (m + 1) // 2, law.hi // 2
            assert m * (top - t0 + 1) * law.error_bound < 0.10 * value
            # the completed tail beyond the window adds to the window sum
            assert value > m * float(np.sum(law.entries[top + t0 :]))

    def test_monotone_tail(self, pos_law_small):
        vals = [tail_functional(pos_law_small, m) / m for m in (50, 100, 150, 200)]
        assert vals == sorted(vals, reverse=True)

    def test_limit_extrapolation(self, pos_law_small):
        assert abs(tail_limit(pos_law_small, ms=(50, 100, 200)) - 1 / math.pi) < 0.01

    def test_refuses_near_window_edge(self, pos_law_small):
        with pytest.raises(ValueError):
            tail_functional(pos_law_small, 380)

    def test_refuses_uncertified_truncation(self):
        rough = return_position_law(400, 2_000)
        with pytest.raises(ValueError):
            tail_functional(rough, 200)

    def test_variation_between_m_and_2m(self, pos_law_small):
        a = tail_functional(pos_law_small, 100)
        b = tail_functional(pos_law_small, 200)
        assert abs(b - a) / a < 0.05

    @pytest.mark.parametrize("lmax", [40, 42, 44, 46, 202, 204, 2000])
    def test_tail_scale_is_np_median(self, lmax):
        # --l-max 40, 42, 202 and 2000 fit an odd count of values, 44, 46 and
        # 204 an even count
        law = return_position_law(lmax, min(lmax * lmax, 40_000))
        ts = np.arange((lmax // 2 + 1) // 2, lmax // 2 + 1)
        ls = 2 * ts.astype(np.float64)
        window = law.entries[lmax // 2 + ts].astype(np.float64) * ls * ls / 2.0
        assert len(window) % 2 == (lmax not in (44, 46, 204))
        assert np.float64(fit_tail_scale(law)).tobytes() == np.median(window).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(width=64) | st.sampled_from([0.0, -0.0, 1.0]),
                           min_size=1, max_size=40))
    def test_median_is_np_median_bit_for_bit(self, values):
        values = np.array(values)
        want = np.median(values)
        if np.isnan(want):
            assert math.isnan(_median(values))
        else:
            assert np.float64(_median(values)).tobytes() == want.tobytes()


class TestScalarSpecialFunctions:
    @pytest.mark.parametrize("t", [1, 5, 20, 1000, 10**5, 10**7])
    def test_inverse_square_tail_is_trigamma(self, t):
        want = float(polygamma(1, t + 1))
        assert abs(_inverse_square_tail(t) - want) < 1e-13 * want

    @pytest.mark.parametrize("m", [1, 1.5, 2, 3.25, 7, 10, 20])
    def test_u_float_matches_gammaln(self, m):
        want = math.exp(gammaln(2 * m + 1) - 2 * gammaln(m + 1) - 2 * m * math.log(2))
        assert abs(_u_float(m) - want) < 1e-13 * want

    @pytest.mark.parametrize("m", [1, 2, 7, 8, 19, 50, 333, 1000, 5000, 9999])
    def test_u_float_matches_exact_rational(self, m):
        want = float(Fraction(math.comb(2 * m, m), 4**m))
        assert abs(_u_float(m) - want) < 1e-14 * want

    @pytest.mark.parametrize("m", [10**4, 10**6, 10**9, 10**12, 10**17])
    def test_u_float_matches_gamma_ratio(self, m):
        with mpmath.workdps(40):
            want = mpmath.gamma(m + mpmath.mpf(1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(m + 1))
            assert abs(_u_float(m) / want - 1) < 1e-15

    def test_u_series_is_the_loop_that_squares_each_pass(self):
        # the loop before x * x was taken out of it: the same double each pass
        def each_pass(x):
            series = 0.0
            for c in return_laws._U_SERIES:
                series = (series + c) / (x * x)
            return 1.0 + series

        xs = np.concatenate(([8.25, 8.5, 9.0, 1e3, 1e15, 1e30], np.geomspace(8.25, 1e30, 4001)))
        assert np.array_equal(_u_series(xs), each_pass(xs))
        for x in xs.tolist():
            assert _u_series(x) == each_pass(x)

    def test_survival_matches_product_series(self):
        # 80-bit running product of (2m - 1) / 2m
        u = survival_series(20_000).astype(np.float64)
        got = np.array([survival(2 * m) for m in range(1, 20_001)])
        assert np.max(np.abs(got / u - 1)) < 1e-14


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

    def test_matches_former_inversion(self):
        # 1.2e6 draws from six seeds: the same m wherever the former
        # bisection was exact, and its 1e-9 tolerance beyond
        deep = 0
        for seed in range(1, 7):
            w = 1.0 - stream(seed, 0, RETURN_LANE).random(200_000)
            m = sample_first_return(stream(seed, 0, RETURN_LANE), len(w)) / 2
            want = former_inversion(w)
            exact = want < 1e9
            assert np.array_equal(m[exact], want[exact]), seed
            assert np.all(np.abs(m[~exact] / want[~exact] - 1) <= 1e-9), seed
            deep += int((~exact).sum())
        assert deep > 0  # the relative branch was exercised

    def test_least_m_at_deep_tail_and_seam(self):
        # u_m <= w < u_(m-1): in exact integers on both sides of the table
        # seam, in 80-digit arithmetic deeper (the margins, 1e-13 relative or
        # more, dwarf its error), and to an ulp where the least m is past 2^53
        step = 2.0**-53
        c = central_binomials(_TABLE_M - 4, _TABLE_M + 4)

        def u_at_most(m, k):  # u_m <= k 2^-53
            return c[m] << 53 <= k << (2 * m)

        # the least k with u_m <= k 2^-53, for m around the seam, and k - 1
        ks = [-(-(c[m] << 53) >> (2 * m)) for m in range(_TABLE_M - 2, _TABLE_M + 3)]
        ks += [k - 1 for k in ks]
        for k, m in zip(ks, first_returns_at([k * step for k in ks])):
            m = int(m)
            assert u_at_most(m, k) and not u_at_most(m - 1, k), k
        deep = [1.0 - (1.0 - w) for w in (1e-4, 1e-6, 1e-10, 1e-14, step)]
        for w, m in zip(deep, first_returns_at(deep)):
            want = least_m_mp(w)
            if want < 2**53:
                assert m == want, w
            else:
                assert abs(m - want) <= math.ulp(m), w

    def test_every_table_step(self):
        # on the 2^-53 grid of draws, the least point at or above each table
        # entry u_m gives m and the point below it m + 1, through the seam
        u = _survival_table()[1:]
        at = np.ceil(u * 2.0**53) / 2.0**53
        ms = np.arange(1, _TABLE_M + 1, dtype=np.float64)
        assert np.array_equal(first_returns_at(at), ms)
        assert np.array_equal(first_returns_at(at - 2.0**-53), ms + 1)
        assert first_returns_at([1.0]).tolist() == [1.0]  # the largest draw, U = 0


#: float lengths on both sides of the bit-count and binomial seams
SEAM_LENGTHS = [63.0, 64.0, 65.0, 66.0, 2.0**62 - 1024, 2.0**62, 2.0**62 + 1024, 2.0**80]


class TestBitIdenticalToOneShot:
    """The blocked table, the in-place samplers and the key-only streams
    give the arrays and streams of their one-shot oracles."""

    def test_table(self):
        assert np.array_equal(_survival_table(), one_shot.survival_table())

    @pytest.mark.parametrize("nmax", [2, 8190, 8192, 8194, 8196, 40_000])
    def test_first_return_law_across_blocks(self, nmax):
        u = survival_series(nmax // 2)
        odd = 2 * np.arange(1, nmax // 2 + 1, dtype=LONG) - 1
        law = first_return_law(nmax)
        assert np.array_equal(law.entries, (u / odd).astype(np.float64))
        assert law.leaked == float(u[-1])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1) | st.integers(2**63, 2**64 - 1),
        index=st.integers(0, 2**56 - 1),
        n=st.integers(1, 3000),
    )
    def test_samplers_on_streams(self, seed, index, n):
        r = sample_first_return(stream(seed, index, RETURN_LANE), n)
        want = one_shot.sample_first_return(one_shot.stream(seed, index, RETURN_LANE), n)
        assert np.array_equal(r, want)
        z = sample_position_at(stream(seed, index, POSITION_LANE), r)
        assert np.array_equal(z, one_shot.sample_position_at(one_shot.stream(seed, index, POSITION_LANE), r))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        lengths=st.lists(
            st.sampled_from(SEAM_LENGTHS) | st.integers(1, 200).map(float)
            | st.floats(2.0, 2.0**70).map(math.floor),
            min_size=1, max_size=300,
        ),
    )
    def test_position_across_seams(self, seed, lengths):
        lengths = np.array(lengths, dtype=np.float64)
        got = sample_position_at(stream(seed, 3, POSITION_LANE), lengths)
        want = one_shot.sample_position_at(one_shot.stream(seed, 3, POSITION_LANE), lengths)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(ks=st.lists(
        st.integers(1, 2**53) | st.integers(1, 2**44) | st.integers(1, 2**30),
        min_size=1, max_size=200,
    ))
    def test_first_return_past_the_table(self, ks):
        # w = k 2^-53 down to the smallest draw: below w = 2.2e-3 the guess
        # c passes 2^16 and both neighbours come from the series
        w = np.array(ks, dtype=np.float64) * 2.0**-53
        got = sample_first_return(StubGenerator(1.0 - w), len(w))
        want = one_shot.sample_first_return(StubGenerator(1.0 - w), len(w))
        assert np.array_equal(got, want)

    def test_every_table_step_and_the_far_draws(self):
        # the least draw at or above each u_m and the draw below it, and the
        # 2^12 smallest draws, which lie past the table
        k = np.concatenate((np.ceil(_survival_table()[1:] * 2.0**53), np.arange(2.0, 2.0**12)))
        w = np.concatenate((k, k - 1.0)) * 2.0**-53
        got = sample_first_return(StubGenerator(1.0 - w), len(w))
        assert np.array_equal(got, one_shot.sample_first_return(StubGenerator(1.0 - w), len(w)))


class TestPositionSampler:
    def test_top_bits_of_one_word(self):
        # one raw word per walk of r <= 64 steps; its top r bits are the
        # steps, a set bit a +1
        words = [1 << 63, (1 << 64) - 2, 1, 1 << 62]
        want = {1: [1, 1, -1, -1], 2: [0, 2, -2, 0], 63: [-61, 63, -63, -61], 64: [-62, 62, -62, -62]}
        for r, positions in want.items():
            got = sample_position_at(StubGenerator(words=words), np.full(len(words), float(r)))
            assert got.tolist() == positions, r

    def test_popcount_matches_int_bit_count(self):
        words = [0, (1 << 64) - 1] + [int(x) for x in stream(41).bit_generator.random_raw(1000)]
        got = sample_position_at(StubGenerator(words=words), np.full(len(words), 64.0))
        assert got.tolist() == [2 * w.bit_count() - 64 for w in words]

    @pytest.mark.parametrize("r", [1, 2, 3, 33, 64, 66])
    def test_atoms_are_binomial(self, r):
        # r <= 64 reads bit counts, r = 66 draws a binomial
        n = 100_000
        z = sample_position_at(stream(42, r), np.full(n, float(r)))
        k, counts = np.unique((z + r) / 2, return_counts=True)
        assert set(k) <= set(range(r + 1))
        freq = dict(zip(k.astype(int).tolist(), (counts / n).tolist()))
        for j in range(r + 1):
            p = math.comb(r, j) / 2**r
            assert abs(freq.get(j, 0.0) - p) <= 4 * math.sqrt(p * (1 - p) / n), j

    def test_rounded_normal_beyond_binomial_range(self):
        n = 100_000
        lengths = np.where(np.arange(n) % 2 == 0, 2.0**62, 2.0**80)
        z = sample_position_at(stream(43), lengths)
        assert np.all(z % 2 == 0)
        var = np.mean(z * z / lengths)
        assert abs(var - 1.0) <= 4 * math.sqrt(2.0 / n)
