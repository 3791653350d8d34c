import functools
import math
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from conftest import traced_peak
from oracles import samplers as one_shot
from oracles.return_laws import (
    enumerate_first_returns,
    first_return_law,
    first_return_prob_exact,
    fit_tail_exponent,
    k_tail_closed_form,
    survival_series,
    telescoped_sums,
)
from recwalk import cli, return_laws
from recwalk.return_laws import (
    LatticeLaw,
    _k_tail_completion,
    _k_tail_grid,
    _line,
    _TABLE_M,
    _survival_table,
    _u_series,
    bracket_margin,
    first_return_blocks,
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


def tail_beyond(l: int) -> float:
    """P(pos > l) of the untruncated law for even l >= 0: each closed_form
    entry 2 / (pi (4j^2 - 1)) at 2j is (1/pi) (1 / (2j - 1) - 1 / (2j + 1)),
    so the entries beyond l telescope to 1 / (pi (l + 1))."""
    return 1 / (math.pi * (l + 1))


def nonnegative_half(law) -> np.ndarray:
    """P(pos = 0), P(pos = 2), ..., P(pos = lmax) of a return-position law."""
    return law.entries[law.hi // 2 :]


def telescoped(lmax: int, kmax: int):
    """return_position_law(lmax, kmax) without its completion beyond kmax:
    the telescoped sum over return times k <= kmax alone, with the mass
    beyond kmax in leaked."""
    with mock.patch.object(
        return_laws, "_k_tail_completion", lambda kmax, ls: (np.zeros(len(ls)), 0.0)
    ):
        return return_position_law(lmax, kmax)


def assert_mass_accounted(law) -> None:
    """The entries and the leaked mass of a law add up to one."""
    assert abs(float(law.entries.sum()) + law.leaked - 1.0) < 1e-13


def survival_at(n: int) -> float:
    """survival(n) at one even n >= 0 by the rule its docstring states, in
    Python floats: C(2m, m) / 4^m rounded once for m = n / 2 < 9, and
    _u_series(x) / sqrt(pi x) at x = m + 1/4 from m = 9 on."""
    m = n // 2
    if m < 9:
        return math.comb(2 * m, m) / 4**m
    x = m + 0.25
    return _u_series(x) / math.sqrt(math.pi * x)


#: float64's unit roundoff: one correctly rounded operation moves its
#: result by at most this much, relative
U = 2.0**-53


def survival_rtol(m: int) -> float:
    """Bound on the relative error of survival(2m) against u_m, counted from
    its operations, to first order in U.  For m < 9, one rounding.  From
    m = 9 on, _u_series(x) / sqrt(pi x): the sum 1 + series (1 U); the
    omitted terms, below 1e-16 (0.91 U); the series' own roundings, some
    24 U on a value below 2e-4 (0.01 U); under the square root, which halves
    them, np.pi (0.36 U), the product pi x (1 U) and, from m = 2^51 on,
    x = m + 1/4 (1 U); the square root (1 U) and the division (1 U)."""
    if m < 9:
        return U
    under_root = 0.36 + 1 + (1 if m >= 2**51 else 0)
    return (1 + 0.91 + 0.01 + under_root / 2 + 1 + 1) * U


def law_rtol(m: int) -> float:
    """Bound on the relative error of P(return = 2m) = survival(2m) / (2m - 1):
    survival's, and the division's rounding (2m - 1 is exact)."""
    return survival_rtol(m) + U


def completion_grid(kmax: int, ratio: float = 1.005) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for _k_tail_grid: the edges and survivals one at a time, each
    edge from the running product k, and the grid ended after the first edge
    whose survival times sqrt(2 / (pi edge)) is below 1e-18."""
    edges, survs = [kmax], [survival_at(kmax)]
    k = float(kmax)
    while True:
        k *= ratio
        ke = max(int(2 * round(k / 2)), edges[-1] + 2)
        edges.append(ke)
        survs.append(survival_at(ke))
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
    return contrib, covered


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
    acc = np.zeros(len(ls))
    acc[0] = np.dot(f, p)
    for t in range(1, len(ls)):
        # P(S_k = l + 2) = P(S_k = l) (k - l) / (k + l + 2), clamped to 0 for l >= k
        p *= np.maximum(ks - ls[t - 1], 0.0) / (ks + ls[t - 1] + 2.0)
        acc[t] = np.dot(f, p)
        row_sum += 2.0 * p
    covered = np.dot(f, row_sum)
    if k_tail:
        tail_in, tail_covered = dense_k_tail_completion(kmax, ls)
        acc += tail_in
        covered += tail_covered
    return acc, float(1 - covered)


@functools.cache
def _former_negated_table() -> np.ndarray:
    return -survival_series(1 << 20).astype(np.float64)


def _former_bisection(w: np.ndarray) -> np.ndarray:
    """The bisection of each w on its own, all w in one array: u_m is
    survival(2m), and integer m below 2^53 give even 2m."""
    lo = np.full(len(w), float(1 << 20))
    hi = np.maximum(2 * lo, np.ceil(2.0 / (np.pi * w * w)))  # u_m ~ 1/sqrt(pi m)
    while np.any(grow := survival(2 * hi) > w):
        hi[grow] *= 2
    while np.any(wide := hi - lo > np.maximum(1.0, 1e-9 * hi)):
        mid = np.floor((lo + hi) / 2)
        below = survival(2 * mid) <= w
        hi = np.where(wide & below, mid, hi)
        lo = np.where(wide & ~below, mid, lo)
    return hi


def former_inversion(w: np.ndarray) -> np.ndarray:
    """Oracle for sample_first_return: the least m >= 1 with u_m <= w, as
    the sampler used to find it, by a searchsorted over the float64 table
    of u_m up to m = 2^20 and a bisection on survival past it.  The
    bisection is exact while float64 resolves the integers around m and
    stops at 1e-9 relative beyond; it never returns below the least m."""
    neg = _former_negated_table()
    m = (np.searchsorted(neg, -w, side="left") + 1).astype(np.float64)
    deep = m > len(neg)
    m[deep] = _former_bisection(w[deep])
    return m


class StubGenerator:
    """Stands in for a Generator, handing the samplers fixed draws: the
    uniforms for `random` and the 64-bit words for `bit_generator.random_raw`,
    in order, in calls of any size, as a Generator does."""

    def __init__(self, uniforms=(), words=()):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)
        self.words = np.asarray(words, dtype=np.uint64)
        self.bit_generator = self

    def random(self, n):
        assert n <= len(self.uniforms)
        head, self.uniforms = self.uniforms[:n].copy(), self.uniforms[n:]
        return head

    def random_raw(self, n):
        assert n <= len(self.words)
        head, self.words = self.words[:n].copy(), self.words[n:]
        return head


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
        # each entry within law_rtol of the exact C(2m, m) / ((2m - 1) 4^m)
        m, ps = next(first_return_blocks(2000))
        assert m[:32].tolist() == list(range(1, 33))
        for k, p in zip(range(1, 33), ps[:32].tolist()):
            exact = first_return_prob_exact(2 * k)
            assert abs(Fraction(p) - exact) <= law_rtol(k) * exact, k
        assert np.array_equal(return_law_2000.entries[: len(ps)], ps)
        assert (return_law_2000.lo, return_law_2000.hi) == (2, 2000)
        assert abs(return_law_2000.prob(66) - float(first_return_prob_exact(66))) < 1e-18
        assert return_law_2000.prob(65) == return_law_2000.prob(2002) == 0.0

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            next(first_return_blocks(3))
        with pytest.raises(ValueError):
            next(first_return_blocks(0))


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


@functools.cache
def wallis_bracket() -> dict[int, tuple[float, float, float]]:
    """m -> (1 / sqrt(pi (m + 1/2)), 1 / sqrt(pi (m + 1/4)), margin): the ends of
    Kazarinoff's bracket on u_2m = C(2m, m) / 4^m, and the smallest relative
    margin of u_2m to them, min(u_2m / lower - 1, 1 - u_2m / upper), all taken
    at 30 digits and rounded to float64; u_2m is the running product of
    (2k - 1) / 2k for every m <= 10^4, and the binomial itself at the
    decades 10^5, ..., MAX_RETURN_TIME / 2."""
    out = {}
    decades = [10**k for k in range(5, 7)]
    assert decades[-1] == cli.MAX_RETURN_TIME // 2
    with mpmath.workdps(30):
        u, pi = mpmath.mpf(1), +mpmath.pi
        for m in [*range(1, 10**4 + 1), *decades]:
            if m <= 10**4:
                u = u * (2 * m - 1) / (2 * m)
            else:
                u = mpmath.binomial(2 * m, m) / mpmath.mpf(4) ** m
            lower = 1 / mpmath.sqrt(pi * (m + 0.5))
            upper = 1 / mpmath.sqrt(pi * (m + 0.25))
            out[m] = (float(lower), float(upper), float(min(u / lower - 1, 1 - u / upper)))
    return out


class TestWallisBracket:
    """Kazarinoff's bracket on Wallis's ratio, 1 / sqrt(pi (m + 1/2)) < u_2m
    < 1 / sqrt(pi (m + 1/4)) with u_2m = (2m - 1) P(return = 2m): the exact
    values lie inside it, and so does the program's law."""

    def test_exact_values_inside_by_more_than_rounding(self):
        # the upper margin, about 1 / (64 m^2), is the tighter one; at the
        # largest --n-max it is still above 64 ulps, far above the few ulps
        # of a float64 entry, of bracket_margin's evaluation and of the
        # float64 comparisons below
        margins = [margin for _, _, margin in wallis_bracket().values()]
        assert min(margins) > 64 * np.finfo(float).eps

    def test_printed_rows_inside(self, tmp_path):
        # every row of return-law up to m = 10^4, both columns
        out = tmp_path / "rl.csv"
        assert cli.main(["return-law", "--n-max", "20000", "--out", str(out)]) == 0
        n, prob, n32 = np.loadtxt(out, delimiter=",", skiprows=3, unpack=True)
        m = np.arange(1, 10**4 + 1)
        assert np.array_equal(n, 2 * m)
        lower, upper, _ = np.array([wallis_bracket()[k] for k in m.tolist()]).T
        for u in (prob * (2 * m - 1), n32 * (2 * m - 1) / n**1.5):
            assert np.all((lower < u) & (u < upper))

    def test_law_at_the_decades_inside(self):
        law = first_return_law(cli.MAX_RETURN_TIME)
        for m in (10**5, 10**6):
            lower, upper, _ = wallis_bracket()[m]
            assert lower < law.prob(2 * m) * (2 * m - 1) < upper, m

    def test_margin_matches_exact(self):
        # the smallest margin up to m = 10^4 is the upper one at the last m
        margin, n = bracket_margin(first_return_blocks(20_000))
        exact = min(wallis_bracket()[m][2] for m in range(1, 10**4 + 1))
        assert n == 20_000
        assert abs(margin - exact) < 1e-15

    @staticmethod
    def blocks_of(entries: np.ndarray, block: int):
        """A first-return law given whole, as blocks (m, P(return = 2m)) of block entries."""
        m = np.arange(1, len(entries) + 1)
        return [(m[lo : lo + block], entries[lo : lo + block]) for lo in range(0, len(m), block)]

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_planted_entries_outside(self, block):
        # n = 60 just above the upper end, n = 100 far below the lower one:
        # the margin is the lower one, and the row named the first outside
        entries = first_return_law(200).entries.copy()
        entries[29] = wallis_bracket()[30][1] * (1 + 1e-9) / 59
        entries[49] = wallis_bracket()[50][0] * (1 - 1e-3) / 99
        margin, n = bracket_margin(self.blocks_of(entries, block))
        assert n == 60 and abs(margin + 1e-3) < 1e-12

    @pytest.mark.parametrize("block", [1, 7, 300])
    def test_blocks_give_one_answer(self, monkeypatch, block):
        whole = bracket_margin(first_return_blocks(2000))
        monkeypatch.setattr(return_laws, "_SURVIVAL_BLOCK", block)
        assert len(next(first_return_blocks(2000))[0]) == block
        assert bracket_margin(first_return_blocks(2000)) == whole

    def test_nan_entry_lies_outside(self):
        # a nan compares false both ways, so it is counted outside, not passed
        entries = first_return_law(200).entries.copy()
        entries[[39, 59]] = np.nan
        margin, n = bracket_margin(self.blocks_of(entries, 7))
        assert n == 80 and margin == -math.inf


class TestLeastSquaresLine:
    """_line, the closed-form fit behind tail_limit, against np.polyfit,
    which solves the same problem through LAPACK."""

    # coordinates below 1e-100 are 0: LAPACK's scaled arithmetic loses
    # digits to underflow there, and the fits made here never come near it
    coordinates = st.floats(-100, 100).map(lambda v: 0.0 if abs(v) < 1e-100 else v)

    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(st.tuples(coordinates, coordinates), min_size=3, max_size=500))
    def test_matches_polyfit(self, points):
        x, y = (list(v) for v in zip(*points))
        spread, reach = max(x) - min(x), max(abs(v) for v in x)
        assume(spread >= 1.0)
        slope, intercept = _line(x, y)
        want_slope, want_intercept = np.polyfit(x, y, 1)
        # relative to the data's own scale, since either value may be near
        # 0; an intercept far from the data carries the slope's error there
        scale = max(abs(v) for v in y)
        assert abs(slope - want_slope) <= 1e-12 * (abs(want_slope) + scale / spread)
        assert abs(intercept - want_intercept) <= 1e-12 * (
            abs(want_intercept) + scale * (1 + reach / spread)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        centre=st.integers(-1000, 1000),
        offsets=st.lists(st.integers(1, 1000), min_size=1, max_size=50),
        slope=st.integers(-1000, 1000),
        intercept=st.integers(-1000, 1000),
    )
    def test_exact_line_recovered(self, centre, offsets, slope, intercept):
        # integer points placed symmetrically about an integer: every mean,
        # difference and product is exact, so the line comes back exactly
        x = [float(centre + s * d) for d in offsets for s in (-1, 1)]
        y = [slope * v + intercept for v in x]
        assert _line(x, y) == (slope, intercept)

    @pytest.mark.parametrize(
        "x, y",
        [([], []), ([1.0], [2.0]), ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])],
    )
    def test_refuses_what_fixes_no_line(self, x, y):
        with pytest.raises(ValueError):
            _line(x, y)


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
        # the bounds, to first order in U, count the build's roundings; its
        # integers (s, M + 1 - s, 4 t^2 - 1, 4 (2s + 1) (M + 1 - s)) are exact.
        # Each term s >= 1 of the tail sum carries u = survival(2M + 2) twice,
        # u * u and / (2M + 1) (2 U), the s ratios and s - 1 products of the
        # column's running product, its scaling (U) and the weight's product
        # (U): 2 survival_rtol + (2s + 3) U, with s < L, the column length.
        # The sum of its L - t positive terms adds (L - t - 1) U, and the
        # division by 4 t^2 - 1 one U: below 2 survival_rtol + 3 L U for t >= 1.
        # S(0) = 1 - a, a = 4 (M + 1)^2 F(M + 1, 0): a carries 2 survival_rtol
        # + 3 U, which the difference scales by a / S(0), and it rounds once.
        for lmax, kmax in [(40, 30), (60, 1000)]:
            law = telescoped(lmax, kmax)
            m1 = kmax // 2 + 1
            length = return_laws.column_length(lmax, kmax)
            a = 4 * m1**2 * boundary_term(m1, 0)
            for t in range(lmax // 2 + 1):
                want = sum((boundary_term(m, t) for m in range(1, m1)), Fraction(0))
                if t == 0:
                    assert want == 1 - a
                    rtol = a / want * (2 * survival_rtol(m1) + 3 * U) + U
                else:
                    rtol = 2 * survival_rtol(m1) + 3 * length * U
                assert abs(Fraction(law.prob(2 * t)) - want) <= rtol * want, (lmax, kmax, t)

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
    @given(half_l=st.integers(1, 2000), half_k=st.integers(1, 10**8))
    def test_in_place_column_matches_one_shot(self, half_l, half_k):
        # columns shorter and longer than the window, and S(t) = 0 past M
        got = nonnegative_half(telescoped(2 * half_l, 2 * half_k))
        assert np.array_equal(got, telescoped_sums(2 * half_l, 2 * half_k))

    def test_column_held_in_three_arrays(self):
        # about 1.06e6 entries of 8 bytes; the one-shot form holds five
        entries = return_laws.column_length(2000, 10**10)
        assert entries > 10**6
        assert traced_peak(lambda: return_position_law(2000, 10**10)) < 3.2 * 8 * entries

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
    grid buckets and as a series in l^2, against the dense oracle, exact
    sums and the telescoped sum."""

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

    def test_partial_last_block_before_the_split(self):
        # at (5e5, 2000) the buckets with exponent 2000^2 / 2k above 1/2,
        # k below 4e6, are summed in blocks, the last one cut short by the
        # split, and the rest by the series
        rows = return_laws._BLOCK_ENTRIES // 1001
        mids = completion_grid(500_000)[1]
        split = int(np.sum(mids < 2000**2))
        assert rows > 1 and 0 < split < len(mids) and split % rows != 0
        self.assert_matches_dense(500_000, 2000)

    def test_every_bucket_takes_the_series_at_the_lll_defaults(self):
        # kmax = lmax^2: every exponent l^2 / 2k is at most 1/2, so no exp is
        # taken once the grid is built, and the sum still matches the oracle
        ls = np.arange(0, 2001, 2, dtype=np.float64)
        grid = _k_tail_grid(4_000_000)
        assert grid[1][0] >= 2000**2

        def refuse(*args, **kwargs):
            raise AssertionError("exp taken on the grid")

        with mock.patch.object(return_laws, "_k_tail_grid", lambda kmax: grid), \
                mock.patch.object(np, "exp", refuse):
            contrib, covered = _k_tail_completion(4_000_000, ls)
        want, want_covered = dense_k_tail_completion(4_000_000, ls)
        np.testing.assert_allclose(contrib, want, rtol=1e-13, atol=0)
        assert abs(covered - want_covered) <= 1e-13 * want_covered

    @pytest.mark.parametrize("kmax, lmax", [
        (4_000_000, 2000), (160_000, 400), (1600, 40), (10**9, 200), (500_000, 2000),
    ])
    def test_within_a_few_ulps_of_the_exact_sum(self, kmax, lmax):
        # against each bucket's math.exp summed exactly by fsum, at l = 0, the
        # middle and the edge, where the series' exponent reaches 1/2: two
        # units of 2^-53 measured, eight allowed; a series cut four terms
        # short is 4.8e-14 off at the edge, below the dense oracle's 1e-13
        weights, mids = completion_grid(kmax)
        ls = np.arange(0, lmax + 1, 2, dtype=np.float64)
        contrib = _k_tail_completion(kmax, ls)[0]
        for i in (0, len(ls) // 2, len(ls) - 1):
            l = float(ls[i])
            exact = math.fsum(
                float(w) * math.sqrt(2 / (math.pi * k)) * math.exp(-l * l / (2 * k))
                for w, k in zip(weights, mids.tolist())
            )
            assert abs(contrib[i] - exact) <= 8 * 2**-53 * exact, (l, contrib[i], exact)

    def test_window_longer_than_the_budget(self):
        # 35,001 window entries against 2^14, all of them in the series: it
        # holds no grid x window matrix; the grid from 5e17 has a few dozen
        # buckets, so the oracle stays small
        assert 35_001 > return_laws._BLOCK_ENTRIES
        self.assert_matches_dense(5 * 10**17, 70_000)

    @pytest.mark.parametrize("lmax", [2000, 20_000])
    def test_peak_memory_does_not_grow_with_the_window(self, lmax):
        # a dense grid x window matrix would be 41 MB per copy at lmax = 2000
        assert traced_peak(lambda: return_position_law(lmax, 4_000_000)) < 8_000_000

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

    def test_closed_form_oracle_matches_direct_sum(self):
        # the oracle at M = 10^3 against its sum over 10^3 < m <= 10^5, with
        # the oracle itself beyond 10^5 (1% of the value at l = 0), where its
        # error is below 1e-20; a = t^2 / Y runs from 0 to 90, through both
        # branches of the incomplete gamma
        kmax, top = 2000, 10**5
        ls = np.array([0.0, 20.0, 60.0, 200.0, 600.0])
        m = np.arange(kmax // 2 + 1, top + 1, dtype=np.float64)
        terms = survival_series(top)[kmax // 2 :].astype(np.float64) / ((2 * m - 1) * np.sqrt(np.pi * m))
        direct = np.array([np.sum(terms * np.exp(-((l / 2) ** 2) / m)) for l in ls])
        direct += k_tail_closed_form(2 * top, ls)
        np.testing.assert_allclose(k_tail_closed_form(kmax, ls), direct, rtol=1e-13, atol=0)

    def test_grid_within_its_accuracy_of_the_closed_form(self):
        # documented as 7e-7 at the lll defaults; 7.15e-7 at l = 0 and
        # 1.20e-7 at l = 2000, the grid below the closed form throughout
        ls = np.arange(0, 2001, 2, dtype=np.float64)
        grid = _k_tail_completion(4_000_000, ls)[0].astype(np.float64)
        np.testing.assert_allclose(grid, k_tail_closed_form(4_000_000, ls), rtol=1e-6, atol=0)


class TestTailFunctional:
    @pytest.mark.parametrize("j, k", [(1, 1), (1, 7), (3, 40), (21, 1000)])
    def test_tail_telescopes(self, j, k):
        # closed_form's entries at 2j..2k sum to the difference of the end
        # terms, in exact rationals; tail_beyond is its limit k -> infinity
        total = sum(Fraction(2, 4 * i * i - 1) for i in range(j, k + 1))
        assert total == Fraction(1, 2 * j - 1) - Fraction(1, 2 * k + 1)

    @pytest.mark.parametrize("lmax, kmax", [(40, 1600), (200, 40_000), (2000, 4_000_000)])
    def test_leaked_mass_is_the_exact_tail(self, lmax, kmax):
        # leaked is one minus the lmax + 1 window entries, each within the bound
        law = return_position_law(lmax, kmax)
        assert abs(law.leaked - 2 * tail_beyond(lmax)) <= (lmax + 1) * law.error_bound

    @pytest.mark.parametrize("lmax, kmax", [(40, 1600), (200, 40_000), (2000, 4_000_000)])
    def test_values_within_their_certificate(self, lmax, kmax):
        law = return_position_law(lmax, kmax)
        for m in cli._ladder(lmax):
            nterms = lmax // 2 - (m + 1) // 2 + 1
            certified = m * (nterms + (lmax + 1) / 2) * law.error_bound
            assert abs(tail_functional(law, m) - m * tail_beyond(m - 2)) <= certified, m

    def test_values_near_their_limit(self, pos_law_small):
        # closed form: m * P(pos >= m) = m / (pi (m - 1)) for even m
        law = pos_law_small
        for m in (50, 100, 200):
            value = tail_functional(law, m)
            want = m * tail_beyond(m - 2)
            assert abs(value - want) < 0.01 * want, m
            # the window entries l = m..lmax and half the leak, each within
            # the law's bound
            t0, top = (m + 1) // 2, law.hi // 2
            assert m * (top - t0 + 1 + (law.hi + 1) / 2) * law.error_bound < 0.10 * value
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


class TestScalarSpecialFunctions:
    # u_m in float64, the `u_float` of the test names, is survival(2m): the
    # value rounded once below m = 9, the series from there on

    @pytest.mark.parametrize("m", [1, 2, 7, 10, 20])
    def test_u_float_matches_gammaln(self, m):
        want = math.exp(gammaln(2 * m + 1) - 2 * gammaln(m + 1) - 2 * m * math.log(2))
        assert abs(survival(2 * m) - want) < 1e-13 * want

    @pytest.mark.parametrize("m", [1, 2, 7, 8, 19, 50, 333, 1000, 5000, 9999])
    def test_u_float_matches_exact_rational(self, m):
        want = float(Fraction(math.comb(2 * m, m), 4**m))
        assert abs(survival(2 * m) - want) < 1e-14 * want

    @pytest.mark.parametrize("m", [10**4, 10**6, 10**9, 10**12, 10**17])
    def test_u_float_matches_gamma_ratio(self, m):
        with mpmath.workdps(40):
            want = mpmath.gamma(m + mpmath.mpf(1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(m + 1))
            assert abs(survival(2 * m) / want - 1) < 1e-15

    def test_survival_is_the_exactly_rounded_table_then_the_series(self):
        # C(2m, m) / 4^m rounded once for m < 9, and from m = 9 on the
        # series, for int and float arrays and for single values alike
        m = np.arange(_TABLE_M + 3)
        x = m + 0.25
        want = _u_series(x) / np.sqrt(np.pi * x)
        want[:9] = [math.comb(2 * k, k) / 4**k for k in range(9)]
        assert np.array_equal(survival(2 * m), want)
        assert np.array_equal(survival(2.0 * m), want)
        ks = [0, 1, 8, 9, _TABLE_M, _TABLE_M + 1]
        assert [survival(2 * k) for k in ks] == want[ks].tolist()
        assert survival(-4) == 1.0
        with pytest.raises(ValueError):
            survival(np.array([2, 3]))

    def test_survival_and_law_within_their_rounding_bound(self):
        # survival and the law as first_return_blocks yields it, against
        # C(2m, m) / 4^m in integers for every m <= 4096, and against mpmath
        # at every 97th m up to 10^6 and at 3,000 m drawn log-uniformly up
        # to 10^9, with four more past 2^51 for survival alone
        c = central_binomials(1, 4096)
        law = first_return_law(2 * 10**6).entries
        for k in range(1, 4097):
            exact = Fraction(c[k], 4**k)
            assert abs(Fraction(survival(2 * k)) - exact) <= survival_rtol(k) * exact, k
            exact /= 2 * k - 1
            assert abs(Fraction(law[k - 1]) - exact) <= law_rtol(k) * exact, k
        drawn = np.exp(np.random.default_rng(97).uniform(math.log(4097), math.log(1e9), 3000))
        ms = [*range(4097, 10**6 + 1, 97), *np.rint(drawn).astype(int).tolist()]
        u = survival(2 * np.array(ms)).tolist()
        for k, got in zip(ms, u):
            exact = u_mp(k)
            assert abs(got - exact) <= survival_rtol(k) * exact, k
            if k <= 10**6:
                exact /= 2 * k - 1
                assert abs(law[k - 1] - exact) <= law_rtol(k) * exact, k
        for k in (2**51 + 1, 2**52 + 3, 10**17, 10**18):
            exact = u_mp(k)
            assert abs(survival(2 * k) - exact) <= survival_rtol(k) * exact, k

    def test_survival_past_the_table_builds_no_table(self, monkeypatch):
        monkeypatch.setattr(return_laws, "_survival_table", mock.Mock(side_effect=AssertionError))
        survival(np.array([2 * _TABLE_M + 2, 4_000_000]))

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
        # the long-double running product of (2m - 1) / 2m
        u = survival_series(20_000).astype(np.float64)
        got = survival(2 * np.arange(1, 20_001))
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

#: k with w = k 2^-53 at and just below u_m, for m on both sides of the table's
#: end: the guess c and its two neighbours move from the table to the series
TABLE_SEAM_KS = [
    int(k) + d
    for k in np.ceil(one_shot.survival_table()[_TABLE_M - 3 :] * 2.0**53)
    for d in (-1, 0)
] + [int(np.ceil(u * 2.0**53)) + d for u in survival(2 * np.array([_TABLE_M + 1, _TABLE_M + 2])) for d in (-1, 0)]


class TestBitIdenticalToOneShot:
    """The blocked table, the in-place samplers and the key-only streams
    give the arrays and streams of their one-shot oracles."""

    def test_table(self):
        assert np.array_equal(_survival_table(), one_shot.survival_table())
        assert np.array_equal(_survival_table(), survival(2 * np.arange(_TABLE_M + 1)))

    @pytest.mark.parametrize("nmax", [2, 8190, 8192, 8194, 8196, 40_000])
    def test_first_return_law_across_blocks(self, nmax):
        # the blocks against survival(2m) / (2m - 1) over every m at once
        m = np.arange(1, nmax // 2 + 1)
        blocks = list(first_return_blocks(nmax))
        assert np.array_equal(np.concatenate([k for k, _ in blocks]), m)
        law = first_return_law(nmax)
        assert np.array_equal(law.entries, survival(2 * m) / (2 * m - 1))
        assert law.leaked == survival(nmax)

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

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        chunk_n=st.sampled_from([1, 7, 4096]).flatmap(
            lambda c: st.tuples(st.just(c), st.integers(1, 400 * min(c, 30)))
        ),
        seams=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(SEAM_LENGTHS)), max_size=40),
    )
    def test_chunked_samplers_on_streams(self, seed, chunk_n, seams):
        # n up to 400 chunks of 1 and 7 and 3 of 4096, with lengths at the
        # 64 and 2^62 seams put in among the drawn return times
        chunk, n = chunk_n
        with mock.patch.object(return_laws, "_SAMPLE_CHUNK", chunk):
            r = sample_first_return(stream(seed, 5, RETURN_LANE), n)
            lengths = r.copy()
            for at, length in seams:
                lengths[at % n] = length
            z = sample_position_at(stream(seed, 5, POSITION_LANE), lengths)
        assert np.array_equal(r, one_shot.sample_first_return(one_shot.stream(seed, 5, RETURN_LANE), n))
        want = one_shot.sample_position_at(one_shot.stream(seed, 5, POSITION_LANE), lengths)
        assert np.array_equal(z, want)

    @settings(max_examples=60, deadline=None)
    @given(
        chunk=st.sampled_from([1, 7, 4096]),
        ks=st.lists(
            st.integers(1, 2**53) | st.sampled_from(TABLE_SEAM_KS) | st.integers(1, 2**30),
            min_size=1, max_size=300,
        ),
    )
    def test_chunked_first_return_across_the_table_seam(self, chunk, ks):
        w = np.array(ks, dtype=np.float64) * 2.0**-53
        with mock.patch.object(return_laws, "_SAMPLE_CHUNK", chunk):
            got = sample_first_return(StubGenerator(1.0 - w), len(w))
        assert np.array_equal(got, one_shot.sample_first_return(StubGenerator(1.0 - w), len(w)))

    @pytest.mark.parametrize("n", [return_laws._SAMPLE_CHUNK, 3 * return_laws._SAMPLE_CHUNK + 5])
    def test_several_chunks_at_the_default_size(self, n):
        r = sample_first_return(stream(11, 2, RETURN_LANE), n)
        assert np.array_equal(r, one_shot.sample_first_return(one_shot.stream(11, 2, RETURN_LANE), n))
        r[::1000] = 2.0**62
        z = sample_position_at(stream(11, 2, POSITION_LANE), r)
        assert np.array_equal(z, one_shot.sample_position_at(one_shot.stream(11, 2, POSITION_LANE), r))


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
