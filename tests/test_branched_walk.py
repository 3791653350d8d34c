import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import traced_peak
from oracles import samplers as one_shot
from oracles.engine import SparseDist, iterate_push_forward, observe_returns, sample_path
from oracles.shift_law import (
    auxiliary_green_exact,
    auxiliary_green_integrand,
    direct_green_exact,
    excursion_shift_law,
    first_term_exact,
    large_deviation_check,
    shift_sum_tail_exact,
)
from oracles.spaces import Generator, branched_apply, uniform_five
from recwalk import branched_walk, return_laws
from recwalk.branched_walk import (
    CLASSIFY_BLOCK,
    Inlet,
    Lattice,
    Tail,
    absorption_probabilities,
    classify_point,
    classify_standard_points,
    cross_method_gap,
    enters_lattice,
    shifted_green_sum,
    wilson_interval,
)
from recwalk.rng import DIRECT_LANE, SHIFT_LANE, stream

F = Fraction


def eta_convolution_tail(n: int, mmax: int = 45) -> Fraction:
    """Spec-style oracle: convolve the exact shift law n times and sum the
    tail; truncation of the single-step law contributes < n * 5^-(mmax+1)."""
    step = excursion_shift_law(mmax).probs
    law = {0: F(1)}
    for _ in range(n):
        nxt = {}
        for x, p in law.items():
            for y, q in step.items():
                nxt[x + y] = nxt.get(x + y, F(0)) + p * q
        law = nxt
    return sum((p for x, p in law.items() if x > n), F(0))


class TestShiftLaw:
    def test_zero_shift_probability(self):
        law = excursion_shift_law(10)
        assert law.probs[0] == F(4, 5)
        assert law.probs[4] == F(4, 125)

    def test_mass_identity_exact(self):
        for mmax in (0, 1, 5, 30):
            law = excursion_shift_law(mmax)
            assert law.total_mass() == 1 - F(1, 5 ** (mmax + 1))
            assert law.total_mass() + law.tail_mass == 1

    def test_mean_half_within_tail(self):
        law = excursion_shift_law(40)
        assert abs(float(law.mean()) - 0.5) < float(41 * law.tail_mass)

    def test_negative_mmax_rejected(self):
        with pytest.raises(ValueError):
            excursion_shift_law(-1)


class TestShiftSumTail:
    def test_single_step(self):
        assert shift_sum_tail_exact(1) == F(1, 5)

    def test_matches_convolution_oracle(self):
        for n in (2, 5, 10):
            closed = shift_sum_tail_exact(n)
            conv = eta_convolution_tail(n)
            assert abs(closed - conv) < F(n + 1, 5**45)

    def test_monotone_decreasing(self):
        vals = [shift_sum_tail_exact(n) for n in (5, 10, 20)]
        assert vals == sorted(vals, reverse=True)


class TestLargeDeviations:
    def test_estimates_match_exact_tails(self):
        fit = large_deviation_check((5, 10, 20), nsamples=200_000, seed=9)
        for n, est in fit.estimates.items():
            want = float(shift_sum_tail_exact(n))
            se = math.sqrt(want * (1 - want) / 200_000)
            assert abs(est - want) < 4 * se, (n, est, want)

    def test_bound_and_rate(self):
        fit = large_deviation_check((5, 10, 20), nsamples=100_000, seed=10)
        assert fit.passed
        assert fit.c_hat is not None and fit.c_hat > 0
        for n, est in fit.estimates.items():
            assert est <= math.exp(-fit.c_hat * n) * (1 + 1e-9)

    def test_reproducible(self):
        a = large_deviation_check((5, 10), nsamples=50_000, seed=4)
        b = large_deviation_check((5, 10), nsamples=50_000, seed=4)
        assert a.estimates == b.estimates


class TestAbsorption:
    def test_exact_values(self):
        assert absorption_probabilities(Lattice(0, 0)) == (F(1), F(0))
        assert absorption_probabilities(Tail(1)) == (F(0), F(1))
        assert absorption_probabilities(Tail(0)) == (F(4, 9), F(5, 9))
        assert absorption_probabilities(Inlet(0)) == (F(5, 9), F(4, 9))
        assert absorption_probabilities(Tail(-3)) == (F(4, 9), F(5, 9))
        assert absorption_probabilities(Inlet(-3)) == (F(5, 9), F(4, 9))

    def test_mass_splits_exactly(self):
        for s in (Tail(0), Tail(-7), Inlet(0), Inlet(-2), Tail(4), Lattice(2, 0)):
            p, q = absorption_probabilities(s)
            assert p + q == 1


class TestClassification:
    def test_trichotomy_of_standard_points(self):
        reports = classify_standard_points(horizon=2000, nsamples=4000, seed=6)
        verdicts = {json.dumps(r.to_json_dict()["point"]): r.verdict for r in reports}
        assert {r.verdict for r in reports} == {"Recurrent", "Transient", "Neither"}
        assert verdicts['"lattice(0,0)"'] == "Recurrent"
        assert verdicts['"tail(1)"'] == "Transient"
        for pt in ('"tail(0)"', '"inlet(0)"', '"tail(-3)"', '"inlet(-3)"'):
            assert verdicts[pt] == "Neither"

    def test_monte_carlo_consistency(self):
        rep = classify_point(Inlet(0), horizon=2000, nsamples=20_000, seed=8)
        assert not rep.flagged
        p = float(rep.p_lattice)
        assert abs(rep.mc_estimate - p) <= 4 * math.sqrt(p * (1 - p) / 20_000)

    def test_structural_points_are_exact(self):
        rep = classify_point(Tail(2), horizon=100, nsamples=50, seed=1)
        assert rep.mc_estimate == 0.0 and not rep.flagged
        rep = classify_point(Lattice(4, 0), horizon=100, nsamples=50, seed=1)
        assert rep.mc_estimate == 1.0 and not rep.flagged

    @pytest.mark.parametrize("n", [1, 50, 2000])
    def test_structural_points_report_exact_intervals(self, n):
        # lattice(0,0) enters at once, tail(1) never: mc and its interval
        # are exact, the upper Wilson end at no hits z^2 / (n + z^2)
        ci = classify_point(Lattice(0, 0), horizon=100, nsamples=n, seed=1).to_json_dict()["mc"]
        assert (ci["estimate"], ci["ci_lo"], ci["ci_hi"]) == (1.0, 1.0, 1.0)
        rep = classify_point(Tail(1), horizon=100, nsamples=n, seed=1)
        assert rep.mc_estimate == 0.0 and rep.ci == wilson_interval(0, n) and rep.ci[0] == 0.0
        z2 = 1.959963984540054**2
        assert abs(rep.ci[1] - z2 / (n + z2)) <= 1e-15

    def test_json_schema(self):
        rep = classify_point(Tail(0), horizon=500, nsamples=2000, seed=2)
        d = rep.to_json_dict()
        assert d["p_recurrent"] == "4/9"
        assert d["p_escape"] == "5/9"
        assert set(d["mc"]) == {"estimate", "ci_lo", "ci_hi", "horizon", "nsamples", "seed"}
        json.dumps(d)  # serializable

    def test_reproducible(self):
        a = classify_point(Tail(-2), horizon=500, nsamples=3000, seed=3)
        b = classify_point(Tail(-2), horizon=500, nsamples=3000, seed=3)
        assert a.mc_estimate == b.mc_estimate

    def test_sample_depends_on_its_index_only(self):
        # one more sample adds at most one entry, across a block boundary too
        counts = [
            round(n * classify_point(Inlet(-1), horizon=500, nsamples=n, seed=3).mc_estimate)
            for n in range(CLASSIFY_BLOCK - 1, CLASSIFY_BLOCK + 3)
        ]
        assert all(0 <= b - a <= 1 for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("start", [Tail(0), Inlet(0), Tail(-3), Inlet(-3)])
    @pytest.mark.parametrize("horizon", [12, 10_000])
    def test_entry_count_matches_one_shot(self, start, horizon):
        # bit for bit, across a block seam: the oracle states both rates and
        # the block size itself, so a 1% change of a rate shows here, where
        # a 4-sigma check at 10^5 samples would see 0.4 sigma
        n = CLASSIFY_BLOCK + 1000
        want = one_shot.count_entries(start, horizon, n, seed=17)
        assert branched_walk._count_entries(start, horizon, n, seed=17) == want

    @pytest.mark.parametrize("start", [Tail(0), Inlet(-3)])
    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("z, flagged", [(4.5, True), (3.5, False)])
    def test_flagged_beyond_4_sigma(self, monkeypatch, start, side, z, flagged):
        # the exact probability planted z standard errors sqrt(p (1 - p) / n)
        # below or above the estimate: an end of the Wilson score interval at z
        n, h = 10_000, 2000
        mc = classify_point(start, horizon=h, nsamples=n, seed=4).mc_estimate
        centre = (mc + z * z / (2 * n)) / (1 + z * z / n)
        half = z * math.sqrt(mc * (1 - mc) / n + z * z / (4 * n * n)) / (1 + z * z / n)
        p = centre + side * half
        assert abs(mc - p) == pytest.approx(z * math.sqrt(p * (1 - p) / n), rel=1e-12)
        monkeypatch.setattr(branched_walk, "_entry_probability", lambda s, horizon: p)
        assert classify_point(start, horizon=h, nsamples=n, seed=4).flagged == flagged

    @pytest.mark.parametrize("start, exact", [
        (Tail(-3), F(3904724, 48828125)),
        (Inlet(0), F(25262601, 48828125)),
    ])
    def test_finite_horizon_matches_push_forward(self, start, exact):
        # the lattice is absorbing, so P(entered by h) = P(X_h in the lattice)
        h, n = 12, 200_000
        law = iterate_push_forward(SparseDist.point(start), uniform_five(), branched_apply, h)
        p = sum((w for x, w in law.entries.items() if isinstance(x, Lattice)), F(0))
        assert p == exact
        rep = classify_point(start, horizon=h, nsamples=n, seed=21)
        assert abs(rep.mc_estimate - float(p)) < 4 * math.sqrt(float(p * (1 - p)) / n)
        # flagged against entry by the horizon, far below the absorption probability
        assert abs(branched_walk._entry_probability(start, h) - float(p)) < 1e-15
        assert not rep.flagged

    @pytest.mark.parametrize("start", [Tail(0), Tail(-2), Inlet(0), Inlet(-3)])
    @pytest.mark.parametrize("h", [1, 4, 9])
    def test_entry_probability_matches_push_forward(self, start, h):
        law = iterate_push_forward(SparseDist.point(start), uniform_five(), branched_apply, h)
        p = sum((w for x, w in law.entries.items() if isinstance(x, Lattice)), F(0))
        assert abs(branched_walk._entry_probability(start, h) - float(p)) < 1e-15

    @pytest.mark.parametrize("start", [Tail(0), Tail(-3), Inlet(0), Inlet(-3)])
    @pytest.mark.parametrize("h", [300, 10**12])  # below and above the cap
    def test_entry_probability_tends_to_absorption(self, start, h):
        want = float(absorption_probabilities(start)[0])
        assert abs(branched_walk._entry_probability(start, h) - want) < 1e-15


class TestEntryRule:
    @given(
        on_tail=st.booleans(),
        k=st.integers(-6, 0),
        word=st.lists(st.sampled_from(list(Generator)), max_size=40),
        later=st.lists(st.integers(0, 5), min_size=7, max_size=7),
    )
    def test_rule_matches_folded_word(self, on_tail, k, word, later):
        state = Tail(k) if on_tail else Inlet(k)
        for g in word:
            state = branched_apply(g, state)
        # waits read off the word: the steps up to and including each a
        waits, run = [], 0
        for g in word:
            run += 1
            if g is Generator.A:
                waits.append(run)
                run = 0
        # firings the word does not reach come after it, after `later` more steps
        missing = max(0, 1 - k - len(waits))
        waits += [1 + e + (run if m == 0 else 0) for m, e in enumerate(later[:missing])]
        waits = np.array(waits[: 1 - k])
        entered = isinstance(state, Lattice)
        # only the total and the last wait matter: the leading waits come merged
        assert bool(enters_lattice(on_tail, waits[:-1].sum(), waits[-1], len(word))) == entered


# frozen characteristic-function oracle values for the auxiliary model
AUX_T1 = 0.326147
AUX_T2 = 0.197163

# derived exact first terms of the direct walk: with q the return-position
# law, t1 = (4/5) q(0) and t2 = (4/25) q(2) + (16/25) (q*q)(0)
DIRECT_T1 = 0.2907042
DIRECT_T2 = 0.1790797


def closed_form(j: int) -> float:
    return (1 - 2 / math.pi) if j == 0 else 2 / (math.pi * (4 * j * j - 1))


def every(n: int) -> tuple[int, ...]:
    """Checkpoints 1..n: shifted_green_sum then reports every partial sum."""
    return tuple(range(1, n + 1))


def means(est) -> list[float]:
    """The estimate's partial sums G_1, G_2, ..., in checkpoint order."""
    return [mean for _, (mean, _) in sorted(est.checkpoint_stats.items())]


class TestGreenSumAuxiliary:
    def test_first_term_exact_sum(self, pos_law_small):
        shift = excursion_shift_law(40)
        val = first_term_exact(pos_law_small, shift)
        assert abs(val - AUX_T1) < 1e-4

    def test_first_term_monte_carlo(self, pos_law_small):
        est = shifted_green_sum(1, 20_000, seed=12, method="auxiliary")
        t1 = est.checkpoint_stats[1][0] - 1.0
        want = first_term_exact(pos_law_small, excursion_shift_law(40))
        assert abs(t1 - want) < 3 * math.sqrt(want * (1 - want) / 20_000)

    def test_partial_sums_nondecreasing(self):
        est = shifted_green_sum(300, 300, seed=13, method="auxiliary", checkpoints=every(300))
        sums = means(est)
        assert np.all(np.diff(sums) >= 0)
        assert 1.0 <= sums[0] <= 2.0  # the n = 0 term plus one indicator

    def test_growth_against_frozen_oracle(self):
        est = shifted_green_sum(1000, 900, seed=14, method="auxiliary", checkpoints=(100, 1000))
        m100, s100 = est.checkpoint_stats[100]
        m1000, s1000 = est.checkpoint_stats[1000]
        assert abs(m100 - auxiliary_green_exact(100)) < 4 * s100
        assert abs(m1000 - auxiliary_green_exact(1000)) < 4 * s1000

    def test_capped_method_within_4_sigma(self):
        # the method behind green's auxiliary-capped rows, at a horizon no
        # walk reaches: its estimate is of the exact G_N itself
        est = shifted_green_sum(
            1000, 1000, seed=37, method="auxiliary", horizon=10**15, checkpoints=(1000,)
        )
        assert est.exhausted == 0
        mean, se = est.checkpoint_stats[1000]
        assert abs(mean - auxiliary_green_exact(1000)) < 4 * se

    def test_shift_stream_independence(self, pos_law_small, monkeypatch):
        # swapping the shift seed changes individual indicators but not the
        # estimate beyond noise
        a = shifted_green_sum(1, 20_000, seed=15, method="auxiliary")

        def shift_seed_99(seed, index, lane):
            return stream(99 if lane == SHIFT_LANE else seed, index, lane)

        monkeypatch.setattr(branched_walk, "stream", shift_seed_99)
        b = shifted_green_sum(1, 20_000, seed=15, method="auxiliary")
        want = first_term_exact(pos_law_small, excursion_shift_law(40))
        se = math.sqrt(want * (1 - want) / 20_000)
        g1a, g1b = a.checkpoint_stats[1][0], b.checkpoint_stats[1][0]
        assert g1a != g1b  # indicators really changed
        assert abs(g1a - g1b) < 6 * se

    def test_reproducible(self):
        a = shifted_green_sum(50, 200, seed=16, method="auxiliary", checkpoints=every(50))
        b = shifted_green_sum(50, 200, seed=16, method="auxiliary", checkpoints=every(50))
        assert a.checkpoint_stats == b.checkpoint_stats


class TestAuxiliaryReturns:
    """One auxiliary sample's hits and times, drawn and summed in chunks."""

    @pytest.mark.parametrize("chunk", [1, 7, 4096, return_laws._SAMPLE_CHUNK])
    @pytest.mark.parametrize("timed", [False, True])
    def test_chunked_matches_one_shot(self, monkeypatch, chunk, timed):
        n = 3 * chunk + 5 if chunk > 1 else 500  # several chunks and a part
        monkeypatch.setattr(return_laws, "_SAMPLE_CHUNK", chunk)
        monkeypatch.setattr(branched_walk, "_SAMPLE_CHUNK", chunk)
        hit, times = branched_walk._auxiliary_returns(2**63 + 9, 4, n, timed)
        want_hit, want_times = one_shot.auxiliary_returns(2**63 + 9, 4, n, timed)
        assert hit.any() and np.array_equal(hit, want_hit)
        assert (times is None) == (not timed) and np.array_equal(times, want_times)

    def test_memory_of_one_sample(self):
        # r, the positions and a chunk of temporaries: 6.2 arrays of n when
        # every draw of a sampler was worked on at once
        n = 10**6
        peak = traced_peak(lambda: branched_walk._auxiliary_returns(7, 3, n, False))
        assert peak <= 3.5 * 8 * n

    def test_one_sample_held_at_a_time(self):
        # a sample's hits and times are dropped before the next one is
        # drawn: 3.6 arrays of n when they were held over
        n = 10**6
        peak = traced_peak(
            lambda: shifted_green_sum(n, 2, seed=1, method="auxiliary", horizon=4_000_000)
        )
        assert peak <= 3 * 8 * n


class TestDirectReturns:
    """One direct sample's hits and times: the idle steps drawn and the walk
    of j taken in chunks, j carried from chunk to chunk."""

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1, 2 * 2**16 + 3])
    def test_matches_one_shot(self, n):
        assert return_laws._SAMPLE_CHUNK == 2**16
        for horizon in (1000, 4_000_000):
            hit, times = branched_walk._direct_returns(stream(7, 3, DIRECT_LANE), n, horizon)
            want_hit, want_times = one_shot.direct_returns(stream(7, 3, DIRECT_LANE), n, horizon)
            assert np.array_equal(hit, want_hit)
            assert times.tobytes() == want_times.tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_hits_across_chunk_seams(self, monkeypatch, chunk):
        # a short horizon keeps the steps of j small, so hits come in
        # several chunks
        n = 3 * chunk + 5 if chunk > 1 else 40
        monkeypatch.setattr(branched_walk, "_SAMPLE_CHUNK", chunk)
        hits = 0
        for i in range(10):
            hit, times = branched_walk._direct_returns(stream(2**63 + 9, i, DIRECT_LANE), n, 50)
            want = one_shot.direct_returns(stream(2**63 + 9, i, DIRECT_LANE), n, 50)
            assert np.array_equal(hit, want[0]) and times.tobytes() == want[1].tobytes()
            hits += int(hit.sum())
        assert hits >= 10

    def test_memory_of_one_sample(self):
        # r, the steps, the pauses, the hits and a chunk of temporaries:
        # 9.25 arrays of n when the walk of j read lists of every return
        n = 10**6
        peak = traced_peak(
            lambda: branched_walk._direct_returns(stream(7, 3, DIRECT_LANE), n, 4_000_000)
        )
        assert peak <= 3.5 * 8 * n


class TestAuxiliaryGreenExact:
    @pytest.mark.parametrize("n, want", [(100, 3.30304), (1000, 4.47171), (10_000, 5.64401)])
    def test_pinned_values_match_adaptive_quadrature(self, n, want):
        value = auxiliary_green_exact(n)
        assert abs(value - want) < 5e-6
        # a second rule: adaptive Gauss-Kronrod, with breakpoints at the scale 1/n
        points = [c / n for c in (0.1, 1, 10, 100) if c < n]
        adaptive, _ = quad(auxiliary_green_integrand, 0, math.pi / 2, args=(n,),
                           points=points, limit=2000, epsabs=1e-13, epsrel=1e-13)
        assert abs(value - 2 / math.pi * adaptive) < 1e-12

    def test_decade_increments_approach_the_log_rate(self):
        # psi(t) = 1 - |t| + it/2 + O(t^2) near 0: Cauchy steps of scale 1 and
        # a drift of 1/2, the mean shift burst, so P(S_k = 0) ~ 8 / (5 pi k)
        # on 2Z and G_N gains (8 / (5 pi)) ln 10 = 1.17270 a decade
        rate = 8 / (5 * math.pi) * math.log(10)
        g = [auxiliary_green_exact(10**k) for k in (2, 3, 4)]
        first, second = (abs(b - a - rate) for a, b in zip(g, g[1:]))
        assert second < first and second < 1e-3

    def test_first_terms(self, pos_law_small):
        g1, g2 = auxiliary_green_exact(1), auxiliary_green_exact(2)
        assert abs(g1 - 1 - first_term_exact(pos_law_small, excursion_shift_law(40))) < 1e-4
        assert abs(g2 - g1 - AUX_T2) < 1e-6


def dense_direct_green(n: int, points: int) -> float:
    """Oracle for direct_green_exact: the same chain pushed forward by a
    dense points x points kernel, with nu wrapped on the period in closed
    form, no transform: nu(2j) = [j = 0] + (1 / 2 pi) / (j^2 - 1/4), and
    sum over r of 1 / (x + r L) = (pi / L) cot(pi x / L) gives the wrapped
    nu_L(k) = [k = 0] + (1 / 2L) [cot(pi (k - 1/2) / L) - cot(pi (k + 1/2) / L)]."""
    k = np.arange(points)
    signed = np.where(k < points // 2, k, k - points)
    cot = 1 / np.tan(np.pi * (signed[:, None] + np.array([-0.5, 0.5])) / points)
    nu = (signed == 0) + (cot[:, 0] - cot[:, 1]) / (2 * points)
    kernel = 0.8 * nu[(k[:, None] - k[None, :]) % points]
    # a pause: +1 index from k >= 0, the last onto -points / 2; else stay
    kernel[np.where(signed >= 0, (k + 1) % points, k), k] += 0.2
    p = np.zeros(points)
    p[0] = total = 1.0
    for _ in range(n):
        p = kernel @ p
        total += p[0]
    return total


#: G_1000 of the direct walk's embedded chain: direct_green_exact(1000, 2**17)
#: = 3.4580686, which takes 7.5 s on 2 cores, too long for a test; going
#: from 2^17 to 2^19 points moves it by 5e-6
DIRECT_G1000 = 3.45807


class TestDirectGreenExact:
    """The push-forward of the direct walk's embedded chain j_n, the exact
    G_N of the walk that green's direct rows sample."""

    @pytest.mark.parametrize("n, points", [(1, 64), (2, 64), (10, 128), (30, 256)])
    def test_matches_dense_push_forward(self, n, points):
        assert abs(direct_green_exact(n, points) - dense_direct_green(n, points)) < 1e-13

    def test_first_terms_and_pinned_g100(self):
        # G_1 and G_2 from the derived first terms; G_100 to the ROADMAP's
        # five decimals, and halving the window moves it by 1.3e-5
        g1, g2 = (direct_green_exact(n, 2**14) for n in (1, 2))
        assert abs(g1 - 1 - DIRECT_T1) < 1e-6 and abs(g2 - g1 - DIRECT_T2) < 1e-6
        g100 = direct_green_exact(100, 2**14)
        assert abs(g100 - 2.83878) < 1e-5
        assert abs(g100 - direct_green_exact(100, 2**13)) < 2e-5

    def test_direct_method_within_4_sigma_at_1000(self):
        # at green's default --direct-returns, against the pinned G_1000
        est = shifted_green_sum(1000, 1000, seed=39, method="direct", horizon=10**15)
        assert est.exhausted == 0
        mean, se = est.checkpoint_stats[1000]
        assert abs(mean - DIRECT_G1000) < 4 * se

    def test_direct_method_within_4_sigma(self):
        # at a horizon no walk reaches, the direct estimate is of G_N itself
        est = shifted_green_sum(100, 1000, seed=29, method="direct", horizon=10**15)
        assert est.exhausted == 0
        mean, se = est.checkpoint_stats[100]
        assert abs(mean - direct_green_exact(100, 2**14)) < 4 * se


class TestGreenSumDirect:
    def test_first_terms_match_derived_oracles(self):
        assert abs(DIRECT_T1 - 0.8 * closed_form(0)) < 1e-6
        nunu0 = closed_form(0) ** 2 + 2 * sum(closed_form(j) ** 2 for j in range(1, 5000))
        assert abs(DIRECT_T2 - (0.16 * closed_form(1) + 0.64 * nunu0)) < 1e-6
        est = shifted_green_sum(
            2, 8000, seed=17, method="direct", horizon=50_000, checkpoints=every(2)
        )
        t = np.diff([1.0, *means(est)])
        for n, want in ((1, DIRECT_T1), (2, DIRECT_T2)):
            se = math.sqrt(want * (1 - want) / 8000)
            assert abs(t[n - 1] - want) < 4 * se, (n, t[n - 1], want)

    def test_exhaustion_reported(self):
        est = shifted_green_sum(200, 100, seed=18, method="direct", horizon=3000)
        assert est.exhausted > 0
        assert est.exhausted <= 100

    def test_matches_step_level_oracle(self):
        # the five-generator walk stepped state by state through the engine
        h, n_returns, cps = 400, 20, (5, 20)
        n_oracle = 2000
        vals = np.zeros((n_oracle, len(cps)))
        short = 0
        for i in range(n_oracle):
            traj = sample_path(branched_apply, uniform_five(), Lattice(0, 0), h, 22, i)
            obs = observe_returns(traj, lambda s: s.i, lambda s: s.j, n_returns)
            hits = np.zeros(n_returns)
            hits[: obs.completed] = np.array(obs.positions) == 0
            vals[i] = 1.0 + np.cumsum(hits)[np.array(cps) - 1]
            short += obs.completed < n_returns
        n_direct = 4000
        est = shifted_green_sum(
            n_returns, n_direct, seed=23, method="direct", horizon=h, checkpoints=cps
        )
        for col, cp in enumerate(cps):
            mean, se = est.checkpoint_stats[cp]
            want, want_se = vals[:, col].mean(), vals[:, col].std(ddof=1) / math.sqrt(n_oracle)
            assert abs(mean - want) < 4 * math.hypot(se, want_se), (cp, mean, want)
        p, q = short / n_oracle, est.exhausted / n_direct
        assert 0 < p < 1
        assert abs(p - q) < 4 * math.sqrt(p * (1 - p) / n_oracle + q * (1 - q) / n_direct)

    def test_pause_probability(self):
        # an excursion takes R >= 2 steps, so a unit time increment is a pause
        n = 200_000
        _, times = branched_walk._direct_returns(stream(24, 0, DIRECT_LANE), n, 10**6)
        frac = np.mean(np.diff(times, prepend=0.0) == 1.0)
        assert abs(frac - 0.2) < 4 * math.sqrt(0.2 * 0.8 / n)

    def test_reproducible(self):
        kw = dict(method="direct", horizon=20_000, checkpoints=every(20))
        a = shifted_green_sum(20, 100, seed=19, **kw)
        b = shifted_green_sum(20, 100, seed=19, **kw)
        assert a.checkpoint_stats == b.checkpoint_stats


class TestCheckpointCounts:
    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(["auxiliary", "auxiliary-horizon", "direct"]),
        n=st.integers(1, 80),
        nsamples=st.integers(2, 25),
        seed=st.integers(0, 2**64 - 1),
        horizon=st.integers(2, 10**4),
    )
    def test_means_are_per_return_counts(self, case, n, nsamples, seed, horizon):
        # every checkpoint mean equals, bit for bit, the cumulative hit count
        # by return n over all samples divided once by nsamples
        method = "direct" if case == "direct" else "auxiliary"
        horizon = None if case == "auxiliary" else horizon
        est = shifted_green_sum(
            n, nsamples, seed=seed, method=method, horizon=horizon, checkpoints=every(n)
        )
        hits_by_n = np.zeros(n + 1, dtype=np.int64)
        for i in range(nsamples):
            if method == "auxiliary":
                hit, times = branched_walk._auxiliary_returns(seed, i, n, horizon is not None)
            else:
                hit, times = branched_walk._direct_returns(
                    stream(seed, i, DIRECT_LANE), n, horizon
                )
            idx = np.flatnonzero(hit)
            if times is not None:
                idx = idx[times[idx] <= horizon]
            hits_by_n += np.bincount(idx + 1, minlength=n + 1)
        hits_by_n[0] = nsamples
        per_return = np.cumsum(hits_by_n) / nsamples
        assert sorted(est.checkpoint_stats) == list(range(1, n + 1))
        for k in range(1, n + 1):
            assert est.checkpoint_stats[k][0] == per_return[k], k


class TestCrossMethod:
    def test_gap_is_measured_and_reported(self):
        # the per-return shift model is an approximation of the true walk:
        # the gap must come out finite, reproducible and quantified
        direct = shifted_green_sum(100, 200, seed=20, method="direct",
                                   horizon=400_000, checkpoints=(100,))
        aux = shifted_green_sum(100, 2000, seed=20, method="auxiliary",
                                horizon=400_000, checkpoints=(100,))
        gap, sigma = cross_method_gap(direct, aux, 100)
        assert sigma > 0
        assert gap < 1.0  # same order; the discrepancy is a modest fraction of G

    def test_methods_draw_disjoint_streams(self, monkeypatch):
        # cross_method_gap treats the two estimates as independent
        keys = {}
        for method in ("direct", "auxiliary"):
            seen = keys[method] = set()

            def recording(seed, index=0, lane=0, seen=seen):
                seen.add((seed, index, lane))
                return stream(seed, index, lane)

            monkeypatch.setattr(branched_walk, "stream", recording)
            shifted_green_sum(5, 20, seed=24, method=method, horizon=10_000)
        assert keys["direct"] and keys["auxiliary"]
        assert not keys["direct"] & keys["auxiliary"]

    def test_classify_and_auxiliary_draw_disjoint_streams(self, monkeypatch):
        # the auxiliary positions have their own lane, apart from classify's
        keys = {}
        runs = {
            "classify": lambda: classify_point(Tail(0), horizon=100, nsamples=20, seed=24),
            "auxiliary": lambda: shifted_green_sum(5, 20, seed=24, method="auxiliary"),
        }
        for name, run in runs.items():
            seen = keys[name] = set()

            def recording(seed, index=0, lane=0, seen=seen):
                seen.add((seed, index, lane))
                return stream(seed, index, lane)

            monkeypatch.setattr(branched_walk, "stream", recording)
            run()
        assert keys["classify"] and keys["auxiliary"]
        assert not keys["classify"] & keys["auxiliary"]

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            shifted_green_sum(10, 10, seed=25, method="teleport")

    def test_direct_requires_a_horizon(self):
        with pytest.raises(ValueError, match="requires a horizon"):
            shifted_green_sum(10, 10, seed=25, method="direct")

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            shifted_green_sum(10, 10, seed=25, method="auxiliary", checkpoints=(50,))
