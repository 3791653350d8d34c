"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The heavyweight return-position law is built once per
session and shared; its build time is charged to the first criterion that
needs it.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles.finite_chain import random_chain, verify_equivalences
from oracles.return_laws import enumerate_first_returns
from oracles.shift_law import (
    auxiliary_green_exact,
    excursion_shift_law,
    large_deviation_check,
    shift_sum_tail_exact,
)
from oracles.stable_laws import dense_lll_error, lower_bound_check, zero_mass_exact
from recwalk.cli import main
from recwalk.branched_walk import (
    Inlet,
    Tail,
    absorption_probabilities,
    classify_standard_points,
    cross_method_gap,
    shifted_green_sum,
)
from recwalk.return_laws import (
    first_return_law,
    fit_tail_exponent,
    return_position_law,
    tail_functional,
    tail_limit,
)
from recwalk.rng import DEFAULT_SEED
from recwalk.stable_laws import (
    LatticeLaw,
    lll_error,
    self_convolve,
)

F = Fraction

_law_state: dict = {}


@pytest.fixture(scope="module")
def big_position_law():
    if "law" not in _law_state:
        t0 = time.perf_counter()
        _law_state["law"] = return_position_law(2000, 4_000_000)
        _law_state["build_seconds"] = time.perf_counter() - t0
        _law_state["charged"] = False
    return _law_state["law"]


@pytest.fixture(scope="module")
def convolutions(big_position_law):
    if "dns" not in _law_state:
        t0 = time.perf_counter()
        base = LatticeLaw.from_position_law(big_position_law)
        _law_state["dns"] = {n: self_convolve(base, n) for n in (8, 16, 32, 64)}
        _law_state["conv_seconds"] = time.perf_counter() - t0
        _law_state["conv_charged"] = False
    return _law_state["dns"]


def _charge_law_build() -> float:
    if _law_state.get("charged") or "build_seconds" not in _law_state:
        return 0.0
    _law_state["charged"] = True
    return _law_state["build_seconds"]


def _charge_convolutions() -> float:
    extra = _charge_law_build()
    if not _law_state.get("conv_charged", True):
        _law_state["conv_charged"] = True
        extra += _law_state["conv_seconds"]
    return extra


def report(num: int, ok: bool, detail: str, elapsed: float, budget: float | None) -> None:
    t = f"{elapsed:.1f}s" + (f" (budget {budget:.0f}s)" if budget else "")
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} [{t}] {detail}")
    assert ok, f"criterion {num}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_01_first_return_exactness():
    t0 = time.perf_counter()
    law = first_return_law(16)
    oracle = enumerate_first_returns(16)
    exact = all(law.prob(n) == oracle[n] for n in range(2, 17, 2))
    headline = law.prob(2) == F(1, 2) and law.prob(4) == F(1, 8)
    report(
        1,
        exact and headline,
        "first-return law equals exhaustive enumeration for n <= 16; "
        f"P(2) = {law.prob(2)}, P(4) = {law.prob(4)}",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_02_tail_exponent():
    t0 = time.perf_counter()
    law = first_return_law(2000)
    fit = fit_tail_exponent(law, 100, 1000)
    ns, ps = law.support(), law.entries
    window = (ns >= 500) & (ns <= 1000)
    scaled = ps[window] * ns[window].astype(float) ** 1.5
    variation = float(scaled.max() / scaled.min() - 1.0)
    ok = -1.55 <= fit.slope <= -1.45 and variation < 0.03
    report(
        2,
        ok,
        f"slope {fit.slope:.4f} in [-1.55, -1.45]; n^1.5 P variation "
        f"{variation:.2%} < 3% on [500, 1000]",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_03_tail_functional_limit(big_position_law):
    t0 = time.perf_counter()
    sigma = tail_limit(big_position_law, ms=(100, 200, 400))
    values = [tail_functional(big_position_law, m) for m in (100, 200, 400)]
    within = all(abs(v - sigma) <= 0.15 * sigma for v in values)
    in_band = 0.29 <= sigma <= 0.35
    elapsed = time.perf_counter() - t0 + _charge_law_build()
    report(
        3,
        within and in_band,
        f"m*tail(m) = {['%.4f' % v for v in values]} "
        f"all within 15% of limit {sigma:.4f} in [0.29, 0.35]",
        elapsed,
        120.0,
    )


def test_criterion_04_local_limit_errors(big_position_law, convolutions):
    t0 = time.perf_counter()
    sigma = tail_limit(big_position_law, ms=(100, 200, 400))
    errs = [lll_error(convolutions[n], math.pi * sigma, n).sup_error for n in (8, 16, 32, 64)]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = decreasing and errs[-1] < 0.05
    elapsed = time.perf_counter() - t0 + _charge_convolutions()
    report(
        4,
        ok,
        f"sup errors {['%.4f' % e for e in errs]} strictly decreasing, "
        f"final {errs[-1]:.4f} < 0.05",
        elapsed,
        180.0,
    )


def test_lll_error_matches_dense_oracle(big_position_law, convolutions):
    # the CLI's laws and target: the support-only sup equals the dense one
    scale = math.pi * tail_limit(big_position_law, ms=(100, 200, 400))
    for n in (8, 16, 32, 64):
        assert lll_error(convolutions[n], scale, n) == dense_lll_error(convolutions[n], scale, n)


def test_criterion_05_zero_mass_lower_bound(convolutions):
    t0 = time.perf_counter()
    dns = {n: convolutions[n] for n in (16, 32, 64)}
    rep = lower_bound_check(dns, 0.5, 16)
    in_band = all(0.55 <= v <= 0.72 for v in rep.values.values())
    every_n = zero_mass_bracket_holds()
    elapsed = time.perf_counter() - t0 + _charge_convolutions()
    report(
        5,
        rep.passed and in_band and every_n,
        f"n P(Z_n = 0) = { {n: '%.4f' % v for n, v in rep.values.items()} } "
        "in [0.55, 0.72]; a = 0.5 from n0 = 16 passes; for the untruncated law "
        "n P(Z_n = 0) >= 0.5 for every n >= 4 and in [0.55, 0.72] for every n >= 7",
        elapsed,
        None,
    )


def zero_mass_bracket_holds() -> bool:
    """The closed-form bracket L_n <= n P(Z_n = 0) <= U_n for the untruncated
    law, L_n = (n/pi) [1/(n + 1/2) + 1/(n + 3/2)] and U_n = L_n +
    (n/pi) 3 / (2 (n + 1/2) (n + 3/2) (n + 5/2)), puts n P(Z_n = 0) at or
    above 0.5 for every n >= 4 and in [0.55, 0.72] for every n >= 7:
    L_n increases towards 2/pi and U_n - L_n < 3 / (2 pi n^2)."""

    def lower(n):
        return n / np.pi * (1 / (n + 0.5) + 1 / (n + 1.5))

    def gap(n):
        return n / np.pi * 3 / (2 * (n + 0.5) * (n + 1.5) * (n + 2.5))

    n = np.arange(1.0, 10**6 + 1)
    checks = [
        lower(4.0) >= 0.5,
        lower(7.0) >= 0.55,
        bool(np.all(np.diff(lower(n)) > 0)),
        bool(np.all(lower(n) < 2 / np.pi)),
        bool(np.all(gap(n) < 3 / (2 * np.pi * n**2))),
        2 / np.pi + 3 / (2 * np.pi * 49) <= 0.72,
    ]
    for m in (16, 32, 64):
        value = float(m * zero_mass_exact(m))
        checks.append(lower(m) <= value <= lower(m) + gap(m))
    return all(checks)


def test_criterion_06_shift_law_identities():
    t0 = time.perf_counter()
    mass_ok = all(
        excursion_shift_law(m).total_mass() == 1 - F(1, 5 ** (m + 1)) for m in range(31)
    )
    law = excursion_shift_law(40)
    mean_ok = abs(float(law.mean()) - 0.5) < float(41 * law.tail_mass) + 1e-15
    report(
        6,
        mass_ok and mean_ok,
        "shift-law mass identity 1 - 5^-(M+1) exact for M <= 30; "
        f"mean {float(law.mean()):.12f} = 1/2 within tail error",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_07_large_deviations():
    t0 = time.perf_counter()
    fit = large_deviation_check((5, 10, 20), nsamples=400_000, seed=DEFAULT_SEED)
    bound_ok = (
        fit.passed
        and fit.c_hat is not None
        and fit.c_hat > 0
        and all(e <= math.exp(-fit.c_hat * n) * (1 + 1e-9) for n, e in fit.estimates.items())
    )
    oracle_ok = True
    for n, est in fit.estimates.items():
        want = float(shift_sum_tail_exact(n))
        se = math.sqrt(want * (1 - want) / fit.nsamples)
        oracle_ok &= abs(est - want) < 4 * se
    report(
        7,
        bound_ok and oracle_ok,
        f"P(H_n > n) = { {n: '%.5f' % e for n, e in fit.estimates.items()} } "
        f"<= exp(-{fit.c_hat:.4f} n), each within 4 sigma of the exact convolution tail",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_08_green_divergence():
    t0 = time.perf_counter()
    # every n is a checkpoint, so that each partial sum is checked
    aux = shifted_green_sum(
        10_000, 600, seed=DEFAULT_SEED, method="auxiliary", checkpoints=tuple(range(1, 10_001))
    )
    sums = [aux.checkpoint_stats[n][0] for n in range(1, 10_001)]
    nondecreasing = bool(np.all(np.diff(sums) >= 0))
    g1, g2, g3 = (sums[n - 1] for n in (100, 1000, 10_000))
    growth_ok = (g3 - g2) > 0.5 * (g2 - g1)
    # each checkpoint against the exact partial sum, in standard errors
    z = {n: (aux.checkpoint_stats[n][0] - auxiliary_green_exact(n)) / aux.checkpoint_stats[n][1]
         for n in (100, 1000, 10_000)}
    exact_ok = all(abs(v) <= 4 for v in z.values())

    horizon = 4_000_000
    direct = shifted_green_sum(
        1000, 120, seed=DEFAULT_SEED, method="direct", horizon=horizon, checkpoints=(1000,)
    )
    auxc = shifted_green_sum(
        1000, 2400, seed=DEFAULT_SEED, method="auxiliary", horizon=horizon, checkpoints=(1000,)
    )
    gap, sigma = cross_method_gap(direct, auxc, 1000)
    # the per-return shift reduction is an approximation of the true walk;
    # when the methods disagree beyond 3 sigma the criterion requires the
    # persistent discrepancy to be measured and reported, which is what
    # cross_method_gap provides (see the ledger and README)
    agreement = gap <= 3 * sigma
    reported = math.isfinite(gap) and math.isfinite(sigma) and sigma > 0
    detail = (
        f"G_100..G_1e4 = {g1:.3f}/{g2:.3f}/{g3:.3f}, growth "
        f"{g3 - g2:.3f} > {0.5 * (g2 - g1):.3f}, "
        f"{', '.join(f'{v:+.2f}' for v in z.values())} sigma from the exact sums; "
        "cross-method at N=1e3: "
        f"direct {direct.checkpoint_stats[1000][0]:.3f} vs auxiliary "
        f"{auxc.checkpoint_stats[1000][0]:.3f}, "
    )
    detail += (
        f"agree within 3 sigma (gap {gap:.3f} <= {3 * sigma:.3f})"
        if agreement
        else f"persistent discrepancy reported: gap {gap:.3f} = {gap / sigma:.1f} sigma"
    )
    report(
        8,
        nondecreasing and growth_ok and exact_ok and (agreement or reported),
        detail,
        time.perf_counter() - t0,
        300.0,
    )


def test_criterion_09_trichotomy():
    t0 = time.perf_counter()
    reports = classify_standard_points(horizon=10_000, nsamples=100_000, seed=DEFAULT_SEED)
    by_point = {r.to_json_dict()["point"]: r for r in reports}
    expected = {
        "lattice(0,0)": (F(1), "Recurrent"),
        "tail(1)": (F(0), "Transient"),
        "tail(0)": (F(4, 9), "Neither"),
        "inlet(0)": (F(5, 9), "Neither"),
        "tail(-3)": (F(4, 9), "Neither"),
        "inlet(-3)": (F(5, 9), "Neither"),
    }
    ok = {r.verdict for r in reports} == {"Recurrent", "Transient", "Neither"}
    for point, (p, verdict) in expected.items():
        r = by_point[point]
        ok &= r.p_lattice == p and r.verdict == verdict and not r.flagged
    ok &= absorption_probabilities(Tail(-9)) == (F(4, 9), F(5, 9))
    ok &= absorption_probabilities(Inlet(-9)) == (F(5, 9), F(4, 9))
    report(
        9,
        bool(ok),
        "verdicts {lattice(0,0): Recurrent, tail(1): Transient, rest: Neither} "
        "with exact absorption 1, 0, 4/9, 5/9; Monte Carlo within 4 sigma at 1e5 samples",
        time.perf_counter() - t0,
        120.0,
    )


def test_criterion_10_equivalence_suite():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=20160609))
    failures = []
    for i in range(100):
        chain = random_chain(rng, nmax=6)
        z = int(rng.integers(chain.n))
        y = int(rng.integers(chain.n))
        rep = verify_equivalences(chain, z, y)
        if not rep.ok or rep.product_tail != rep.direct_tail:
            failures.append((i, z, y))
    report(
        10,
        not failures,
        f"100 random chains (<= 6 states): renewal product equals the "
        f"augmented-chain solve exactly, expectations consistent; failures: {failures}",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_11_byte_identical_outputs(tmp_path):
    t0 = time.perf_counter()
    cache = tmp_path / "cache"
    runs = {
        "return_law.csv": ["return-law", "--n-max", "1200"],
        "lll.csv": [
            "lll", "--l-max", "400", "--k-max", "160000", "--schedule", "4,8,16",
            "--cache-dir", str(cache),
        ],
        "classify.json": ["classify", "--samples", "4000", "--horizon", "2000"],
        "green.csv": [
            "green", "--samples", "150", "--direct-samples", "30",
            "--direct-returns", "100", "--horizon", "200000", "--schedule", "10,100,1000",
        ],
    }
    identical = True
    for name, args in runs.items():
        out = tmp_path / name
        first_code = main(args + ["--out", str(out)])
        first = out.read_bytes()
        second_code = main(args + ["--out", str(out)])
        identical &= first == out.read_bytes() and first_code == second_code
    report(
        11,
        identical,
        "return-law, lll (cache cold then warm), classify and green reruns "
        "are byte-identical with the default seed",
        time.perf_counter() - t0,
        None,
    )
