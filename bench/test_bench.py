"""Self-tests of the benchmark's checks and tracing.

Run from the root of the checkout:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import traced

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "import sys; from recwalk.cli import main; sys.exit(main())"

LLL_ARGV = ["lll", "--seed", "5", "--out", "out.csv", "--cache-dir", "cache",
            "--l-max", "2000", "--k-max", "4000000", "--schedule", "8,16,32,64"]
CLASSIFY_ARGV = ["classify", "--seed", "5", "--out", "out.json", "--cache-dir", "cache",
                 "--samples", "1000", "--horizon", "100"]
GREEN_ARGV = ["green", "--seed", "5", "--out", "out.csv", "--cache-dir", "cache",
              "--samples", "40", "--direct-samples", "10", "--direct-returns", "50",
              "--horizon", "20000", "--schedule", "10,50,100"]


def csv_text(argv, columns, rows) -> bytes:
    config = checks.config_of(argv) | {"format": "csv", "verbose": False}
    lines = [f"# {checks.OUTPUT_FORMAT}", "# config: " + json.dumps(config, sort_keys=True),
             ",".join(columns)] + [",".join(map(str, r)) for r in rows]
    return ("\n".join(lines) + "\n").encode()


def lll_output(sup16="1.63047166107107011e-02") -> bytes:
    ref = checks.REFERENCE["lll"]["rows"]
    rows = [(n, sup16 if n == "16" else r["sup_error"], 0, r["n_times_p0"])
            for n, r in ref.items()]
    return csv_text(LLL_ARGV, ["n", "sup_error", "argmax_k", "n_times_p0"], rows)


def classify_output(nsamples=1000) -> bytes:
    reports = [
        {"point": point, "verdict": verdict, "p_recurrent": str(p), "p_escape": str(1 - p),
         "mc": {"estimate": float(p), "ci_lo": 0.0, "ci_hi": 1.0, "horizon": 100,
                "nsamples": nsamples, "seed": 5}}
        for point, (verdict, p) in checks.CLASSIFY_DUE.items()
    ]
    config = checks.config_of(CLASSIFY_ARGV) | {"format": "json", "verbose": False}
    return json.dumps({"format": checks.OUTPUT_FORMAT, "config": config,
                       "reports": reports}).encode()


def green_output(direct_exhausted=0.3) -> bytes:
    rows = [("auxiliary", n, 2.5, 0.1, 0.0) for n in (10, 50, 100)]
    rows += [("direct", n, 2.0, 0.2, direct_exhausted) for n in (10, 50)]
    rows += [("auxiliary-capped", 50, 2.4, 0.1, 0.075),
             ("growth-ratio", "10->50", 1.1, "", ""), ("growth-ratio", "50->100", 1.05, "", ""),
             ("cross-method-gap", 50, 0.4, 0.22, "")]
    return csv_text(GREEN_ARGV, ["method", "n", "value", "stderr", "exhausted_frac"], rows)


def test_good_outputs_pass():
    assert checks.check(0, lll_output(), checks.config_of(LLL_ARGV)) == []
    assert checks.check(0, classify_output(), checks.config_of(CLASSIFY_ARGV)) == []
    assert checks.check(0, green_output(), checks.config_of(GREEN_ARGV)) == []


def test_changed_sup_error_digit_is_rejected(tmp_path):
    requested = checks.config_of(LLL_ARGV)
    assert checks.check(0, lll_output("1.63147166107107011e-02"), requested)
    # A change in the last digit is within the tolerance, but not the same
    # bytes as another run of the same arguments.
    last_digit = lll_output("1.63047166107107012e-02")
    assert checks.check(0, last_digit, requested) == []
    store = checks.DigestStore(tmp_path / "digests.json")
    assert store.compare("src", LLL_ARGV, lll_output()) == []
    assert store.compare("src", LLL_ARGV, lll_output()) == []
    assert store.compare("src", LLL_ARGV, last_digit)
    assert store.compare("other src", LLL_ARGV, last_digit) == []


def test_wrong_exit_code_is_rejected():
    assert checks.check(2, lll_output(), checks.config_of(LLL_ARGV)) == ["exit code 2"]
    assert checks.check(1, None, checks.config_of(LLL_ARGV)) == ["exit code 1"]


def test_classify_with_fewer_samples_is_rejected():
    assert checks.check(0, classify_output(nsamples=999), checks.config_of(CLASSIFY_ARGV))


def test_classify_wrong_verdict_is_rejected():
    doctored = classify_output().replace(b'"4/9"', b'"1/2"', 1)
    assert checks.check(0, doctored, checks.config_of(CLASSIFY_ARGV))


def test_green_with_fewer_samples_is_rejected():
    # 3 of 9 direct samples exhausted, where 10 were requested
    assert checks.check(0, green_output(direct_exhausted=3 / 9), checks.config_of(GREEN_ARGV))
    missing_row = b"".join(line for line in green_output().splitlines(keepends=True)
                           if not line.startswith(b"direct,50"))
    assert checks.check(0, missing_row, checks.config_of(GREEN_ARGV))


def green_spans(aux=40, direct=10, aux_capped=40) -> list[dict]:
    def span(method, leaves):
        return {"name": "branched_walk.shifted_green_sum", "attrs": {"method": method},
                "leaves": leaves}

    return [span("auxiliary", {"return_laws.sample_first_return": [aux, 0.1, 400],
                               "rng.stream": [3 * aux, 0.1, 0]}),
            span("direct", {"rng.stream": [direct, 0.01, 0]}),
            span("auxiliary", {"return_laws.sample_first_return": [aux_capped, 0.1, 400],
                               "rng.stream": [3 * aux_capped, 0.1, 0]})]


def test_traced_green_with_fewer_samples_is_rejected():
    requested = checks.config_of(GREEN_ARGV)
    assert checks.check_green_spans(green_spans(), requested) == []
    # Short ensembles whose sizes divide the requested ones, which the
    # output file alone cannot reveal.
    assert checks.check_green_spans(green_spans(direct=5), requested)
    assert checks.check_green_spans(green_spans(aux_capped=20), requested)
    assert checks.check_green_spans(green_spans()[:2], requested)


def test_cache_mode_is_checked():
    line = "INFO recwalk: position law (lmax=2000, kmax=4000000): cache hit in 0.31s\n"
    assert checks.check_cache_log(line, "hit") == []
    assert checks.check_cache_log(line, "miss")
    assert checks.check_cache_log("", "hit")


def test_quartiles_lie_within_the_values():
    assert run.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    q1, _, q3 = run.quartiles([4.0, 1.0, 3.0])
    assert 1.0 <= q1 <= q3 <= 4.0


def _run(prefix, argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, *prefix, *argv], cwd=cwd, env=env,
                   capture_output=True, timeout=120)
    return (cwd / argv[argv.index("--out") + 1]).read_bytes()


@pytest.mark.parametrize("argv", [
    ["lll", "--out", "out.csv", "--cache-dir", "cache", "--l-max", "60", "--schedule", "2,4"],
    CLASSIFY_ARGV,
    GREEN_ARGV,
], ids=["lll", "classify", "green"])
def test_traced_self_times_add_up_to_main(argv, tmp_path):
    plain = _run(["-c", ENTRY], argv, tmp_path)
    spans_path = tmp_path / "spans.json"
    traced_out = _run([str(Path(traced.__file__)), str(spans_path)], argv, tmp_path)
    assert traced_out == plain
    spans = json.loads(spans_path.read_text())["spans"]
    metrics = traced.summarize(spans)
    self_s = sum(s["end"] - s["start"] - s["child_s"] for s in spans)
    assert self_s + traced.leaf_busy_s(spans) == pytest.approx(metrics["cli.main_s"], rel=1e-9)
    assert metrics["cli.main_s"] > 0
    assert [s["parent"] for s in spans].count(None) == 1
    if argv[0] == "green":
        assert checks.check_green_spans(spans, checks.config_of(argv)) == []
