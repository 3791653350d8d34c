"""The benchmark's tracer wraps program functions by name, so a renamed or
deleted function breaks it, and its checks count the sampler calls inside
the traced spans; these runs fail here first, not only in a traced
benchmark run.  They read bench/ and change nothing in it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recwalk
from conftest import bench_checks

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


@pytest.mark.parametrize("argv, span", [
    (["lll", "--l-max", "200", "--schedule", "4,8"], "stable_laws.self_convolve"),
    (
        ["green", "--samples", "4", "--direct-samples", "4", "--direct-returns", "100",
         "--schedule", "10,100"],
        "branched_walk.shifted_green_sum",
    ),
    (["classify", "--samples", "3000", "--horizon", "1500"], "branched_walk.classify_point"),
    (["return-law"], "cli.main"),
])
def test_traced_run(tmp_path, argv, span):
    spans = traced_spans(tmp_path, argv)
    assert {"cli.main", span} <= {s["name"] for s in spans}
    if argv[0] == "green":
        # the benchmark's sample-count contract: one first-return draw per
        # auxiliary sample and one stream per direct sample, inside the spans
        assert bench_checks().check_green_spans(spans, {"samples": 4, "direct_samples": 4}) == []


def test_traced_cache_cold_then_warm(tmp_path):
    """A miss builds and saves the law and reads nothing back; a hit loads it."""
    argv = ["lll", "--l-max", "200", "--schedule", "4,8"]
    cold = {s["name"]: s for s in traced_spans(tmp_path, argv)}
    assert {"return_laws.return_position_law", "lawcache.save"} <= set(cold)
    assert "lawcache.load" not in cold
    assert cold["lawcache.load_or_compute"]["attrs"] == {"hit": False}
    warm = {s["name"]: s for s in traced_spans(tmp_path, argv)}
    assert warm["lawcache.load_or_compute"]["attrs"] == {"hit": True}
    assert warm["lawcache.load"]["attrs"]["file_bytes"] > 0
    assert "lawcache.save" not in warm


def traced_spans(cwd, argv) -> list[dict]:
    """The spans of one bench/traced.py run of argv, in cwd."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(recwalk.__file__))}
    spans_path = cwd / "spans.json"
    cache = [] if argv[0] == "return-law" else ["--cache-dir", "cache"]  # return-law reads none
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(spans_path), *argv, "--out", "out.csv", *cache],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_path.read_text())["spans"]
