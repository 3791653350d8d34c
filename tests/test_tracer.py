"""The benchmark's tracer wraps program functions by name, so a renamed or
deleted function breaks it; these runs fail here first, not only in a
traced benchmark run.  They read bench/ and change nothing in it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recwalk

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


@pytest.mark.parametrize("argv, span", [
    (["lll", "--l-max", "200", "--schedule", "4,8"], "stable_laws.self_convolve"),
    (
        ["green", "--samples", "4", "--direct-samples", "4", "--direct-returns", "100",
         "--schedule", "10,100"],
        "branched_walk.shifted_green_sum",
    ),
])
def test_traced_run(tmp_path, argv, span):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(recwalk.__file__))}
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(spans_path), *argv,
         "--out", "out.csv", "--cache-dir", "cache"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {s["name"] for s in json.loads(spans_path.read_text())["spans"]}
    assert {"cli.main", span} <= names
