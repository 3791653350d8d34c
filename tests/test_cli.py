import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recwalk

from recwalk.cli import main
from recwalk.lawcache import (
    CacheCorruptionError,
    load_or_compute_position_law,
    load_position_law,
    position_law_path,
    save_position_law,
)
from recwalk.return_laws import return_position_law, tail_functional


class TestLawCache:
    def test_roundtrip_preserves_values(self, tmp_path):
        law = return_position_law(100, 10_000)
        save_position_law(law, tmp_path)
        back = load_position_law(position_law_path(tmp_path, 100, 10_000))
        assert back.lmax == law.lmax and back.kmax == law.kmax
        assert np.max(np.abs(back.values.astype(float) - law.values.astype(float))) < 1e-17
        assert back.error_bound == law.error_bound

    @settings(max_examples=30, deadline=None)
    @given(half_l=st.integers(1, 60), half_k=st.integers(1, 3000), k_tail=st.booleans())
    def test_roundtrip_property(self, half_l, half_k, k_tail):
        law = return_position_law(2 * half_l, 2 * half_k, k_tail)
        with tempfile.TemporaryDirectory() as cache_dir:
            back = load_position_law(save_position_law(law, cache_dir))
        assert (back.lmax, back.kmax) == (law.lmax, law.kmax)
        assert np.max(np.abs(back.values - law.values)) < 1e-17
        assert back.error_bound == law.error_bound
        assert back.tail_mass == law.tail_mass
        assert back.k_tail_completed == law.k_tail_completed

    def test_derived_quantities_stable_across_reload(self, tmp_path):
        law, hit = load_or_compute_position_law(tmp_path, 100, 10_000)
        assert not hit
        again, hit2 = load_or_compute_position_law(tmp_path, 100, 10_000)
        assert hit2
        assert tail_functional(law, 30).value == tail_functional(again, 30).value

    def test_failed_replace_leaves_clean_miss(self, tmp_path, monkeypatch):
        import recwalk.lawcache as lawcache

        def broken_replace(src, dst):
            raise OSError("disk full")

        law = return_position_law(100, 10_000)
        monkeypatch.setattr(lawcache.os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            save_position_law(law, tmp_path)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
        _, hit = load_or_compute_position_law(tmp_path, 100, 10_000)
        assert not hit

    def test_corruption_detected(self, tmp_path):
        law = return_position_law(100, 10_000)
        path = save_position_law(law, tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:20]) + "\n")
        with pytest.raises(CacheCorruptionError, match="delete"):
            load_position_law(path)


def run(args):
    return main([str(a) for a in args])


@pytest.mark.parametrize("argv", [
    ["return-law", "--n-max", 100],
    ["lll", "--l-max", 4],
    ["lll", "--l-max", 40, "--k-max", 2],  # refused inside the library
    ["green", "--direct-returns", 0],
    ["green", "--samples", 1],
    ["green", "--direct-samples", 1],
    ["lll", "--k-max", 0],
    ["classify", "--seed", -1],  # refused by the stream keys
    ["lll", "--schedule", "8,8"],
    ["green", "--schedule", "100,100,1000"],
])
def test_bad_input_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--cache-dir", tmp_path / "cache", "--out", out])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: recwalk")
    assert "recwalk: error: " in err and "Traceback" not in err
    assert not out.exists()


class TestLllScheduleBound:
    """--schedule is refused before the law is built when its largest
    n-fold law needs a transform above stable_laws.MAX_TRANSFORM points."""

    @pytest.fixture(autouse=True)
    def no_law(self, monkeypatch):
        import recwalk.lawcache as lawcache

        def build(*args):  # reached only by a schedule within the bound
            raise LookupError("law requested")

        monkeypatch.setattr(lawcache, "load_or_compute_position_law", build)

    def test_too_long_schedule_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "lll.csv"
        # 8389 * 2000 + 1 points pad to 2^25
        with pytest.raises(SystemExit) as exc:
            run(["lll", "--schedule", "8,8389", "--out", out, "--cache-dir", tmp_path])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "recwalk: error: --schedule: the 8389-fold law needs a transform of 33554432" in err
        assert not out.exists() and list(tmp_path.iterdir()) == []

    def test_longest_schedule_within_bound_reaches_the_law(self, tmp_path):
        # 8192 * 2000 + 1 points pad to 2^24, the bound itself
        with pytest.raises(LookupError, match="law requested"):
            run(["lll", "--schedule", "8,8192", "--out", tmp_path / "lll.csv"])


class TestReturnLawCommand:
    def test_default_passes_and_contains_first_row(self, tmp_path):
        out = tmp_path / "rl.csv"
        code = run(["return-law", "--n-max", 2000, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "config" in lines[1]
        first = lines[3].split(",")
        assert first[0] == "2"
        assert abs(float(first[1]) - 0.5) < 1e-15

    def test_odd_nmax_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["return-law", "--n-max", 3, "--out", tmp_path / "x.csv"])
        assert exc.value.code == 1

    def test_byte_identical_rerun(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["return-law", "--n-max", 1200, "--out", out]) == 0
        first = out.read_bytes()
        assert run(["return-law", "--n-max", 1200, "--out", out]) == 0
        assert out.read_bytes() == first


class TestLllCommand:
    def test_small_schedule(self, tmp_path):
        out = tmp_path / "lll.csv"
        code = run([
            "lll", "--l-max", 400, "--k-max", 160_000, "--schedule", "4,8,16",
            "--cache-dir", tmp_path / "cache", "--out", out,
        ])
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[3:]]
        assert [r[0] for r in rows] == ["4", "8", "16"]
        errs = [float(r[1]) for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_log_reports_cache_and_trust(self, tmp_path, caplog):
        args = [
            "lll", "--l-max", 400, "--k-max", 160_000, "--schedule", "4,8",
            "--cache-dir", tmp_path / "cache", "--out", tmp_path / "a.csv",
        ]
        law = return_position_law(400, 160_000)
        for state in ("miss", "hit"):
            caplog.clear()
            with caplog.at_level("INFO", logger="recwalk"):
                assert run(args) == 0
            line = next(r.getMessage() for r in caplog.records if "position law" in r.getMessage())
            assert f"(lmax=400, kmax=160000): cache {state} in " in line
            assert f"error bound {law.error_bound:.3g}, tail mass {law.tail_mass:.3g}" in line

    def test_cache_hit_identical_output(self, tmp_path):
        out = tmp_path / "a.csv"
        args = [
            "lll", "--l-max", 400, "--k-max", 160_000, "--schedule", "4,8",
            "--cache-dir", tmp_path / "cache", "--out", out,
        ]
        assert run(args) == 0
        assert (tmp_path / "cache" / "return_position_L400_K160000.csv").exists()
        cold = out.read_bytes()
        assert run(args) == 0  # cache hit this time
        assert out.read_bytes() == cold

    def test_corrupt_cache_reported(self, tmp_path):
        cache = tmp_path / "cache"
        args = [
            "lll", "--l-max", 400, "--k-max", 160_000, "--schedule", "4,8",
            "--cache-dir", cache, "--out", tmp_path / "a.csv",
        ]
        assert run(args) == 0
        path = cache / "return_position_L400_K160000.csv"
        path.write_text(path.read_text()[:100])
        with pytest.raises(CacheCorruptionError):
            run(args)


class TestClassifyCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "cls.json"
        code = run([
            "classify", "--samples", 3000, "--horizon", 1500, "--out", out,
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        reports = {r["point"]: r for r in payload["reports"]}
        assert reports["lattice(0,0)"]["verdict"] == "Recurrent"
        assert reports["tail(1)"]["verdict"] == "Transient"
        assert reports["tail(0)"]["verdict"] == "Neither"
        assert reports["tail(0)"]["p_recurrent"] == "4/9"
        assert reports["inlet(-3)"]["p_recurrent"] == "5/9"
        assert {r["verdict"] for r in payload["reports"]} == {
            "Recurrent", "Transient", "Neither",
        }

    def test_small_sample_wide_ci_still_exit_zero(self, tmp_path):
        out = tmp_path / "cls.json"
        assert run(["classify", "--samples", 100, "--horizon", 800, "--out", out]) == 0

    def test_short_horizon_exit_zero(self, tmp_path):
        # the Monte Carlo estimates entry by the horizon and is checked against that
        out = tmp_path / "c.json"
        assert run(["classify", "--horizon", 12, "--samples", 1000, "--out", out]) == 0

    def test_reproducible(self, tmp_path):
        out = tmp_path / "a.json"
        run(["classify", "--samples", 500, "--horizon", 500, "--out", out])
        first = out.read_bytes()
        run(["classify", "--samples", 500, "--horizon", 500, "--out", out])
        assert out.read_bytes() == first


class TestGreenCommand:
    def test_schema_and_growth(self, tmp_path):
        out = tmp_path / "green.csv"
        code = run([
            "green", "--samples", 150, "--direct-samples", 30,
            "--direct-returns", 100, "--horizon", 200_000,
            "--schedule", "10,100,1000", "--out", out,
        ])
        assert code == 0
        text = out.read_text()
        assert "auxiliary" in text and "direct" in text
        assert "cross-method-gap" in text
        rows = [ln.split(",") for ln in text.splitlines()[3:]]
        aux_vals = {int(r[1]): float(r[2]) for r in rows if r[0] == "auxiliary"}
        assert aux_vals[10] <= aux_vals[100] <= aux_vals[1000]


def test_package_imports_without_scipy():
    # scipy is a test oracle only, and the package re-exports nothing, so
    # importing the command line loads neither scipy nor finite_chain
    code = (
        "import sys, recwalk.cli; print([m for m in sys.modules"
        " if m.startswith('scipy') or m == 'recwalk.finite_chain'])"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(recwalk.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
