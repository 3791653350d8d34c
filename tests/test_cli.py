import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recwalk
from conftest import traced_peak
from oracles import samplers as one_shot
from oracles.shift_law import auxiliary_green_exact
from recwalk import branched_walk, cli, lawcache, return_laws, stable_laws
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
        assert (back.lo, back.kmax) == (law.lo, law.kmax)
        assert np.array_equal(back.entries, law.entries)
        assert back.error_bound == law.error_bound
        assert back.leaked == law.leaked

    @settings(max_examples=30, deadline=None)
    @given(half_l=st.integers(1, 60), half_k=st.integers(1, 3000))
    def test_roundtrip_property(self, half_l, half_k):
        law = return_position_law(2 * half_l, 2 * half_k)
        with tempfile.TemporaryDirectory() as cache_dir:
            back = load_position_law(save_position_law(law, cache_dir))
        assert (back.lo, back.kmax) == (law.lo, law.kmax)
        assert np.array_equal(back.entries, law.entries)
        assert back.error_bound == law.error_bound
        assert back.leaked == law.leaked

    def test_derived_quantities_stable_across_reload(self, tmp_path):
        law, hit = load_or_compute_position_law(tmp_path, 100, 10_000)
        assert not hit and list(tmp_path.iterdir()) == []  # a lookup saves nothing
        save_position_law(law, tmp_path)
        again, hit2 = load_or_compute_position_law(tmp_path, 100, 10_000)
        assert hit2
        assert np.array_equal(law.entries, again.entries)
        assert (law.error_bound, law.leaked) == (again.error_bound, again.leaked)
        assert tail_functional(law, 30) == tail_functional(again, 30)

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

    def test_every_flipped_bit_refused_or_harmless(self, tmp_path):
        # one bit flipped in each byte of the file, the bit moving along:
        # the header no longer parses or describes the array, and an entry
        # no longer matches the checksum, or the checksum its entries; a
        # float64 file has no padding, so no flip is left harmless
        law = return_position_law(40, 1600)
        path = save_position_law(law, tmp_path)
        data = path.read_bytes()
        for at, byte in enumerate(data):
            path.write_bytes(data[:at] + bytes([byte ^ 1 << at % 8]) + data[at + 1 :])
            with pytest.raises(CacheCorruptionError):
                load_position_law(path)

    def test_corruption_detected(self, tmp_path):
        path = save_position_law(return_position_law(100, 10_000), tmp_path)
        data = path.read_bytes()
        # numpy's header parser raises TokenError and TypeError on the last two
        unclosed, keyed = data.replace(b"}", b" ", 1), data.replace(b" 'fortran", b"B'fortran", 1)
        for damaged in (data[:-1], data[:200], data[:100], b"", unclosed, keyed):
            path.write_bytes(damaged)
            with pytest.raises(CacheCorruptionError, match="delete the file and rerun"):
                load_position_law(path)


def run(args):
    return main([str(a) for a in args])


def cache_dir(argv, path) -> list:
    """--cache-dir path, for the commands that take it: not return-law."""
    return [] if argv[0] == "return-law" else ["--cache-dir", path]


@pytest.mark.parametrize("argv", [
    ["return-law", "--n-max", 0],
    ["lll", "--l-max", 4],
    ["lll", "--l-max", 40, "--k-max", 2],  # refused inside the library
    ["green", "--direct-returns", 0],
    ["green", "--samples", 1],
    ["green", "--direct-samples", 1],
    ["lll", "--k-max", 0],
    ["classify", "--seed", -1],  # outside the stream keys' range
    ["lll", "--schedule", "8,8"],
    ["green", "--schedule", "100,100,1000"],
    ["return-law", "--n-max", 2_000_002],  # above cli.MAX_RETURN_TIME
    ["green", "--schedule", "100,1000,10000001"],  # above cli.MAX_GREEN_RETURNS
    ["lll", "--k-max", 10**16],  # the boundary column above return_laws.MAX_COLUMN
    ["lll", "--l-max", 400_000, "--schedule", "1,2"],  # the same, by the default --k-max = l_max^2
    ["green", "--samples", 1_000_001],  # above cli.MAX_GREEN_SAMPLES
    ["green", "--direct-samples", 1_000_001],
    ["--verbose", "lll"],  # removed options
    ["return-law", "--seed", 1],
])
def test_bad_input_is_usage_error(tmp_path, capsys, argv):
    # --out lies below two new directories, which a refused run must not make
    with pytest.raises(SystemExit) as exc:
        run(argv + cache_dir(argv, tmp_path / "cache") + ["--out", tmp_path / "new/dir/out.csv"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: recwalk")
    assert "recwalk: error: " in err and "Traceback" not in err
    assert not (tmp_path / "new").exists()


def test_option_surface():
    # the options of each subcommand, read from the parser; --verbose,
    # return-law --seed and return-law --cache-dir set nothing and are gone
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

    def strings(p):
        return [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]

    assert strings(parser) == []
    assert {name: strings(p) for name, p in commands.choices.items()} == {
        "return-law": ["--out", "--n-max"],
        "lll": ["--seed", "--out", "--cache-dir", "--l-max", "--k-max", "--schedule"],
        "classify": ["--seed", "--out", "--cache-dir", "--samples", "--horizon"],
        "green": ["--seed", "--out", "--cache-dir", "--samples", "--direct-samples",
                  "--direct-returns", "--horizon", "--schedule"],
    }


#: the integer options of each command, and those of them that must be
#: positive or even (--seed only has to fit the stream keys)
INT_OPTIONS = {
    "return-law": ("--n-max",),
    "lll": ("--seed", "--l-max", "--k-max"),
    "classify": ("--seed", "--samples", "--horizon"),
    "green": ("--seed", "--samples", "--direct-samples", "--direct-returns", "--horizon"),
}
EVEN_OPTIONS = {"return-law": ("--n-max",), "lll": ("--l-max", "--k-max")}


def _option(options: dict, values: st.SearchStrategy) -> st.SearchStrategy:
    """[command, option, value] for an option of `options` and a value."""
    return st.sampled_from([(c, o) for c, opts in options.items() for o in opts]).flatmap(
        lambda co: values.map(lambda v: [*co, str(v)])
    )


def _schedule(entries: st.SearchStrategy, ok=lambda v: True, min_size=1) -> st.SearchStrategy:
    return st.lists(entries, min_size=min_size, max_size=5).filter(ok).map(
        lambda v: ",".join(map(str, v))
    )


def _increasing_to(last: st.SearchStrategy) -> st.SearchStrategy:
    """A strictly increasing schedule of positive integers ending at `last`."""
    return last.flatmap(lambda n: st.lists(st.integers(1, n - 1), max_size=3, unique=True).map(
        lambda head: ",".join(map(str, [*sorted(head), n]))
    ))


def _even_above(lo: int, hi: int) -> st.SearchStrategy:
    return st.integers(lo // 2 + 1, hi // 2).map(lambda h: 2 * h)


NON_INTEGERS = st.floats().map(repr) | st.text(alphabet="ab.+-_ e", max_size=4)
POSITIVE = {c: tuple(o for o in opts if o != "--seed") for c, opts in INT_OPTIONS.items()}
SCHEDULED = ("lll", "green")

#: argv that must be refused, each with exactly one bad argument
INVALID_ARGV = st.one_of(
    _option(INT_OPTIONS, NON_INTEGERS),
    _option(POSITIVE, st.integers(max_value=0)),
    _option(EVEN_OPTIONS, st.integers(0, 10**7).map(lambda h: 2 * h + 1)),
    _option({c: ("--schedule",) for c in SCHEDULED}, st.one_of(
        st.sampled_from(["", ",", " , "]),
        _schedule(st.integers(1, 10**4), lambda v: any(b <= a for a, b in zip(v, v[1:])), 2),
        _schedule(st.integers(max_value=0)),
        _schedule(st.floats().map(repr) | st.text(alphabet="ab.+-_e", min_size=1, max_size=4)),
    )),
    _option({"return-law": ("--n-max",)}, _even_above(cli.MAX_RETURN_TIME, 10**12)),
    _option({"green": ("--samples", "--direct-samples")},
            st.integers(cli.MAX_GREEN_SAMPLES + 1, 10**12)),
    _option({"green": ("--schedule",)},
            _increasing_to(st.integers(cli.MAX_GREEN_RETURNS + 1, 10**12))),
    _option({"lll": ("--k-max",)}, _even_above(160_000_000_000, 10**15).filter(
        lambda k: return_laws.column_length(2000, k) > return_laws.MAX_COLUMN)),
    _option({"lll": ("--l-max",)}, _even_above(377_640, 10**7).filter(
        lambda l: return_laws.column_length(l, l * l) > return_laws.MAX_COLUMN)),
    _option({"lll": ("--schedule",)}, _increasing_to(st.integers(8389, 10**9).filter(
        lambda n: stable_laws.transform_length(2001, n) > stable_laws.MAX_TRANSFORM))),
)

#: argv with two bad arguments for the same command
TWO_BAD_ARGV = st.tuples(INVALID_ARGV, INVALID_ARGV).filter(lambda ab: ab[0][0] == ab[1][0]).map(
    lambda ab: [*ab[0], *ab[1][1:]]
)
#: a --seed outside [0, 2^64), the range of the stream keys, which every
#: command that takes it refuses when it parses its arguments, lll too,
#: though it draws nothing with it; with small configurations
BAD_SEED_ARGV = st.tuples(
    st.sampled_from([["classify", "--samples", "10", "--horizon", "10"],
                     ["green", "--samples", "2", "--direct-samples", "2", "--schedule", "1,2,3"],
                     ["lll", "--l-max", "40", "--schedule", "2,4"]]),
    st.integers(max_value=-1) | st.integers(min_value=1 << 64),
).map(lambda cv: [*cv[0], "--seed", str(cv[1])])


@settings(max_examples=300, deadline=None)
@given(argv=INVALID_ARGV | TWO_BAD_ARGV | BAD_SEED_ARGV)
def test_invalid_argv_is_usage_error(argv):
    # each command's computation is stubbed out at its law build or its
    # first random stream: an argv that got past the checks would fail here
    # instead of computing, and one refused creates nothing, not even the
    # two directories above --out
    started = AssertionError(f"computation started for {argv}")
    stubs = [(lawcache, "load_or_compute_position_law"), (return_laws, "first_return_blocks"),
             (branched_walk, "stream")]
    with contextlib.ExitStack() as stack, tempfile.TemporaryDirectory() as tmp:
        for module, name in stubs:
            stack.enter_context(mock.patch.object(module, name, side_effect=started))
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", f"{tmp}/new/dir/out", *cache_dir(argv, f"{tmp}/cache")])
        assert os.listdir(tmp) == []
    assert exc.value.code == 1
    text = err.getvalue()
    assert text.startswith("usage: recwalk")
    assert "recwalk: error: " in text and "Traceback" not in text


@pytest.mark.parametrize("command", ["lll", "classify", "green"])
@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_out_of_range_is_named(tmp_path, capsys, command, seed):
    with pytest.raises(SystemExit) as exc:
        run([command, "--seed", seed, "--out", tmp_path / "out", "--cache-dir", tmp_path / "c"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: recwalk")
    bounds = f"in [0, {(1 << 64) - 1}]"  # the range of the stream keys
    assert f"recwalk: error: argument --seed: must be an integer {bounds}, got {seed}" in err
    assert list(tmp_path.iterdir()) == []


#: an unusable --out or --cache-dir for each command, with small configurations:
#: (argv, the path the message names, its OS reason)
UNUSABLE_PATHS = {
    "lll-cache-dir-is-a-file": (["lll", "--l-max", 40, "--schedule", "2,4",
                                 "--cache-dir", "{file}", "--out", "{dir}/out.csv"],
                                "--cache-dir: cannot use {file}", "File exists"),
    "classify-out-below-a-file": (["classify", "--samples", 10, "--horizon", 10,
                                   "--out", "{file}/x.json"],
                                  "--out: cannot use {file}/x.json", "Not a directory"),
    "return-law-out-is-a-directory": (["return-law", "--n-max", 200, "--out", "{dir}"],
                                      "--out: cannot use {dir}", "Is a directory"),
    "green-out-is-a-directory": (["green", "--samples", 2, "--direct-samples", 2,
                                  "--schedule", "1,2,3", "--out", "{dir}"],
                                 "--out: cannot use {dir}", "Is a directory"),
}


@pytest.mark.parametrize("case", UNUSABLE_PATHS)
def test_unusable_path_is_usage_error(tmp_path, capsys, case):
    argv, named, reason = UNUSABLE_PATHS[case]
    paths = {"file": tmp_path / "file", "dir": tmp_path}
    paths["file"].write_text("not a directory\n")
    with pytest.raises(SystemExit) as exc:
        run([str(a).format(**paths) for a in argv])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: recwalk")
    assert f"recwalk: error: {named.format(**paths)} (" in err and reason in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


#: each command with a small configuration, and the entry point of its computation
ENTRY_POINTS = {
    "return-law": (["--n-max", 200], return_laws, "first_return_blocks"),
    "lll": (["--l-max", 40, "--schedule", "2,4"], lawcache, "load_or_compute_position_law"),
    "classify": (["--samples", 10, "--horizon", 10], branched_walk, "classify_standard_points"),
    "green": (["--samples", 2, "--direct-samples", 2, "--schedule", "1,2,3"],
              branched_walk, "shifted_green_sum"),
}


@pytest.mark.parametrize("command", ENTRY_POINTS)
def test_out_directory_refused_before_computing(tmp_path, capsys, monkeypatch, command):
    options, module, name = ENTRY_POINTS[command]
    entry = mock.Mock(side_effect=AssertionError(f"{name} called"))
    monkeypatch.setattr(module, name, entry)
    with pytest.raises(SystemExit) as exc:
        run([command, *options, "--out", tmp_path, *cache_dir([command], tmp_path / "cache")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"recwalk: error: --out: cannot use {tmp_path} (" in err and "Is a directory" in err
    entry.assert_not_called()
    assert list(tmp_path.iterdir()) == []


def planted_return_blocks(n_max: int):
    """The first-return law up to n_max from exact binomials, C(2m, m) /
    ((2m - 1) 4^m), as one block (m, P(return = 2m)), with P(return = 100)
    a relative 1e-9 above the upper end of Wallis's bracket,
    1 / ((2m - 1) sqrt(pi (m + 1/4))) at m = 50."""
    entries = [math.comb(2 * m, m) / 4**m / (2 * m - 1) for m in range(1, n_max // 2 + 1)]
    entries[49] = (1 + 1e-9) / (99 * math.sqrt(math.pi * 50.25))
    yield np.arange(1, n_max // 2 + 1), np.array(entries)


def planted_lll_errors(sup: dict, p0: dict):
    """An lll_error that reports the planted sup error and P(Z_n = 0) at each n."""
    return lambda dn, scale, n: stable_laws.LLTError(sup[n], 0, p0[n])


def planted_classify(index: int, **change):
    """A classify_standard_points that changes the given fields of one
    report of the real one."""
    real = branched_walk.classify_standard_points
    return lambda **kw: [dataclasses.replace(r, **change) if i == index else r
                         for i, r in enumerate(real(**kw))]


def planted_green(means: dict):
    """A shifted_green_sum whose every checkpoint reports the planted mean."""
    def shifted_green_sum(n_returns, nsamples, seed, method, horizon=None, checkpoints=()):
        stats = {c: (means[c], 0.1) for c in {*checkpoints, n_returns}}
        return branched_walk.GreenSumEstimate(method, nsamples, stats, 0)

    return shifted_green_sum


#: the six points of classify's report, in order
POINTS = ["lattice(0,0)", "tail(1)", "tail(0)", "inlet(0)", "tail(-3)", "inlet(-3)"]
#: the row kinds of green's table at --schedule 1,2,3, in order
GREEN_ROWS = (["auxiliary"] * 3 + ["direct"] * 3 + ["auxiliary-capped"]
              + ["growth-ratio"] * 2 + ["cross-method-gap"])
#: each documented numerical-check failure: (argv, the library call replaced
#: and its replacement, exit code, what the log names, the row keys of --out)
FAILED_CHECKS = {
    "return-law-bracket": (
        ["return-law", "--n-max", 200], (return_laws, "first_return_blocks", planted_return_blocks),
        2, "P(return = 100) lies outside Wallis's bracket", [str(n) for n in range(2, 201, 2)]),
    "lll-not-decreasing": (
        ["lll", "--l-max", 40, "--schedule", "2,4"],
        (stable_laws, "lll_error", planted_lll_errors({2: 0.1, 4: 0.2}, {2: 0.3, 4: 0.16})),
        2, "sup errors not strictly decreasing", ["2", "4"]),
    "lll-zero-mass": (
        ["lll", "--l-max", 40, "--schedule", "2,4"],
        (stable_laws, "lll_error", planted_lll_errors({2: 0.2, 4: 0.1}, {2: 0.3, 4: 0.1})),
        2, "final n*P(Z_n=0) = 0.4000 outside (0.55, 0.72)", ["2", "4"]),
    "classify-flagged": (
        ["classify", "--samples", 10, "--horizon", 10],
        (branched_walk, "classify_standard_points", planted_classify(2, flagged=True)),
        3, "Monte Carlo contradicts the exact oracle", POINTS),
    "classify-verdict-missing": (
        ["classify", "--samples", 10, "--horizon", 10],
        (branched_walk, "classify_standard_points", planted_classify(1, verdict="Neither")),
        2, "expected all three verdict kinds, got ['Neither', 'Recurrent']", POINTS),
    "green-decreasing": (
        ["green", "--samples", 2, "--direct-samples", 2, "--schedule", "1,2,3"],
        (branched_walk, "shifted_green_sum", planted_green({1: 2.0, 2: 1.5, 3: 3.0})),
        2, "partial sums are not nondecreasing", GREEN_ROWS),
    "green-growth": (
        ["green", "--samples", 2, "--direct-samples", 2, "--schedule", "1,2,3"],
        (branched_walk, "shifted_green_sum", planted_green({1: 1.0, 2: 2.0, 3: 2.1})),
        2, "growth criterion failed: 0.1000 vs 0.5000", GREEN_ROWS),
}


@pytest.mark.parametrize("case", FAILED_CHECKS)
def test_failed_check_exit_code(tmp_path, caplog, monkeypatch, case):
    # each numerical check that the module docstring's exit 2 and 3 stand
    # for, made to fail by a planted library result: --out is still
    # written in full, and the log names the check
    argv, (module, name, planted), code, named, keys = FAILED_CHECKS[case]
    monkeypatch.setattr(module, name, planted)
    out = tmp_path / "out"
    with caplog.at_level("INFO", logger="recwalk"):
        assert run([*argv, "--out", out, *cache_dir(argv, tmp_path / "cache")]) == code
    assert any(r.levelname == "ERROR" and named in r.getMessage() for r in caplog.records)
    text = out.read_text()
    if argv[0] == "classify":
        assert [r["point"] for r in json.loads(text)["reports"]] == keys
    else:
        assert text.endswith("\n")
        assert [row.split(",")[0] for row in text.splitlines()[3:]] == keys


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


class TestSizeBoundsReachTheWork:
    """The largest --n-max, green --schedule, green sample counts and lll
    --k-max that the size bounds allow reach the computation (replaced here
    by a stub)."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise LookupError("work requested")

    def test_return_law_bound(self, tmp_path, monkeypatch):
        from recwalk import cli, return_laws

        monkeypatch.setattr(return_laws, "first_return_blocks", self.refuse)
        with pytest.raises(LookupError, match="work requested"):
            run(["return-law", "--n-max", cli.MAX_RETURN_TIME, "--out", tmp_path / "r.csv"])

    def test_green_bound(self, tmp_path, monkeypatch):
        from recwalk import branched_walk, cli

        monkeypatch.setattr(branched_walk, "shifted_green_sum", self.refuse)
        schedule = f"100,1000,{cli.MAX_GREEN_RETURNS}"
        with pytest.raises(LookupError, match="work requested"):
            run(["green", "--schedule", schedule, "--out", tmp_path / "g.csv"])

    def test_green_samples_bound(self, tmp_path, monkeypatch):
        from recwalk import branched_walk, cli

        monkeypatch.setattr(branched_walk, "shifted_green_sum", self.refuse)
        n = cli.MAX_GREEN_SAMPLES
        with pytest.raises(LookupError, match="work requested"):
            run(["green", "--samples", n, "--direct-samples", n, "--out", tmp_path / "g.csv"])

    def test_lll_column_bound(self, tmp_path, capsys, monkeypatch):
        from recwalk import lawcache, return_laws

        monkeypatch.setattr(lawcache, "load_or_compute_position_law", self.refuse)
        # the largest even --k-max whose column at --l-max 2000 fits, by bisection
        lo, hi = 2, 2 * 10**16
        while hi - lo > 2:
            mid = (lo + hi) // 4 * 2
            if return_laws.column_length(2000, mid) <= return_laws.MAX_COLUMN:
                lo = mid
            else:
                hi = mid
        argv = ["lll", "--k-max", lo, "--out", tmp_path / "lll.csv", "--cache-dir", tmp_path]
        with pytest.raises(LookupError, match="work requested"):
            run(argv)
        argv[2] = lo + 2
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        assert f"above the limit of {return_laws.MAX_COLUMN}" in capsys.readouterr().err


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

    def test_smallest_nmax(self, tmp_path):
        # --n-max 2, the lower bound, writes the one row P(return = 2) = 1/2
        out = tmp_path / "rl.csv"
        assert run(["return-law", "--n-max", 2, "--out", out]) == 0
        assert out.read_text().splitlines()[3:] == [f"2,{cli._fmt(0.5)},{cli._fmt(2**0.5)}"]

    def test_log_gives_the_import_seconds(self, tmp_path, caplog):
        # the last info line splits the command's wall time; in this process
        # the numerical modules are loaded already, so their import is quick
        out = tmp_path / "rl.csv"
        with caplog.at_level("INFO", logger="recwalk"):
            assert run(["return-law", "--n-max", 2, "--out", out]) == 0
        (line,) = [r.getMessage() for r in caplog.records if " finished in " in r.getMessage()]
        match = re.fullmatch(r"return-law finished in (\d+\.\d\d)s, (\d+\.\d{3})s of it "
                             r"importing -> (.+)", line)
        assert match and match[3] == str(out)
        assert float(match[2]) <= min(float(match[1]) + 0.005, 0.01)
        assert "importing" not in out.read_text()

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

    def test_chunked_write_matches_one_join(self, tmp_path, monkeypatch):
        # 1,000 law rows, written in chunks that divide them, that do not,
        # and that hold them all, from law blocks of 7 rows and of all
        out = tmp_path / "a.csv"
        texts = []
        for chunk, block in ((1, 4096), (7, 4096), (1000, 7), (1002, 4096), (1 << 14, 7)):
            monkeypatch.setattr(cli, "_WRITE_CHUNK", chunk)
            monkeypatch.setattr(return_laws, "_SURVIVAL_BLOCK", block)
            assert run(["return-law", "--n-max", 2000, "--out", out]) == 0
            texts.append(out.read_bytes())
        assert texts.count(texts[0]) == len(texts)
        lines = texts[0].decode().split("\n")
        assert len(lines) == 3 + 1000 + 1 and lines[-1] == ""
        assert lines[-2].startswith("2000,")

    def test_memory_does_not_grow_with_n_max(self, tmp_path):
        # the law is streamed and its rows written in fixed chunks, so ten
        # times the rows take no more memory; a law held whole with its
        # support, written in chunks of 2^14 rows, grows the peak by 4.2 MB
        out = tmp_path / "rl.csv"
        run(["return-law", "--n-max", 2, "--out", out])  # one-time allocations
        small, large = (traced_peak(lambda: run(["return-law", "--n-max", n, "--out", out]))
                        for n in (20_000, 200_000))
        assert large - small < 500_000, (small, large)


def filled_cache(tmp_path):
    """The argv of an lll run, --out left out, and its cache file, filled
    by a first run: --l-max 200 at the default --k-max 40,000."""
    args = ["lll", "--l-max", 200, "--schedule", "8,16", "--cache-dir", tmp_path / "cache"]
    assert run(args + ["--out", tmp_path / "a.csv"]) == 0
    return args, position_law_path(tmp_path / "cache", 200, 40_000)


def assert_corrupted(capsys, argv, path, out, reason=""):
    """lll refuses the cache file: exit 1 with the documented message, no
    traceback and no --out."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", out])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: recwalk")
    assert f"recwalk: error: law cache {path} is corrupted ({reason}" in err
    assert err.endswith("); delete the file and rerun\n")
    assert "Traceback" not in err and not out.exists()


@pytest.fixture(scope="module")
def small_cache(tmp_path_factory):
    """An lll run at --l-max 40 with its cache filled: the argv, the cache
    file, its bytes and the output bytes."""
    root = tmp_path_factory.mktemp("small_cache")
    argv = ["lll", "--l-max", 40, "--schedule", "2,4",
            "--cache-dir", root / "cache", "--out", root / "a.csv"]
    assert run(argv) == 0
    path = position_law_path(root / "cache", 40, 1600)
    return argv, path, path.read_bytes(), (root / "a.csv").read_bytes()


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

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the law renormalised on a small window makes the sup "
        "errors rise again within the default schedule, and lll exits 2"))
    @pytest.mark.parametrize("lmax", [200, 40])
    def test_small_window_passes_at_the_default_schedule(self, tmp_path, lmax):
        assert run(["lll", "--l-max", lmax, "--cache-dir", tmp_path / "cache",
                    "--out", tmp_path / "lll.csv"]) == 0

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
            assert f"error bound {law.error_bound:.3g}, tail mass {law.leaked:.3g}" in line

    def test_log_reports_cauchy_scale(self, tmp_path, caplog):
        # the ladder (2, 4, 8) at --l-max 40 reads the scale 19% low
        with caplog.at_level("INFO", logger="recwalk"):
            run(["lll", "--l-max", 40, "--schedule", "2,4",
                 "--cache-dir", tmp_path, "--out", tmp_path / "a.csv"])
        assert "Cauchy scale pi*sigma = 0.8095" in caplog.text
        assert "from m = (2, 4, 8)" in caplog.text

    def test_cache_hit_identical_output(self, tmp_path):
        # at kmax = lmax^2 the whole k-tail grid takes the series; at 40,000
        # the grid is split, its buckets below k = 160,000 summed in blocks
        out = tmp_path / "a.csv"
        for kmax in (160_000, 40_000):
            args = [
                "lll", "--l-max", 400, "--k-max", kmax, "--schedule", "4,8",
                "--cache-dir", tmp_path / "cache", "--out", out,
            ]
            assert run(args) == 0, kmax
            assert position_law_path(tmp_path / "cache", 400, kmax).exists()
            cold = out.read_bytes()
            assert run(args) == 0  # cache hit this time
            assert out.read_bytes() == cold, kmax

    @pytest.mark.parametrize("version", [1, 2, 3, 4, "longdouble"])
    def test_former_cache_format_rebuilt(self, tmp_path, caplog, pos_law_small, version):
        # a cache file of a former format, text or an 80-bit array, has
        # another name than the float64 one: it is never opened, the law is
        # rebuilt beside it
        cache, out = tmp_path / "cache", tmp_path / "a.csv"
        args = [
            "lll", "--l-max", 400, "--k-max", 160_000, "--schedule", "4,8",
            "--cache-dir", cache, "--out", out,
        ]
        assert run(args) == 0
        path = position_law_path(cache, 400, 160_000)
        current, cold = path.read_bytes(), out.read_bytes()
        path.unlink()
        law = pos_law_small
        half = law.entries[law.hi // 2 :]
        if version == "longdouble":
            # [kmax, leaked, P(0..lmax), crc], the crc of the bytes before it
            stored = np.concatenate(([law.kmax, law.leaked], half, [0])).astype(np.longdouble)
            stored[-1] = zlib.crc32(stored[:-1])
            former = cache / "return_position_L400_K160000.npy"
            np.save(former, stored)
        else:
            err, tail = f"{law.error_bound:.17g}", f"{law.leaked:.17g}"
            header = (f"return-position,lmax={law.hi};kmax={law.kmax};ktail=1;err={err};"
                      f"tail={tail};v=recwalk-law-{version}" + (f",{err}" if version < 3 else ""))
            rows = [f"{2 * j},{float(p):.17g}" for j, p in enumerate(half)]
            former = cache / "return_position_L400_K160000.csv"
            former.write_text("\n".join([header] + rows) + "\n")
        data = former.read_bytes()
        caplog.clear()
        with caplog.at_level("INFO", logger="recwalk"):
            assert run(args) == 0
        assert "(lmax=400, kmax=160000): cache miss in " in caplog.text
        assert path.read_bytes() == current and out.read_bytes() == cold
        assert former.read_bytes() == data

    def test_corrupt_cache_reported(self, tmp_path, capsys):
        args, path = filled_cache(tmp_path)
        data = path.read_bytes()
        for damaged in (data[:-1], data[:100], b""):  # cut in the data, in the header, empty
            path.write_bytes(damaged)
            assert_corrupted(capsys, args, path, tmp_path / "b.csv")

    @pytest.mark.parametrize("entries, reason", [
        # mapped, so the 8e13 bytes are never asked for
        (10**13, "mmap length is greater than file size"),
        (10**20, ""),  # past the range of an index
    ], ids=["1e13", "1e20"])
    def test_oversized_header_reported(self, tmp_path, capsys, entries, reason):
        args, path = filled_cache(tmp_path)
        data = path.read_bytes()
        with open(path, "wb") as f:
            header = {"descr": np.dtype(np.float64).str, "fortran_order": False,
                      "shape": (entries,)}
            np.lib.format.write_array_header_1_0(f, header)
            f.write(data[128:])
        assert_corrupted(capsys, args, path, tmp_path / "b.csv", reason)

    @pytest.mark.parametrize("kind", ["pickled", "longdouble", "2-d"])
    def test_cache_of_another_array_reported(self, tmp_path, capsys, kind):
        args, path = filled_cache(tmp_path)
        stored = np.load(path)
        other = {"pickled": stored.astype(object), "longdouble": stored.astype(np.longdouble),
                 "2-d": stored.reshape(-1, 1)}[kind]
        np.save(path, other, allow_pickle=True)
        assert_corrupted(capsys, args, path, tmp_path / "b.csv")

    @pytest.mark.parametrize("damage", ["nan", "negative", "tail-nan", "above-one"])
    def test_nonfinite_or_negative_cache_mass_reported(self, tmp_path, capsys, damage):
        # P(4) reads nan, -1e-3 or 1.5, or the leaked mass reads nan
        args, path = filled_cache(tmp_path)
        stored = np.load(path)
        at, value = {"nan": (4, np.nan), "negative": (4, -1e-3), "tail-nan": (1, np.nan),
                     "above-one": (4, 1.5)}[damage]
        stored[at] = value
        np.save(path, stored)
        assert_corrupted(capsys, args, path, tmp_path / "b.csv")

    @pytest.mark.parametrize("kmax", [40000.5, math.inf, 2.0**53], ids=["40000.5", "inf", "2**53"])
    def test_kmax_not_an_integer_below_2_53_reported(self, tmp_path, capsys, kmax):
        # inf has no integer for the key check, and from 2^53 on float64
        # no longer holds every integer
        args, path = filled_cache(tmp_path)
        stored = np.load(path)
        stored[0] = kmax
        np.save(path, stored)
        assert_corrupted(capsys, args, path, tmp_path / "b.csv", reason="kmax ")

    def test_refused_law_is_not_cached(self, tmp_path, capsys, caplog, monkeypatch):
        # tail_limit refuses the law at kmax = 2, after it is built
        monkeypatch.chdir(tmp_path)
        for _ in range(2):  # and a rerun is a miss, refused again
            caplog.clear()
            with caplog.at_level("INFO", logger="recwalk"), pytest.raises(SystemExit) as exc:
                run(["lll", "--l-max", 40, "--k-max", 2, "--cache-dir", "cc"])
            assert exc.value.code == 1
            assert "(lmax=40, kmax=2): cache miss in " in caplog.text
            assert "recwalk: error: certified truncation error" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    def test_miskeyed_cache_reported(self, tmp_path, capsys):
        # a file stored under another kmax's name holds another law
        args, path = filled_cache(tmp_path)
        other = position_law_path(path.parent, 200, 80_000)
        shutil.copy(path, other)
        assert_corrupted(capsys, args + ["--k-max", 80_000], other, tmp_path / "b.csv",
                         reason="it holds lmax=200, kmax=40000")

    def test_cache_of_another_lmax_reported(self, tmp_path, capsys):
        # and one under another lmax's name, a law of another length
        args, path = filled_cache(tmp_path)
        other = position_law_path(path.parent, 400, 40_000)
        shutil.copy(path, other)
        argv = ["lll", "--l-max", 400, "--k-max", 40_000, "--schedule", "8,16",
                "--cache-dir", path.parent]
        assert_corrupted(capsys, argv, other, tmp_path / "b.csv",
                         reason="it holds lmax=200, kmax=40000")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_damage_ends_in_a_documented_exit(self, small_cache, data):
        # the file ends in a checksum of its entries: every cut or changed
        # byte is refused, or leaves the law as it was and the output with it
        argv, path, intact, cold = small_cache
        at = data.draw(st.integers(0, len(intact) - 1))
        if data.draw(st.booleans()):
            damaged = intact[:at]
        else:
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != intact[at]))
            damaged = intact[:at] + bytes([byte]) + intact[at + 1 :]
        path.write_bytes(damaged)
        out = argv[-1]
        out.unlink(missing_ok=True)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = run(argv)
        except SystemExit as exc:
            code = exc.code
        if code == 1:
            assert f"recwalk: error: law cache {path} is corrupted (" in err.getvalue()
            assert err.getvalue().endswith("); delete the file and rerun\n")
            assert not out.exists()
            return
        assert code == 0 and out.read_bytes() == cold


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

    def test_single_sample_exit_zero(self, tmp_path, capsys):
        # the Wilson interval of one walk, and a 4-sigma gate of 2 that it passes
        assert run(["classify", "--samples", 1, "--out", tmp_path / "c.json"]) == 0
        assert "Traceback" not in capsys.readouterr().err

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

    def test_growth_ratio_within_4_sigma(self, tmp_path):
        # each growth-ratio row against G_1000 / G_100 of the exact auxiliary
        # sums (about 1.3538), with sigma by the delta method from the two
        # rows' stderr taken as independent: conservative, since the nested
        # counts are positively correlated
        out = tmp_path / "green.csv"
        run(["green", "--samples", 400, "--direct-samples", 2, "--direct-returns", 1,
             "--schedule", "100,1000", "--out", out])
        rows = [r.split(",") for r in out.read_text().splitlines()[3:]]
        aux = {r[1]: (float(r[2]), float(r[3])) for r in rows if r[0] == "auxiliary"}
        (ratio,) = [r for r in rows if r[0] == "growth-ratio"]
        (a, sa), (b, sb) = aux["100"], aux["1000"]
        value = float(ratio[2])
        assert ratio[1] == "100->1000" and value == b / a
        sigma = value * math.hypot(sa / a, sb / b)
        exact = auxiliary_green_exact(1000) / auxiliary_green_exact(100)
        assert abs(exact - 1.3538) < 1e-4
        assert abs(value - exact) < 4 * sigma

    def test_bytes_match_one_shot_samplers(self, tmp_path, monkeypatch):
        # the in-place samplers and key-only streams against the one-shot
        # ones; a short horizon clips the direct walks, and 3*10^4 returns
        # per method include about 60 draws past the sampler's table
        out = tmp_path / "green.csv"
        argv = [
            "green", "--samples", 30, "--direct-samples", 30, "--direct-returns", 1000,
            "--horizon", 20_000, "--schedule", "10,100,1000", "--seed", 2**63 + 7, "--out", out,
        ]
        run(argv)
        first = out.read_bytes()
        for name in ("stream", "sample_first_return", "sample_position_at"):
            monkeypatch.setattr(branched_walk, name, getattr(one_shot, name))
        run(argv)
        assert out.read_bytes() == first


def test_package_imports_without_scipy():
    # the package is what the commands run: every recwalk module imports
    # without scipy or the test oracles, which are importable here so that
    # a stray import would show
    code = (
        "import importlib, pkgutil, sys, recwalk\n"
        "names = [m.name for m in pkgutil.iter_modules(recwalk.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module(f'recwalk.{name}')\n"
        "print('cli' in names, len(names) > 1)\n"
        "print([m for m in sys.modules"
        " if m.startswith('scipy') or m.partition('.')[0] == 'oracles'])"
    )
    path = [os.path.dirname(os.path.dirname(recwalk.__file__)), os.path.dirname(__file__)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["True True", "[]"]


@pytest.mark.parametrize("argv, code, err", [
    (None, None, ""),  # the import alone
    (["green", "--help"], 0, ""),
    (["classify", "--samples", "0"], 1,
     "recwalk: error: argument --samples: must be an integer >= 1, got 0\n"),
    (["green", "--out", "."], 1,
     "recwalk: error: --out: cannot use . ([Errno 21] Is a directory: '.')\n"),
], ids=["import", "help", "usage-error", "out-refused"])
def test_parsing_loads_no_numpy(tmp_path, argv, code, err):
    # the commands import numpy and the numerical modules themselves, so
    # --help, a usage error and an --out refusal exit without them
    script = (
        "import sys\n"
        "from recwalk.cli import main\n"
        "code = None\n"
        f"if {argv!r} is not None:\n"
        "    try:\n"
        f"        main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, sorted(m for m in sys.modules"
        " if m.partition('.')[0] in ('numpy', 'recwalk')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(recwalk.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == f"{code} ['recwalk', 'recwalk.cli']"
    assert out.stderr.endswith(err) and "Traceback" not in out.stderr
    if argv is not None:
        assert (out.stdout if code == 0 else out.stderr).startswith("usage: recwalk")


#: each way the program ends: its argv, a library result or a state planted before it
#: runs, and the documented exit code
PROGRAM_EXITS = {
    "computed": (["return-law", "--n-max", "200"], "", 0),
    "help": (["green", "--help"], "", 0),
    "usage-error": (["classify", "--samples", "0"], "", 1),
    "out-refused": (["green", "--out", "."], "", 1),
    "library-refused": (["lll", "--l-max", "40", "--k-max", "2", "--cache-dir", "cc"], "", 1),
    "check-failed": (["return-law", "--n-max", "200"],
                     "import recwalk.return_laws as laws\n"
                     "laws.bracket_margin = lambda blocks: (-1.0, 100)\n", 2),
    # as Python sets it up when the program starts with its stdout closed
    "no-stdout": (["return-law", "--n-max", "200"], "sys.stdout = None\n", 0),
}


@pytest.mark.parametrize("case", PROGRAM_EXITS)
def test_program_exits_without_teardown(tmp_path, monkeypatch, case):
    # main() with no argv is the program, as the bench and the console
    # script run it: on every way out it flushes its streams and leaves by
    # os._exit, so an atexit hook planted before it never runs, and nothing
    # it wrote is lost
    argv, planted, code = PROGRAM_EXITS[case]
    script = (
        "import atexit, sys\n"
        "atexit.register(lambda: print('atexit ran'))\n"
        + planted
        + "from recwalk.cli import main\n"
        "sys.exit(main())\n"
    )
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the child
    # buffered streams, as a pipe gives them, so that a missing flush loses output
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(recwalk.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, cwd=tmp_path, capture_output=True,
        text=True,
    )
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr and "atexit ran" not in out.stdout
    assert out.stderr == "" or out.stderr.endswith("\n")
    if case == "help":
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert out.stdout == sub.choices["green"].format_help()
    if case == "computed":
        last = list(cli._law_rows(return_laws.first_return_blocks(200)))[-1]
        assert last.startswith("200,")
        assert (tmp_path / "recwalk_return_law.csv").read_text().endswith(last + "\n")


@pytest.mark.parametrize("argv", [
    ["return-law", "--n-max", "200"],
    ["classify", "--samples", "0"],
], ids=["computed", "usage-error"])
def test_in_process_main_leaves_the_collector(tmp_path, argv):
    before = gc.get_freeze_count(), gc.isenabled()
    with contextlib.suppress(SystemExit):
        main([*argv, "--out", str(tmp_path / "out")])
    assert (gc.get_freeze_count(), gc.isenabled()) == before


#: the numpy submodules that each command loads after `import numpy,
#: recwalk.cli`, at a small configuration.  numpy.random costs about 11 ms
#: and 2.7 MB to import with OpenSSL's _hashlib masked (14 ms and 6.1 MB
#: without), so only the commands that draw load it, on their first stream;
#: numpy.fft only lll, for its convolutions; and no command loads scipy or numpy.ma,
#: which np.median imports on its first call (about 13 ms and 1.3 MB)
NUMPY_SUBMODULES = {
    "lll": (["lll", "--l-max", "200", "--schedule", "8,16"], ["numpy.fft"]),
    "return-law": (["return-law", "--n-max", "200"], []),
    "classify": (["classify", "--samples", "10", "--horizon", "10"], ["numpy.random"]),
    "green": (["green", "--samples", "2", "--direct-samples", "2", "--schedule", "1,2,3"],
              ["numpy.random"]),
    "help": (["green", "--help"], []),
}


@pytest.mark.parametrize("command", NUMPY_SUBMODULES)
def test_numpy_submodules_per_command(tmp_path, command):
    argv, loaded = NUMPY_SUBMODULES[command]
    code = (
        "import contextlib, io, sys\n"
        "import numpy, recwalk.cli\n"
        "from recwalk.cli import main\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        f"    main({argv!r})\n"
        "new = {'.'.join(m.split('.')[:2]) for m in set(sys.modules) - before}\n"
        "print(sorted(m for m in new if m.partition('.')[0] in ('numpy', 'scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(recwalk.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.splitlines() == [repr(loaded)]


def test_no_command_calls_lapack(tmp_path):
    # np.polyfit solves through LAPACK's SVD, whose first call maps about
    # 1.6 MB of BLAS code into a run that otherwise uses none; lll (cold,
    # then warm) fits its line in closed form instead, and return-law fits none
    argvs = [
        ["lll", "--l-max", "200", "--schedule", "8,16", "--cache-dir", "cc"],
        ["lll", "--l-max", "200", "--schedule", "8,16", "--cache-dir", "cc"],
        ["return-law", "--n-max", "200"],
    ]
    code = (
        "import os\n"
        "import numpy as np\n"
        "def refuse(*args, **kwargs):\n"
        "    raise RuntimeError('LAPACK called')\n"
        "np.polyfit = np.linalg.lstsq = np.linalg.svd = refuse\n"
        "from recwalk.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    cached = os.listdir('cc') if os.path.isdir('cc') else []\n"
        "    print(main(argv), len(cached))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(recwalk.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    # each run exits 0; the second lll finds the law that the first cached
    assert out.stdout.splitlines() == ["0 0", "0 1", "0 1"]
    assert "cache miss" in out.stderr and "cache hit" in out.stderr


@pytest.mark.parametrize("command", ["classify", "green"])
def test_streams_leave_openssl_unloaded(tmp_path, command):
    # numpy.random's import of secrets and hmac finds no _hashlib, and
    # hashlib falls back on its builtin digests without a word on stderr;
    # OpenSSL's module stays importable
    argv = NUMPY_SUBMODULES[command][0]
    code = (
        "import contextlib, io, sys\n"
        "from recwalk.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({argv!r})\n"
        "print('_hashlib' in sys.modules)\n"
        "import hashlib\n"
        "print(hashlib.sha256(b'recwalk').hexdigest())\n"
        "import _hashlib\n"
        "print(_hashlib.openssl_sha256(b'recwalk').hexdigest())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(recwalk.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True,
        check=True,
    )
    digest = hashlib.sha256(b"recwalk").hexdigest()
    assert out.stdout.splitlines() == ["False", digest, digest]
    assert "code for hash" not in out.stderr


@pytest.mark.parametrize("preload", [False, True])
def test_streams_equal_with_openssl_loaded_or_not(preload):
    # with _hashlib loaded first, as under pytest, nothing is masked
    code = (
        "import sys\n"
        + ("import _hashlib\n" if preload else "")
        + "from recwalk.rng import stream\n"
        "print('_hashlib' in sys.modules)\n"
        "print(stream(2**63 + 5, 7, 3).bit_generator.random_raw(8).tolist())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(recwalk.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    words = one_shot.stream(2**63 + 5, 7, 3).bit_generator.random_raw(8).tolist()
    assert out.stdout.splitlines() == [str(preload), str(words)]
