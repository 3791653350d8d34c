import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recwalk
from oracles import samplers as one_shot
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
        assert not hit
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

    def test_corruption_detected(self, tmp_path):
        law = return_position_law(100, 10_000)
        path = save_position_law(law, tmp_path)
        lines = path.read_text().splitlines()
        for damaged in (lines[:20], *(former(law, v, lines) for v in (1, 2, 3))):
            path.write_text("\n".join(damaged) + "\n")
            with pytest.raises(CacheCorruptionError, match="delete"):
                load_position_law(path)


def former(law, version: int, lines: list[str]) -> list[str]:
    """The cache file lines of the law in format version 1, 2 or 3: all
    stored the k-tail flag and the error bound in the header, versions 1
    and 2 repeated the error bound as a third header field, and version 1
    printed 18 digits, which the rows here do not mimic."""
    err = lawcache._fmt(law.error_bound)
    param = (f"lmax={law.hi};kmax={law.kmax};ktail=1;err={err};"
             f"tail={lawcache._fmt(law.leaked)};v=recwalk-law-{version}")
    header = f"return-position,{param}" + (f",{err}" if version < 3 else "")
    return [header] + lines[1:]


def run(args):
    return main([str(a) for a in args])


def cache_dir(argv, path) -> list:
    """--cache-dir path, for the commands that take it: not return-law."""
    return [] if argv[0] == "return-law" else ["--cache-dir", path]


@pytest.mark.parametrize("argv", [
    ["return-law", "--n-max", 100],
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
    stubs = [(lawcache, "load_or_compute_position_law"), (return_laws, "first_return_law"),
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
    "return-law": (["--n-max", 200], return_laws, "first_return_law"),
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

        monkeypatch.setattr(return_laws, "first_return_law", self.refuse)
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
        # 1,000 law rows and two fit rows, written in chunks that divide
        # them, that do not, and that hold them all
        out = tmp_path / "a.csv"
        texts = []
        for chunk in (1, 7, 1000, 1002, 1 << 14):
            monkeypatch.setattr(cli, "_WRITE_CHUNK", chunk)
            assert run(["return-law", "--n-max", 2000, "--out", out]) == 0
            texts.append(out.read_bytes())
        assert texts.count(texts[0]) == len(texts)
        lines = texts[0].decode().split("\n")
        assert len(lines) == 3 + 1000 + 2 + 1 and lines[-1] == ""
        assert lines[-3].startswith("slope,") and lines[-2].startswith("prefactor,")
        assert lines[-4].startswith("2000,")


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
            assert f"error bound {law.error_bound:.3g}, tail mass {law.leaked:.3g}" in line

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

    def test_corrupt_cache_reported(self, tmp_path, capsys, pos_law_small):
        cache = tmp_path / "cache"
        args = [
            "lll", "--l-max", 400, "--k-max", 160_000, "--schedule", "4,8",
            "--cache-dir", cache, "--out", tmp_path / "a.csv",
        ]
        assert run(args) == 0
        path = cache / "return_position_L400_K160000.csv"
        text = path.read_text()
        truncated = text[:100]
        # a header of the current version with the third field of version 2
        third_field = text.replace("\n", f",{lawcache._fmt(pos_law_small.error_bound)}\n", 1)
        for damaged in (truncated, third_field):
            path.write_text(damaged)
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage: recwalk")
            assert f"recwalk: error: law cache {path} is corrupted" in err
            assert "delete the file and rerun" in err and "Traceback" not in err

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_former_cache_format_rebuilt(self, tmp_path, caplog, pos_law_small, version):
        cache, out = tmp_path / "cache", tmp_path / "a.csv"
        args = [
            "lll", "--l-max", 400, "--k-max", 160_000, "--schedule", "4,8",
            "--cache-dir", cache, "--out", out,
        ]
        assert run(args) == 0
        path = cache / "return_position_L400_K160000.csv"
        current, cold = path.read_bytes(), out.read_bytes()
        lines = former(pos_law_small, version, current.decode().splitlines())
        path.write_text("\n".join(lines) + "\n")
        caplog.clear()
        with caplog.at_level("INFO", logger="recwalk"):
            assert run(args) == 0
        assert "(lmax=400, kmax=160000): cache miss in " in caplog.text
        assert path.read_bytes() == current and out.read_bytes() == cold

    def test_miskeyed_cache_reported(self, tmp_path, capsys):
        # a file stored under another kmax's name holds another law
        cache, out = tmp_path / "cache", tmp_path / "b.csv"
        args = ["lll", "--l-max", 200, "--schedule", "4,8", "--cache-dir", cache]
        assert run(args + ["--k-max", 40_000, "--out", tmp_path / "a.csv"]) == 0
        path = cache / "return_position_L200_K80000.csv"
        shutil.copy(cache / "return_position_L200_K40000.csv", path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(args + ["--k-max", 80_000, "--out", out])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: recwalk")
        assert (f"recwalk: error: law cache {path} is corrupted (it holds lmax=200, kmax=40000); "
                "delete the file and rerun") in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("damage", ["duplicated", "odd", "negative"])
    def test_misplaced_cache_rows_reported(self, tmp_path, capsys, damage):
        # the l = 2 row repeats the l = 0 row, or moves to l = 3 or l = -2
        cache = tmp_path / "cache"
        args = [
            "lll", "--l-max", 400, "--k-max", 160_000, "--schedule", "4,8",
            "--cache-dir", cache, "--out", tmp_path / "a.csv",
        ]
        assert run(args) == 0
        path = cache / "return_position_L400_K160000.csv"
        lines = path.read_text().splitlines()
        assert lines[2].startswith("2,")
        prob = lines[2].split(",")[1]
        lines[2] = {"duplicated": lines[1], "odd": f"3,{prob}", "negative": f"-2,{prob}"}[damage]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"recwalk: error: law cache {path} is corrupted" in err
        assert "delete the file and rerun" in err and "Traceback" not in err

    @pytest.mark.parametrize("damage", ["nan", "negative", "tail-nan"])
    def test_nonfinite_or_negative_cache_mass_reported(self, tmp_path, capsys, damage):
        # the l = 4 row reads nan or -1e-3, or the header's tail mass reads nan
        cache, out = tmp_path / "cache", tmp_path / "b.csv"
        args = ["lll", "--l-max", 200, "--schedule", "8,16", "--cache-dir", cache]
        assert run(args + ["--out", tmp_path / "a.csv"]) == 0
        path = cache / "return_position_L200_K40000.csv"
        lines = path.read_text().splitlines()
        assert lines[3].startswith("4,") and ";tail=" in lines[0]
        if damage == "tail-nan":
            head, _, rest = lines[0].partition(";tail=")
            lines[0] = f"{head};tail=nan;{rest.partition(';')[2]}"
        else:
            lines[3] = {"nan": "4,nan", "negative": "4,-1e-3"}[damage]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(args + ["--out", out])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"recwalk: error: law cache {path} is corrupted" in err
        assert "delete the file and rerun" in err and "Traceback" not in err
        assert not out.exists()


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
    # the package is what the commands run: importing the command line loads
    # every recwalk module, and neither scipy nor the test oracles, which are
    # importable here so that a stray import would show
    code = (
        "import pkgutil, sys, recwalk.cli\n"
        "print(sorted(m.name for m in pkgutil.iter_modules(recwalk.__path__)"
        " if f'recwalk.{m.name}' not in sys.modules))\n"
        "print([m for m in sys.modules"
        " if m.startswith('scipy') or m.partition('.')[0] == 'oracles'])"
    )
    path = [os.path.dirname(os.path.dirname(recwalk.__file__)), os.path.dirname(__file__)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["[]", "[]"]


#: the numpy submodules that each command loads after `import recwalk.cli`, at
#: a small configuration.  numpy.random costs about 13 ms and 6.1 MB to import,
#: so only the commands that draw load it, on their first stream; numpy.fft
#: only lll, for its convolutions; and no command loads scipy or numpy.ma,
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
