"""lll at the benchmark's arguments against the benchmark's reference values,
so a change that moves a column past bench/checks.py's LLL_RTOL fails here
first, not only in a benchmark run.  Reads bench/ and changes nothing in it."""

from conftest import bench_checks
from recwalk.cli import main


def test_lll_within_the_reference_tolerance(tmp_path):
    checks = bench_checks()
    ref = checks.REFERENCE["lll"]
    argv = ["lll", "--l-max", str(ref["l_max"]), "--k-max", str(ref["k_max"]),
            "--schedule", ",".join(ref["rows"])]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out), "--cache-dir", str(tmp_path / "cache")]) == 0
    text = out.read_text()
    # the share of the tolerance that each column uses, shown with -s
    for n, sup, _argmax, zero in (line.split(",") for line in text.splitlines()[3:]):
        for name, value in (("sup_error", sup), ("n_times_p0", zero)):
            want = float(ref["rows"][n][name])
            print(f"n={n} {name}: {abs(float(value) - want) / (checks.LLL_RTOL * abs(want)):.0%}")
    assert checks.check_lll(text, checks.config_of(argv)) == []
