"""Every kind of number that a command prints, mapped to the tests that check
it against an exact value, a closed form or a second method, and the kinds
that no such test checks yet.

A kind is a column of return-law's and lll's tables, a field of classify's
reports, or a row kind of green's table (its value and standard error) and
green's exhausted_frac column.  A new kind lands with a check or in
UNCHECKED; a check that closes a gap moves its kind out of UNCHECKED.
Listing a kind as unchecked exempts it from no other test.
"""

import ast
import json
from pathlib import Path

import pytest

import recwalk
from recwalk.cli import main

#: (command, kind) -> {test: what it checks, with its tolerance}
CHECKS = {
    ("return-law", "prob"): {
        "test_acceptance.py::test_criterion_01_first_return_exactness":
            "equal to exhaustive enumeration of the paths, n <= 16",
        "test_return_laws.py::TestFirstReturnLaw::test_arrays_round_the_exact_law":
            "the exact C(2m, m) / ((2m - 1) 4^m), within the bound its float64 operations "
            "give (2 units of 2^-53 relative below m = 9, 5.6 from there on), n <= 64",
        "test_return_laws.py::TestScalarSpecialFunctions::"
        "test_survival_and_law_within_their_rounding_bound":
            "within that bound of the exact value, every n <= 8192 (integers) and every "
            "194th n up to 2*10^6 (mpmath)",
        "test_return_laws.py::TestWallisBracket::test_printed_rows_inside":
            "strictly inside Kazarinoff's bracket, derived with mpmath, every n <= 2*10^4",
        "test_return_laws.py::TestWallisBracket::test_law_at_the_decades_inside":
            "strictly inside the bracket at n = 2*10^5 and 2*10^6",
    },
    ("return-law", "n32_prob"): {
        "test_return_laws.py::TestWallisBracket::test_printed_rows_inside":
            "strictly inside n^(3/2) times the bracket, every n <= 2*10^4",
    },
    ("classify", "verdict"): {
        "test_acceptance.py::test_criterion_09_trichotomy":
            "the verdict of the exact absorption split at each of the six points",
    },
    ("classify", "p_recurrent"): {
        "test_branched_walk.py::TestAbsorption::test_exact_values":
            "the exact fractions 1, 0, 4/9 and 5/9",
        "test_branched_walk.py::TestClassification::test_json_schema": "printed as 4/9",
    },
    ("classify", "p_escape"): {
        "test_branched_walk.py::TestAbsorption::test_exact_values":
            "the exact fractions 0, 1, 5/9 and 4/9",
        "test_branched_walk.py::TestClassification::test_json_schema": "printed as 5/9",
    },
    ("classify", "mc"): {
        "test_branched_walk.py::TestClassification::test_finite_horizon_matches_push_forward":
            "within 4 sigma of the exact push-forward probability of entry by the horizon",
        "test_branched_walk.py::TestClassification::test_entry_probability_matches_push_forward":
            "the CLI's reference value, within 1e-15 of the push-forward",
        "test_engine.py::TestWilson::test_known_value":
            "the interval centred on 1/2 within 1e-12 at half successes",
        "test_branched_walk.py::TestClassification::test_structural_points_report_exact_intervals":
            "exactly 1 with the interval [1, 1] at lattice(0,0), exactly 0 with the lower "
            "end 0 and the upper z^2 / (n + z^2) within 1e-15 at tail(1)",
    },
    ("green", "auxiliary"): {
        "test_acceptance.py::test_criterion_08_green_divergence":
            "within 4 sigma of the exact G_N at N = 10^2, 10^3 and 10^4",
        "test_branched_walk.py::TestGreenSumAuxiliary::test_growth_against_frozen_oracle":
            "within 4 sigma of the exact G_N at N = 10^2 and 10^3",
    },
    ("green", "direct"): {
        "test_branched_walk.py::TestDirectGreenExact::test_direct_method_within_4_sigma_at_1000":
            "the method behind the rows, at a horizon no walk reaches, within 4 sigma of the "
            "pinned exact G_1000 of the embedded chain; the rows drop returns past --horizon",
        "test_branched_walk.py::TestDirectGreenExact::test_direct_method_within_4_sigma":
            "the method behind the rows, at a horizon no walk reaches, within 4 sigma of the "
            "exact G_100 of the embedded chain (push-forward); the rows drop returns past "
            "--horizon",
        "test_branched_walk.py::TestGreenSumDirect::test_matches_step_level_oracle":
            "within 4 sigma of the step-level walk, 20 returns at a horizon of 400",
    },
    ("green", "auxiliary-capped"): {
        "test_branched_walk.py::TestGreenSumAuxiliary::test_capped_method_within_4_sigma":
            "the method behind the rows, at a horizon no walk reaches, within 4 sigma of the "
            "exact G_1000; the rows drop returns past --horizon",
    },
    ("green", "growth-ratio"): {
        "test_cli.py::TestGreenCommand::test_growth_ratio_within_4_sigma":
            "within 4 sigma (delta method) of the exact G_1000 / G_100",
    },
}

#: (command, kind) -> why no test checks it against an independent value
UNCHECKED = {
    ("lll", "sup_error"): "checked only against a second method on the same renormalised "
                          "window, which lies outside the exact values",
    ("lll", "argmax_k"): "as sup_error",
    ("lll", "n_times_p0"): "as sup_error; the exact bracket of criterion 5 excludes it",
    ("green", "cross-method-gap"): "no exact value",
    ("green", "exhausted_frac"): "no exact value",
}

#: each command at a small configuration
RUNS = {
    "return-law": ["--n-max", "200"],
    "lll": ["--l-max", "40", "--schedule", "2,4"],
    "classify": ["--samples", "10", "--horizon", "10"],
    "green": ["--samples", "2", "--direct-samples", "2", "--schedule", "1,2,3"],
}


def printed_kinds(command: str, text: str) -> set[str]:
    """The kinds of number in a command's --out."""
    if command == "classify":
        return {k for r in json.loads(text)["reports"] for k in r} - {"point"}
    header, *rows = text.splitlines()[2:]
    columns = set(header.split(","))
    if command == "green":
        return {row.split(",")[0] for row in rows} | columns - {"method", "n", "value", "stderr"}
    return columns - {"n"}


@pytest.mark.parametrize("command", RUNS)
def test_every_printed_kind_is_listed(tmp_path, command):
    # every kind printed is checked or listed as unchecked, and the table
    # names no kind that is not printed
    out = tmp_path / "out"
    cache = [] if command == "return-law" else ["--cache-dir", str(tmp_path / "cache")]
    main([command, *RUNS[command], "--out", str(out), *cache])
    listed = {kind for cmd, kind in [*CHECKS, *UNCHECKED] if cmd == command}
    assert printed_kinds(command, out.read_text()) == listed


def test_checked_kinds_are_not_listed_unchecked():
    assert not CHECKS.keys() & UNCHECKED.keys()


def test_every_named_test_exists():
    parsed = {}
    for node in {node for tests in CHECKS.values() for node in tests}:
        path, *names = node.split("::")
        if path not in parsed:
            parsed[path] = ast.parse((Path(__file__).parent / path).read_text()).body
        scope = parsed[path]
        for name in names:
            (found,) = [d for d in scope if getattr(d, "name", None) == name]
            scope = found.body
        assert isinstance(found, ast.FunctionDef), node


#: numpy's extended-precision types: x87 80-bit on x86, float64 under MSVC
#: and on Apple arm64, binary128 on aarch64, so a result through them is
#: not the same on every platform
EXTENDED = {"longdouble", "clongdouble", "float128", "float96", "complex256", "complex192"}


def test_src_uses_no_extended_precision():
    # no name, attribute, import or string in src names an extended type
    found = []
    for path in sorted(Path(recwalk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            words = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None), getattr(node, "value", None)]
            if any(isinstance(w, str) and any(e in w for e in EXTENDED) for w in words):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
