"""Output checks for the benchmark's workloads.

Each check takes the exit code and output bytes of one `recwalk` run plus
the configuration the benchmark asked for, and returns a list of problems.
An empty list means the run counts as correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction
from pathlib import Path

OUTPUT_FORMAT = "recwalk-output-1"

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# The lll sup-error and n*P(Z_n = 0) columns must stay within this relative
# distance of the reference values.  The return-position law is certified
# only to about 1e-8 pointwise, and planned rewrites (dense lattice laws, the
# closed-form law) move the trailing digits by 1e-12 to 1e-7 relative; any
# change of a leading digit is far outside.
LLL_RTOL = 1e-6

# Verdict and exact lattice-entry probability due at each reference point.
CLASSIFY_DUE = {
    "lattice(0,0)": ("Recurrent", Fraction(1)),
    "tail(1)": ("Transient", Fraction(0)),
    "tail(0)": ("Neither", Fraction(4, 9)),
    "inlet(0)": ("Neither", Fraction(5, 9)),
    "tail(-3)": ("Neither", Fraction(4, 9)),
    "inlet(-3)": ("Neither", Fraction(5, 9)),
}


def config_of(argv: list[str]) -> dict:
    """The output `config` entries that a `recwalk` argument list must produce."""
    cfg = {"command": argv[0]}
    flags = argv[1:]
    for flag, value in zip(flags[::2], flags[1::2]):
        key = flag.lstrip("-").replace("-", "_")
        if "," in value:
            cfg[key] = [int(v) for v in value.split(",")]
        elif value.lstrip("-").isdigit():
            cfg[key] = int(value)
        else:
            cfg[key] = value
    return cfg


def check(code: int, data: bytes | None, requested: dict) -> list[str]:
    """Problems with one run of the command named in requested["command"]."""
    if code != 0:
        return [f"exit code {code}"]
    if data is None:
        return ["no output file"]
    try:
        text = data.decode()
        return CHECKS[requested["command"]](text, requested)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _config_problems(config: dict, requested: dict) -> list[str]:
    return [
        f"config {key}={config.get(key)!r}, requested {value!r}"
        for key, value in requested.items()
        if config.get(key) != value
    ]


def _csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    lines = text.splitlines()
    if lines[0] != f"# {OUTPUT_FORMAT}" or not lines[1].startswith("# config: "):
        raise ValueError("missing format or config header")
    config = json.loads(lines[1][len("# config: "):])
    return config, lines[2].split(","), [line.split(",") for line in lines[3:]]


def check_lll(text: str, requested: dict) -> list[str]:
    config, columns, rows = _csv(text)
    problems = _config_problems(config, requested)
    if columns != ["n", "sup_error", "argmax_k", "n_times_p0"]:
        return problems + [f"columns {columns}"]
    ref = REFERENCE["lll"]
    if (requested["l_max"], requested["k_max"]) != (ref["l_max"], ref["k_max"]):
        return problems + ["no reference values for this l_max/k_max"]
    if [int(r[0]) for r in rows] != requested["schedule"]:
        problems.append(f"rows for n={[r[0] for r in rows]}, schedule {requested['schedule']}")
    for n, sup, _argmax, zero in rows:
        for name, value in (("sup_error", sup), ("n_times_p0", zero)):
            want = float(ref["rows"][n][name])
            if not abs(float(value) - want) <= LLL_RTOL * abs(want):
                problems.append(f"n={n} {name}={value}, reference {want!r}")
    return problems


def check_classify(text: str, requested: dict) -> list[str]:
    payload = json.loads(text)
    problems = []
    if payload["format"] != OUTPUT_FORMAT:
        problems.append(f"format {payload['format']!r}")
    problems += _config_problems(payload["config"], requested)
    reports = {r["point"]: r for r in payload["reports"]}
    if len(reports) != len(payload["reports"]) or set(reports) != set(CLASSIFY_DUE):
        problems.append(f"points {[r['point'] for r in payload['reports']]}")
    for point, (verdict, p) in CLASSIFY_DUE.items():
        r = reports.get(point)
        if r is None:
            continue
        if r["verdict"] != verdict or Fraction(r["p_recurrent"]) != p:
            problems.append(f"{point}: {r['verdict']} p={r['p_recurrent']}, due {verdict} p={p}")
        if Fraction(r["p_escape"]) != 1 - p:
            problems.append(f"{point}: p_escape={r['p_escape']}")
        mc = r["mc"]
        if (mc["nsamples"], mc["horizon"], mc["seed"]) != (
            requested["samples"], requested["horizon"], requested["seed"]
        ):
            problems.append(f"{point}: nsamples/horizon/seed {mc['nsamples']}/{mc['horizon']}/{mc['seed']}")
    return problems


def check_green(text: str, requested: dict) -> list[str]:
    """The file does not state sample counts.  A short ensemble shows here
    only as a missing row or as an exhausted fraction that is not a count
    out of the requested samples, so one whose size divides the requested
    count passes; `check_green_spans` counts the samples of a traced run."""
    config, columns, rows = _csv(text)
    problems = _config_problems(config, requested)
    if columns != ["method", "n", "value", "stderr", "exhausted_frac"]:
        return problems + [f"columns {columns}"]
    schedule = requested["schedule"]
    n_direct = min(requested["direct_returns"], schedule[-1])
    due = {
        ("auxiliary", cp): requested["samples"] for cp in schedule
    } | {
        ("direct", cp): requested["direct_samples"] for cp in schedule if cp <= n_direct
    } | {("auxiliary-capped", n_direct): requested["samples"]}
    seen = {}
    for method, n, value, stderr, frac in rows:
        if method in ("growth-ratio", "cross-method-gap"):
            if not math.isfinite(float(value)):
                problems.append(f"{method} {n}: value {value}")
            continue
        seen[(method, int(n))] = (float(value), float(stderr), float(frac))
    if set(seen) != set(due):
        problems.append(f"rows {sorted(seen)}, due {sorted(due)}")
    for key, nsamples in due.items():
        if key not in seen:
            continue
        value, stderr, frac = seen[key]
        if not (value >= 1.0 and math.isfinite(stderr) and stderr >= 0.0):
            problems.append(f"{key}: value {value} stderr {stderr}")
        exhausted = frac * nsamples
        if not (0.0 <= frac <= 1.0 and abs(exhausted - round(exhausted)) < 1e-6):
            problems.append(f"{key}: exhausted_frac {frac} is not a count out of {nsamples}")
    return problems


CHECKS = {"lll": check_lll, "classify": check_classify, "green": check_green}


def check_green_spans(spans: list[dict], requested: dict) -> list[str]:
    """Sample counts of a traced `green` run, from its leaf calls.

    Each auxiliary sample draws one first return, and each direct sample
    builds one stream; the CLI makes two auxiliary estimates (uncapped and
    capped) and one direct estimate.
    """
    leaf = {"auxiliary": "return_laws.sample_first_return", "direct": "rng.stream"}
    due = {"auxiliary": [requested["samples"]] * 2, "direct": [requested["direct_samples"]]}
    seen = {"auxiliary": [], "direct": []}
    for s in spans:
        if s["name"] == "branched_walk.shifted_green_sum":
            method = s["attrs"]["method"]
            seen[method].append(s["leaves"].get(leaf[method], (0, 0.0, 0))[0])
    return [f"{method} samples {seen[method]}, requested {counts}"
            for method, counts in due.items() if seen[method] != counts]


def check_cache_log(stderr: str, expected: str) -> list[str]:
    """The `lll` log line must report a cache `expected` ("hit" or "miss")."""
    if f"): cache {expected} in " not in stderr:
        return [f"the position law was not a cache {expected}"]
    return []


class DigestStore:
    """Output digests of earlier runs, kept in a JSON file.

    Runs with the same program source and argument list must write the same
    bytes, whichever workload or process made them.
    """

    def __init__(self, path: Path):
        self.path = path
        self.digests = json.loads(path.read_text()) if path.exists() else {}

    def compare(self, source: str, argv: list[str], data: bytes) -> list[str]:
        key = hashlib.sha256("\0".join([source, *argv]).encode()).hexdigest()
        digest = hashlib.sha256(data).hexdigest()
        known = self.digests.setdefault(key, digest)
        if known != digest:
            return ["output bytes differ from an earlier run with the same arguments"]
        return []

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=0, sort_keys=True))
        os.replace(tmp, self.path)
