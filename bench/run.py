#!/usr/bin/env python3
"""End-to-end benchmark of the recwalk command line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs one `recwalk` command per fresh process, as users run
it, from the checkout's `src/`.  The workload seed goes to `--seed`.  With
`--trace 0` the run times as many whole commands as fit in S seconds (at
least one) and reports `wall_s`, `cpu_s`, `peak_rss_mb` and `setup_s`.
With `--trace 1` it runs the same command untraced and then under
`bench/traced.py`, and reports the per-layer metrics.  Every output is checked; a run whose exit code, output
values or output bytes are wrong counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--workload all` runs
every workload in turn.  Scratch files go to `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
ENTRY = "import sys; from recwalk.cli import main; sys.exit(main())"
RUN_LIMIT_S = 170.0  # a run ends within this, set-up included
SETUP_REPEATS = 3
# One BLAS thread in every child.  On `lll-cold` a second OpenBLAS thread
# saves no wall time but spins on the other core between the many vector
# dot products; on a shared 2-core host that made `wall_s` and `cpu_s`
# spread by a quarter of their median from run to run.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The ROADMAP's default configurations, pinned so that a change of defaults
# does not silently change a workload.  Every run passes the same relative
# --out and --cache-dir strings, which the output's config embeds.
LLL = ("lll", "--l-max", "2000", "--k-max", "4000000", "--schedule", "8,16,32,64")
COMMANDS = {
    "lll-cold": LLL,
    "lll-warm": LLL,
    "classify": ("classify", "--samples", "100000", "--horizon", "10000"),
    "green": (
        "green", "--samples", "400", "--direct-samples", "100", "--direct-returns", "1000",
        "--horizon", "4000000", "--schedule", "100,1000,10000",
    ),
}
OUT = {"lll": "out.csv", "classify": "out.json", "green": "out.csv"}
CACHE = "cache"


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def spawn(cmd: list[str], cwd: Path, env: dict, timeout: float, stderr: Path) -> Proc:
    """Run cmd to completion; time it and read its resource usage."""
    with open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        # Kill by pid: the child stays a zombie until wait4 below, so the
        # pid cannot be reused while the timer may still fire.
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode)


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads():
    """Threads OpenBLAS would use in a child with this environment, if known."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                return int(getattr(ctypes.CDLL(str(lib)), symbol)())
            except (OSError, AttributeError):
                continue
    return None


def run_record(source: str) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": source,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads": blas_threads()},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if "THREAD" in k or k.startswith("OMP_")},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Quartiles that lie within the values, as few as the runs may be."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds of each recwalk module, plus their total.

    A module's time includes whatever it is first to import, as `-X
    importtime` counts it; the total sums the outermost recwalk entries.
    """
    out: dict[str, float] = {}
    depth0 = None
    total = 0.0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        module = name.strip()
        if not module.startswith("recwalk"):
            continue
        depth = len(name) - len(name.lstrip())
        seconds = int(cumulative) / 1e6
        out.setdefault(module, seconds)
        if depth0 is None or depth < depth0:
            depth0, total = depth, 0.0
        if depth == depth0:
            total += seconds
    return {
        "import.total_s": total,
        "import.stable_laws_s": out.get("recwalk.stable_laws", 0.0),
        "import.return_laws_s": out.get("recwalk.return_laws", 0.0),
        "import.branched_walk_s": out.get("recwalk.branched_walk", 0.0),
    }


class Bench:
    """One workload's work directory, its checks and its time budget."""

    def __init__(self, workload: str, seed: int, source: str, digests: checks.DigestStore):
        self.workload = workload
        command, *args = COMMANDS[workload]
        self.argv = [command, "--seed", str(seed), "--out", OUT[command],
                     "--cache-dir", CACHE, *args]
        self.requested = checks.config_of(self.argv)
        self.source = source
        self.digests = digests
        self.dir = WORK / workload
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def prepare(self) -> None:
        """Give the next run its cache state: empty, or filled by one
        untimed run of the same command (kept while the source is unchanged)."""
        if self.workload != "lll-warm":
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir.mkdir(parents=True)
            return
        marker = self.dir / "filled"
        if marker.exists() and marker.read_text() == self.source:
            return
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        failed = self.failed
        self.command([sys.executable, "-c", ENTRY], "fill")
        if self.failed == failed:
            marker.write_text(self.source)

    def command(self, prefix: list[str], label: str, more=None) -> tuple[Proc, bytes | None]:
        """Run the workload's command once, check it and count it; more(),
        if given, returns the problems of further checks after the run."""
        out = self.dir / OUT[self.argv[0]]
        out.unlink(missing_ok=True)
        proc = spawn([*prefix, *self.argv], self.dir, self.env, self.remaining(),
                     self.dir / "stderr.txt")
        data = out.read_bytes() if out.exists() else None
        stderr = (self.dir / "stderr.txt").read_text(errors="replace")
        problems = checks.check(proc.code, data, self.requested)
        if not problems:
            problems = self.digests.compare(self.source, self.argv, data)
        if not problems and self.workload.startswith("lll-"):
            # Only the warm workload's timed runs may find the law cached.
            hit = self.workload == "lll-warm" and label != "fill"
            problems = checks.check_cache_log(stderr, "hit" if hit else "miss")
        if more is not None:
            problems += more()
        self.attempted += 1
        if problems:
            self.failed += 1
            tail = stderr[-2000:]
            print(f"FAILED {self.workload} ({label}): {'; '.join(problems)}\n{tail}",
                  file=sys.stderr)
        return proc, data

    def fresh_interpreter(self, args: list[str], name: str) -> Proc:
        return spawn([sys.executable, *args], WORK, self.env, self.remaining(),
                     WORK / name)


def repeat(bench: Bench, seconds: float, once) -> None:
    """Call once() again and again while the next call is expected to end
    within `seconds` and the run's time limit; always at least once.
    once() returns the wall time it took."""
    t0 = time.monotonic()
    longest = 0.0
    while True:
        longest = max(longest, once())
        if (time.monotonic() - t0 + longest > seconds
                or bench.remaining() < 1.5 * longest + 5):
            return


def end_to_end(bench: Bench, seconds: float) -> dict[str, list[float]]:
    setup = [bench.fresh_interpreter(["-c", ENTRY, bench.argv[0], "--help"], "setup.txt")
             for _ in range(SETUP_REPEATS)]
    if any(p.code != 0 for p in setup):
        raise RuntimeError(f"`recwalk {bench.argv[0]} --help` failed")
    bench.prepare()  # fills the warm cache outside the timed loop
    runs: list[Proc] = []

    def once():
        bench.prepare()
        runs.append(bench.command([sys.executable, "-c", ENTRY], "timed")[0])
        return runs[-1].wall_s

    repeat(bench, seconds, once)
    return {
        "wall_s": [p.wall_s for p in runs],
        "cpu_s": [p.cpu_s for p in runs],
        "peak_rss_mb": [p.peak_rss_mb for p in runs],
        "setup_s": [p.wall_s for p in setup],
    }


def per_layer(bench: Bench, seconds: float) -> dict[str, list[float]]:
    importtime = bench.fresh_interpreter(
        ["-X", "importtime", "-c", "from recwalk.cli import main"], "importtime.txt")
    if importtime.code != 0:
        raise RuntimeError("importing recwalk.cli failed")
    setup = parse_importtime((WORK / "importtime.txt").read_text())
    spans_path = WORK / "spans.json"
    samples: dict[str, list[float]] = {}

    def once():
        bench.prepare()
        plain, plain_out = bench.command([sys.executable, "-c", ENTRY], "untraced")
        bench.prepare()
        spans_path.unlink(missing_ok=True)
        doc = {}

        def sample_counts():
            if not spans_path.exists():
                raise RuntimeError("the traced run wrote no spans")
            doc.update(json.loads(spans_path.read_text()))
            if bench.argv[0] != "green":
                return []
            return checks.check_green_spans(doc["spans"], bench.requested)

        # The digest store fails the traced run if its bytes differ.
        tracedp, _ = bench.command(
            [sys.executable, str(HERE / "traced.py"), str(spans_path)], "traced",
            sample_counts)
        if not Path(doc["recwalk"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"recwalk imported from {doc['recwalk']}, not {SRC}")
        metrics = traced.summarize(doc["spans"])
        metrics["cli.out_bytes"] = len(plain_out or b"")
        metrics["trace.overhead_s"] = tracedp.wall_s - plain.wall_s
        metrics.update(setup)
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
        return plain.wall_s + tracedp.wall_s

    repeat(bench, seconds, once)
    return samples


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(workload: str, samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    print(f"{workload}: {'metric':<44} {'median':>14} {'q1':>14} {'q3':>14}  n  unit")
    metrics = {}
    for name, unit in units.items():
        q1, median, q3 = quartiles(samples[name])
        print(f"{workload}: {name:<44} {median:14.6g} {q1:14.6g} {q3:14.6g} {len(samples[name]):2d}  {unit}")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*COMMANDS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "recwalk" / "cli.py").is_file():
        print(f"bench: no recwalk source under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported, for the run record
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)  # users of an installed package have bytecode
    source = source_hash()
    digests = checks.DigestStore(WORK / "digests.json")
    units = metric_units("per_layer" if args.trace else "end_to_end")
    record = {"run_record": run_record(source), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    workloads = list(COMMANDS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        bench = Bench(workload, args.seed, source, digests)
        try:
            samples = (per_layer if args.trace else end_to_end)(bench, args.seconds)
        except RuntimeError as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 2
        finally:
            digests.save()
        attempted += bench.attempted
        failed += bench.failed
        print(f"{workload}: fail_frac {bench.failed / bench.attempted:g} "
              f"({bench.failed} of {bench.attempted} runs)")
        for name, value in report(workload, samples, units).items():
            metrics[name if len(workloads) == 1 else f"{workload}.{name}"] = value
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
