"""Command-line front end.

One experiment per invocation; every command is a pure function of its
configuration and the law cache, so reruns produce byte-identical output
files.  Timing and cache information go to stderr, never into the files.

Exit codes: 0 pass, 1 usage error (also when a library check refuses the
configuration or an --out or --cache-dir path cannot be used), 2
numerical-check failure, 3 Monte Carlo / exact-oracle contradiction.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import branched_walk, lawcache, return_laws, stable_laws
from .rng import DEFAULT_SEED

log = logging.getLogger("recwalk")

OUTPUT_FORMAT_VERSION = "recwalk-output-1"
SLOPE_BAND = (-1.55, -1.45)
ZERO_MASS_BAND = (0.55, 0.72)
DEFAULT_CACHE_DIR = "recwalk-cache"
#: largest `return-law --n-max`; the law is held in memory and its rows
#: are written in chunks, and n_max = 2*10^6 already takes seconds
MAX_RETURN_TIME = 2_000_000
#: largest `green --schedule` entry; each estimate holds arrays of this
#: many returns, and 10^7 already takes hundreds of MB
MAX_GREEN_RETURNS = 10_000_000
#: largest `green --samples` and `--direct-samples`; each sample costs about
#: 0.1 ms per method even at `--schedule 1,2,3` (60-100 us auxiliary, 100-115 us
#: direct on a 2-core x86 VM), so 10^6 already takes minutes
MAX_GREEN_SAMPLES = 1_000_000
#: default `green --horizon`, in walk steps, past which returns are dropped
DEFAULT_DIRECT_HORIZON = 4_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        # one prefix for every usage error, a subcommand's argument errors too
        sys.stderr.write(f"{self.prog.partition(' ')[0]}: error: {message}\n")
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return f"{float(x):.17e}"


def _config(args) -> dict:
    """The arguments of the run, the command among them, for the output's
    config; the paths are written as text by `json.dumps(..., default=str)`."""
    return {k: v for k, v in vars(args).items() if k != "func" and v is not None}


#: rows that _write_table joins and writes at once
_WRITE_CHUNK = 1 << 14


def _write_table(parser: _Parser, args, columns: list[str], rows) -> None:
    """Write --out: the header, then the already formatted CSV rows, an
    iterable, joined and written _WRITE_CHUNK at a time, so that a long
    table is never held whole."""
    rows = iter(rows)
    with _open_out(parser, args.out) as f:
        f.write(f"# {OUTPUT_FORMAT_VERSION}\n")
        f.write("# config: " + json.dumps(_config(args), sort_keys=True, default=str) + "\n")
        f.write(",".join(columns) + "\n")
        while chunk := list(itertools.islice(rows, _WRITE_CHUNK)):
            chunk.append("")
            f.write("\n".join(chunk))


@contextlib.contextmanager
def _usable(parser: _Parser, option: str, path: Path):
    """Report an OS error inside the block, such as a directory named by
    --out or a file named by --cache-dir, as a usage error naming the path."""
    try:
        yield
    except OSError as exc:
        parser.error(f"{option}: cannot use {path} ({exc})")


@contextlib.contextmanager
def _open_out(parser: _Parser, path: Path):
    """--out opened for writing, its missing parents made first; an OS error
    in the block is a usage error naming it."""
    with _usable(parser, "--out", path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            yield f


# ---------------------------------------------------------------------------


def cmd_return_law(parser: _Parser, args) -> int:
    m_hi = min(1000, args.n_max)
    m_lo = max(100, m_hi // 10)
    t0 = time.perf_counter()
    law = return_laws.first_return_law(args.n_max)
    fit = return_laws.fit_tail_exponent(law, m_lo, m_hi)
    fit_rows = [
        f"slope,{_fmt(fit.slope)},window={fit.window[0]}..{fit.window[1]}",
        f"prefactor,{_fmt(fit.prefactor)},npoints={fit.npoints}",
    ]
    _write_table(parser, args, ["n", "prob", "n32_prob"], itertools.chain(_law_rows(law), fit_rows))
    log.info("return-law finished in %.2fs -> %s", time.perf_counter() - t0, args.out)
    if not SLOPE_BAND[0] <= fit.slope <= SLOPE_BAND[1]:
        log.error("fitted slope %.4f outside %s", fit.slope, SLOPE_BAND)
        return 2
    return 0


def _law_rows(law: return_laws.LatticeLaw):
    """The rows n, P(return = n), n^(3/2) P(return = n), made _WRITE_CHUNK
    at a time."""
    ns, ps = law.support(), law.entries
    for lo in range(0, len(ns), _WRITE_CHUNK):
        chunk = zip(ns[lo : lo + _WRITE_CHUNK].tolist(), ps[lo : lo + _WRITE_CHUNK].tolist())
        # n**1.5 by Python's pow: numpy's SIMD power differs in the last bit
        yield from (f"{n},{_fmt(p)},{_fmt(p * n**1.5)}" for n, p in chunk)


def cmd_lll(parser: _Parser, args) -> int:
    lmax = args.l_max
    kmax = lmax * lmax if args.k_max is None else args.k_max
    column = return_laws.column_length(lmax, kmax)
    if column > return_laws.MAX_COLUMN:
        parser.error(
            f"--l-max/--k-max: the law's boundary column needs {column} entries, "
            f"above the limit of {return_laws.MAX_COLUMN}"
        )
    schedule = args.schedule
    # the window [-lmax, lmax] has lmax + 1 points on the even lattice
    points = stable_laws.transform_length(lmax + 1, schedule[-1])
    if points > stable_laws.MAX_TRANSFORM:
        parser.error(
            f"--schedule: the {schedule[-1]}-fold law needs a transform of {points} points, "
            f"above the limit of {stable_laws.MAX_TRANSFORM}"
        )
    t0 = time.perf_counter()
    with _usable(parser, "--cache-dir", args.cache_dir):
        law, hit = lawcache.load_or_compute_position_law(args.cache_dir, lmax, kmax)
    log.info(
        "position law (lmax=%d, kmax=%d): cache %s in %.2fs, error bound %.3g, tail mass %.3g",
        lmax, kmax, "hit" if hit else "miss", time.perf_counter() - t0, law.error_bound, law.leaked,
    )
    scale = np.pi * return_laws.tail_limit(law, ms=_ladder(lmax))
    base = return_laws.LatticeLaw.from_position_law(law)
    rows = []
    errors = []
    for n in schedule:
        # the n-fold law is dropped before the next one is built
        rep = stable_laws.lll_error(stable_laws.self_convolve(base, n), scale, n)
        errors.append(rep.sup_error)
        rows.append(f"{n},{_fmt(rep.sup_error)},{rep.argmax_point},{_fmt(n * rep.prob_at_zero)}")
    _write_table(parser, args, ["n", "sup_error", "argmax_k", "n_times_p0"], rows)
    log.info("lll finished in %.2fs -> %s", time.perf_counter() - t0, args.out)
    if any(b >= a for a, b in zip(errors, errors[1:])):
        log.error("sup errors not strictly decreasing: %s", errors)
        return 2
    final_zero_mass = schedule[-1] * rep.prob_at_zero
    if not ZERO_MASS_BAND[0] <= final_zero_mass <= ZERO_MASS_BAND[1]:
        log.error("final n*P(Z_n=0) = %.4f outside %s", final_zero_mass, ZERO_MASS_BAND)
        return 2
    return 0


def _ladder(lmax: int) -> tuple[int, ...]:
    top = lmax // 5
    return (top // 4, top // 2, top)


def cmd_classify(parser: _Parser, args) -> int:
    t0 = time.perf_counter()
    reports = branched_walk.classify_standard_points(
        horizon=args.horizon, nsamples=args.samples, seed=args.seed
    )
    payload = {
        "format": OUTPUT_FORMAT_VERSION,
        "config": _config(args),
        "reports": [r.to_json_dict() for r in reports],
    }
    with _open_out(parser, args.out) as f:
        f.write(json.dumps(payload, sort_keys=True, indent=1, default=str) + "\n")
    log.info("classify finished in %.2fs -> %s", time.perf_counter() - t0, args.out)
    for r in reports:
        width = r.ci[1] - r.ci[0]
        if width > 0.02:
            log.warning("wide confidence interval (%.3f) at %s", width, r.to_json_dict()["point"])
    if any(r.flagged for r in reports):
        log.error("Monte Carlo contradicts the exact oracle beyond 4 sigma")
        return 3
    verdicts = {r.verdict for r in reports}
    if verdicts != {"Recurrent", "Transient", "Neither"}:
        log.error("expected all three verdict kinds, got %s", sorted(verdicts))
        return 2
    return 0


def cmd_green(parser: _Parser, args) -> int:
    schedule = args.schedule
    n_top = schedule[-1]
    t0 = time.perf_counter()
    aux = branched_walk.shifted_green_sum(
        n_top, args.samples, seed=args.seed, method="auxiliary",
        checkpoints=tuple(schedule),
    )
    n_direct = min(args.direct_returns, n_top)
    direct = branched_walk.shifted_green_sum(
        n_direct, args.direct_samples, seed=args.seed, method="direct",
        horizon=args.horizon, checkpoints=tuple(c for c in schedule if c <= n_direct),
    )
    aux_capped = branched_walk.shifted_green_sum(
        n_direct, args.samples, seed=args.seed, method="auxiliary",
        horizon=args.horizon, checkpoints=(n_direct,),
    )
    rows = []
    for method, est in (("auxiliary", aux), ("direct", direct), ("auxiliary-capped", aux_capped)):
        for cp, (mean, se) in sorted(est.checkpoint_stats.items()):
            rows.append(
                f"{method},{cp},{_fmt(mean)},{_fmt(se)},{_fmt(est.exhausted / est.nsamples)}"
            )
    g = [aux.checkpoint_stats[c][0] for c in schedule]
    for a, b, ga, gb in zip(schedule, schedule[1:], g, g[1:]):
        rows.append(f"growth-ratio,{a}->{b},{_fmt(gb / ga)},,")
    gap, sigma = branched_walk.cross_method_gap(direct, aux_capped, n_direct)
    rows.append(f"cross-method-gap,{n_direct},{_fmt(gap)},{_fmt(sigma)},")
    _write_table(parser, args, ["method", "n", "value", "stderr", "exhausted_frac"], rows)
    log.info("green finished in %.2fs -> %s", time.perf_counter() - t0, args.out)
    for est, name in ((direct, "direct"), (aux_capped, "auxiliary-capped")):
        frac = est.exhausted / est.nsamples
        if frac > 0.01:
            log.warning("%s: %.1f%% of trajectories exhausted the horizon", name, 100 * frac)
    if any(gb < ga for ga, gb in zip(g, g[1:])):
        log.error("partial sums are not nondecreasing")
        return 2
    if len(schedule) >= 3:
        g1, g2, g3 = g[-3:]
        if not (g3 - g2) > 0.5 * (g2 - g1):
            log.error("growth criterion failed: %.4f vs %.4f", g3 - g2, 0.5 * (g2 - g1))
            return 2
    return 0


# ---------------------------------------------------------------------------


def _integer(lo: int, hi: int | None = None, even: bool = False):
    """The argparse type of an integer option: an integer in [lo, hi], or
    >= lo if hi is None, and even if `even`."""
    kind = "an even integer" if even else "an integer"
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"

    def integer(text: str) -> int:
        value = int(text)  # a ValueError reads "invalid integer value: …"
        if value < lo or (hi is not None and value > hi) or (even and value % 2):
            raise argparse.ArgumentTypeError(f"must be {kind} {bounds}, got {value}")
        return value

    return integer


def _schedule(hi: int | None = None):
    """The argparse type of --schedule: a comma-separated, strictly
    increasing list of integers in [1, hi]."""
    entry = _integer(1, hi)

    def schedule(text: str) -> list[int]:
        vals = [entry(t) for t in text.split(",") if t.strip()]
        if not vals or any(b <= a for a, b in zip(vals, vals[1:])):
            raise argparse.ArgumentTypeError(f"not a strictly increasing list: {text!r}")
        return vals

    return schedule


def build_parser() -> _Parser:
    parser = _Parser(prog="recwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_name):
        # the range of the stream keys
        p.add_argument("--seed", type=_integer(0, (1 << 64) - 1), default=DEFAULT_SEED)
        p.add_argument("--out", type=Path, default=Path(out_name))
        p.add_argument("--cache-dir", type=Path, default=Path(DEFAULT_CACHE_DIR))

    p = sub.add_parser("return-law", help="first-return-time law and its tail fit")
    p.add_argument("--out", type=Path, default=Path("recwalk_return_law.csv"))
    # from 118 on, the fit window [100, n_max] holds 10 even return times
    p.add_argument("--n-max", type=_integer(118, MAX_RETURN_TIME, even=True), default=2000)
    p.set_defaults(func=cmd_return_law)

    p = sub.add_parser("lll", help="local-limit error curve for the return-position law")
    common(p, "recwalk_lll.csv")
    # from 40 on, the tail-limit ladder starts at m >= 2
    p.add_argument("--l-max", type=_integer(40, even=True), default=2000)
    p.add_argument("--k-max", type=_integer(2, even=True), default=None)
    p.add_argument("--schedule", type=_schedule(), default=[8, 16, 32, 64])
    p.set_defaults(func=cmd_lll)

    p = sub.add_parser("classify", help="classify the six reference points")
    common(p, "recwalk_classify.json")
    p.add_argument("--samples", type=_integer(1), default=100_000)
    p.add_argument("--horizon", type=_integer(1), default=10_000)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("green", help="shifted-walk green partial sums, both methods")
    common(p, "recwalk_green.csv")
    # two samples at least, for a standard error
    samples = _integer(2, MAX_GREEN_SAMPLES)
    p.add_argument("--samples", type=samples, default=400)
    p.add_argument("--direct-samples", type=samples, default=100)
    p.add_argument("--direct-returns", type=_integer(1), default=1000)
    p.add_argument("--horizon", type=_integer(1), default=DEFAULT_DIRECT_HORIZON)
    p.add_argument("--schedule", type=_schedule(MAX_GREEN_RETURNS), default=[100, 1000, 10000])
    p.set_defaults(func=cmd_green)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # refused before any computation, and creating nothing: a run that a
    # library check refuses later leaves nothing behind, since --out's
    # missing parents are made only when it is written
    with _usable(parser, "--out", args.out):
        if args.out.is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(args.out))
        if any(p.exists() and not p.is_dir() for p in args.out.parents):
            raise NotADirectoryError(errno.ENOTDIR, "Not a directory", str(args.out))
    try:
        return args.func(parser, args)
    except ValueError as exc:  # a library check refused the configuration
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
