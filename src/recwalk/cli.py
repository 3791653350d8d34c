"""Command-line front end.

One experiment per invocation; every command is a pure function of its
configuration and the law cache, so reruns produce byte-identical output
files.  Timing and cache information go to stderr, never into the files.

Exit codes: 0 pass, 1 usage error (also when a library check refuses the
configuration), 2 numerical-check failure, 3 Monte Carlo / exact-oracle
contradiction.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        # one prefix for every usage error, a subcommand's argument errors too
        sys.stderr.write(f"{self.prog.partition(' ')[0]}: error: {message}\n")
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return f"{float(x):.17e}"


_INTERNAL_ARGS = ("func", "default_out", "default_format")


def _config_dict(args, command: str) -> dict:
    cfg = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in _INTERNAL_ARGS and v is not None
    }
    cfg["command"] = command
    if "out" in cfg:
        cfg["out"] = str(cfg["out"])
    if "cache_dir" in cfg:
        cfg["cache_dir"] = str(cfg["cache_dir"])
    return cfg


def _write_table(path: Path, fmt: str, config: dict, columns: list[str], rows: list[tuple]) -> None:
    if fmt == "json":
        payload = {
            "format": OUTPUT_FORMAT_VERSION,
            "config": config,
            "columns": columns,
            "rows": [list(r) for r in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    else:
        lines = [
            f"# {OUTPUT_FORMAT_VERSION}",
            "# config: " + json.dumps(config, sort_keys=True),
            ",".join(columns),
        ]
        lines += [",".join(str(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _even(parser: _Parser, value: int, name: str) -> int:
    if value < 2 or value % 2:
        parser.error(f"{name} must be an even integer >= 2")
    return value


# ---------------------------------------------------------------------------


def cmd_return_law(parser: _Parser, args) -> int:
    nmax = _even(parser, args.n_max, "--n-max")
    m_hi = min(1000, nmax)
    m_lo = max(100, m_hi // 10)
    if (m_hi - m_lo) // 2 + 1 < 10:  # the fit needs 10 even return times
        parser.error("--n-max must be >= 118 to fit the tail exponent")
    t0 = time.perf_counter()
    law = return_laws.first_return_law(nmax)
    rows = []
    for n in range(2, nmax + 1, 2):
        p = float(law.prob(n))
        rows.append((n, _fmt(p), _fmt(p * n**1.5)))
    fit = return_laws.fit_tail_exponent(law, m_lo, m_hi)
    rows.append(("slope", _fmt(fit.slope), f"window={fit.window[0]}..{fit.window[1]}"))
    rows.append(("prefactor", _fmt(fit.prefactor), f"npoints={fit.npoints}"))
    _write_table(
        args.out, args.format, _config_dict(args, "return-law"),
        ["n", "prob", "n32_prob"], rows,
    )
    log.info("return-law finished in %.2fs -> %s", time.perf_counter() - t0, args.out)
    if not SLOPE_BAND[0] <= fit.slope <= SLOPE_BAND[1]:
        log.error("fitted slope %.4f outside %s", fit.slope, SLOPE_BAND)
        return 2
    return 0


def cmd_lll(parser: _Parser, args) -> int:
    lmax = _even(parser, args.l_max, "--l-max")
    if _ladder(lmax)[0] < 2:
        parser.error("--l-max must be >= 40 to fit the tail limit")
    kmax = _even(parser, lmax * lmax if args.k_max is None else args.k_max, "--k-max")
    schedule = args.schedule
    # the window [-lmax, lmax] has lmax + 1 points on the even lattice
    points = stable_laws.transform_length(lmax + 1, schedule[-1])
    if points > stable_laws.MAX_TRANSFORM:
        parser.error(
            f"--schedule: the {schedule[-1]}-fold law needs a transform of {points} points, "
            f"above the limit of {stable_laws.MAX_TRANSFORM}"
        )
    t0 = time.perf_counter()
    law, hit = lawcache.load_or_compute_position_law(args.cache_dir, lmax, kmax)
    log.info(
        "position law (lmax=%d, kmax=%d): cache %s in %.2fs, error bound %.3g, tail mass %.3g",
        lmax, kmax, "hit" if hit else "miss", time.perf_counter() - t0, law.error_bound, law.tail_mass,
    )
    sigma = return_laws.tail_limit(law, ms=_ladder(lmax)).sigma
    target = stable_laws.StableTarget.cauchy(scale=np.pi * sigma)
    base = stable_laws.LatticeLaw.from_position_law(law)
    rows = []
    errors = []
    for n in schedule:
        dn = stable_laws.self_convolve(base, n)
        rep = stable_laws.lll_error(dn, target, n)
        errors.append(rep.sup_error)
        rows.append((n, _fmt(rep.sup_error), rep.argmax_point, _fmt(n * rep.prob_at_zero)))
    _write_table(
        args.out, args.format, _config_dict(args, "lll"),
        ["n", "sup_error", "argmax_k", "n_times_p0"], rows,
    )
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
        "config": _config_dict(args, "classify"),
        "reports": [r.to_json_dict() for r in reports],
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        rows = [
            (
                r.to_json_dict()["point"], r.verdict, r.p_lattice, r.p_escape,
                _fmt(r.mc_estimate), _fmt(r.ci[0]), _fmt(r.ci[1]),
            )
            for r in reports
        ]
        _write_table(
            args.out, "csv", _config_dict(args, "classify"),
            ["point", "verdict", "p_recurrent", "p_escape", "mc", "ci_lo", "ci_hi"],
            rows,
        )
    else:
        args.out.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
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
    for value, name in ((args.samples, "--samples"), (args.direct_samples, "--direct-samples")):
        if value < 2:
            parser.error(f"{name} must be >= 2 for a standard error")
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
                (method, cp, _fmt(mean), _fmt(se), _fmt(est.exhausted / est.nsamples))
            )
    for a, b in zip(schedule, schedule[1:]):
        rows.append(("growth-ratio", f"{a}->{b}", _fmt(aux.value(b) / aux.value(a)), "", ""))
    gap, sigma = branched_walk.cross_method_gap(direct, aux_capped, n_direct)
    rows.append(("cross-method-gap", n_direct, _fmt(gap), _fmt(sigma), ""))
    _write_table(
        args.out, args.format, _config_dict(args, "green"),
        ["method", "n", "value", "stderr", "exhausted_frac"], rows,
    )
    log.info("green finished in %.2fs -> %s", time.perf_counter() - t0, args.out)
    for est, name in ((direct, "direct"), (aux_capped, "auxiliary-capped")):
        frac = est.exhausted / est.nsamples
        if frac > 0.01:
            log.warning("%s: %.1f%% of trajectories exhausted the horizon", name, 100 * frac)
    if np.any(np.diff(aux.partial_sums) < 0):
        log.error("partial sums are not nondecreasing")
        return 2
    if len(schedule) >= 3:
        g1, g2, g3 = (aux.value(c) for c in schedule[-3:])
        if not (g3 - g2) > 0.5 * (g2 - g1):
            log.error("growth criterion failed: %.4f vs %.4f", g3 - g2, 0.5 * (g2 - g1))
            return 2
    return 0


# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    try:
        vals = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not vals or vals[0] < 1 or any(b <= a for a, b in zip(vals, vals[1:])):
        raise argparse.ArgumentTypeError("schedule must be strictly increasing positive integers")
    return vals


def build_parser() -> _Parser:
    parser = _Parser(prog="recwalk", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument(
            "--cache-dir", type=Path,
            default=Path(os.environ.get("RECWALK_CACHE_DIR", DEFAULT_CACHE_DIR)),
        )

    p = sub.add_parser("return-law", help="first-return-time law and its tail fit")
    common(p)
    p.add_argument("--n-max", type=int, default=2000)
    p.set_defaults(func=cmd_return_law, default_out="recwalk_return_law.csv")

    p = sub.add_parser("lll", help="local-limit error curve for the return-position law")
    common(p)
    p.add_argument("--l-max", type=int, default=2000)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--schedule", type=_int_list, default=[8, 16, 32, 64])
    p.set_defaults(func=cmd_lll, default_out="recwalk_lll.csv")

    p = sub.add_parser("classify", help="classify the six reference points")
    common(p)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--horizon", type=int, default=10_000)
    p.set_defaults(func=cmd_classify, default_out="recwalk_classify.json", default_format="json")

    p = sub.add_parser("green", help="shifted-walk green partial sums, both methods")
    common(p)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--direct-samples", type=int, default=100)
    p.add_argument("--direct-returns", type=int, default=1000)
    p.add_argument("--horizon", type=int, default=branched_walk.DEFAULT_DIRECT_HORIZON)
    p.add_argument("--schedule", type=_int_list, default=[100, 1000, 10000])
    p.set_defaults(func=cmd_green, default_out="recwalk_green.csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.format is None:
        args.format = getattr(args, "default_format", "csv")
    if args.out is None:
        args.out = Path(args.default_out)
        if args.format == "json" and args.out.suffix == ".csv":
            args.out = args.out.with_suffix(".json")
    for attr in ("samples", "horizon", "n_max", "l_max", "direct_samples", "direct_returns"):
        if getattr(args, attr, None) is not None and getattr(args, attr) < 1:
            parser.error(f"--{attr.replace('_', '-')} must be positive")
    try:
        return args.func(parser, args)
    except ValueError as exc:  # a library check refused the configuration
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
