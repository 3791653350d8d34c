"""Run one `recwalk` command in-process, with spans around its layers.

Usage: python3 bench/traced.py SPANS.json <recwalk arguments>

Each wrapped function is replaced where its caller looks it up, so the
program itself is unchanged.  Spans (name, start, end, parent id) are kept
in memory and written to SPANS.json when the command ends.  Per-sample leaf
calls (stream construction and the two samplers) get no span of their own:
the enclosing span keeps their call count, busy time and number of draws,
because a span per call would cost a sixth of an 18 us stream build.

A span's self time is its duration minus its child spans and leaf calls,
so the self times plus the leaf busy times add up to `cli.main`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def span(self, name, fn, attrs=None):
        """Wrap fn in a span; attrs(args, result) adds counters to it."""

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = {
                "id": len(self.spans),
                "parent": None if parent is None else parent["id"],
                "name": name,
                "child_s": 0.0,
                "leaves": {},
                "attrs": {},
            }
            self.spans.append(rec)
            self._stack.append(rec)
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent["child_s"] += rec["end"] - rec["start"]
            if attrs is not None:
                rec["attrs"] = attrs(args, result)
            return result

        return wrapper

    def leaf(self, name, fn, draws=None):
        """Wrap a per-sample call: count and busy time go to the open span."""

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            parent = self._stack[-1]
            agg = parent["leaves"].setdefault(name, [0, 0.0, 0])
            agg[0] += 1
            agg[1] += dt
            if draws is not None:
                agg[2] += draws(args)
            parent["child_s"] += dt
            return result

        return wrapper


def install(tracer: Tracer):
    """Wrap the public functions on the CLI paths; return the traced main."""
    from recwalk import branched_walk, cli, lawcache, return_laws, stable_laws

    def size(path):
        return {"file_bytes": Path(path).stat().st_size}

    spans = [
        (lawcache, "load_or_compute_position_law", "lawcache.load_or_compute",
         lambda a, r: {"hit": bool(r[1])}),
        (lawcache, "return_position_law", "return_laws.return_position_law", None),
        (lawcache, "save_position_law", "lawcache.save", lambda a, r: size(r)),
        (lawcache, "load_position_law", "lawcache.load", lambda a, r: size(a[0])),
        (return_laws, "tail_limit", "return_laws.tail_limit", None),
        (stable_laws, "self_convolve", "stable_laws.self_convolve", None),
        (stable_laws, "convolve_dists", "stable_laws.convolve_dists",
         lambda a, r: {"out_support": len(r.entries)}),
        (stable_laws, "lll_error", "stable_laws.lll_error",
         lambda a, r: {"in_support": len(a[0].entries)}),
        (branched_walk, "classify_point", "branched_walk.classify_point", None),
        (branched_walk, "shifted_green_sum", "branched_walk.shifted_green_sum",
         lambda a, r: {"method": r.method, "nsamples": r.nsamples, "exhausted": r.exhausted}),
    ]
    for module, attr, name, attrs in spans:
        setattr(module, attr, tracer.span(name, getattr(module, attr), attrs))
    leaves = [
        ("stream", "rng.stream", None),
        ("sample_first_return", "return_laws.sample_first_return", lambda a: int(a[1])),
        ("sample_position_at", "return_laws.sample_position_at", lambda a: len(a[1])),
    ]
    for attr, name, draws in leaves:
        setattr(branched_walk, attr, tracer.leaf(name, getattr(branched_walk, attr), draws))
    return tracer.span("cli.main", cli.main)


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run; 0 where a layer did no work."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def duration(chosen):
        return sum(s["end"] - s["start"] for s in chosen)

    def self_time(chosen):
        return sum(s["end"] - s["start"] - s["child_s"] for s in chosen)

    def attr(chosen, key):
        return sum(s["attrs"][key] for s in chosen)

    def leaf(name, field, chosen=spans):
        """Field 0 (calls), 1 (busy seconds) or 2 (draws) of a leaf call."""
        return sum(s["leaves"].get(name, (0, 0.0, 0))[field] for s in chosen)

    cli = by_name["cli.main"]
    m = {"cli.main_s": duration(cli), "cli.self_s": self_time(cli)}

    m["return_laws.return_position_law_s"] = duration(by_name["return_laws.return_position_law"])
    m["return_laws.tail_limit_s"] = duration(by_name["return_laws.tail_limit"])
    # sample_position_at is called once per sample_first_return call, so
    # only the latter's call count is reported.
    m["return_laws.sample_first_return.calls"] = leaf("return_laws.sample_first_return", 0)
    for name in ("return_laws.sample_first_return", "return_laws.sample_position_at"):
        m[f"{name}_s"] = leaf(name, 1)
        m[f"{name}.draws"] = leaf(name, 2)

    lll_error = by_name["stable_laws.lll_error"]
    convolve = by_name["stable_laws.convolve_dists"]
    m["stable_laws.lll_error_s"] = duration(lll_error)
    m["stable_laws.lll_error.in_support"] = attr(lll_error, "in_support")
    m["stable_laws.self_convolve_s"] = duration(by_name["stable_laws.self_convolve"])
    m["stable_laws.convolve_dists_s"] = duration(convolve)
    m["stable_laws.convolve_dists.calls"] = len(convolve)
    m["stable_laws.convolve_dists.out_support"] = attr(convolve, "out_support")

    lookups = by_name["lawcache.load_or_compute"]
    m["lawcache.load_or_compute_s"] = duration(lookups)
    m["lawcache.save_s"] = duration(by_name["lawcache.save"])
    m["lawcache.load_s"] = duration(by_name["lawcache.load"])
    m["lawcache.hits"] = attr(lookups, "hit")
    m["lawcache.misses"] = len(lookups) - m["lawcache.hits"]
    m["lawcache.file_bytes"] = max(
        (s["attrs"]["file_bytes"] for s in by_name["lawcache.load"]), default=0
    )

    m["rng.stream.calls"] = leaf("rng.stream", 0)
    m["rng.stream_s"] = leaf("rng.stream", 1)
    m["rng.stream.us_per_call"] = (
        1e6 * m["rng.stream_s"] / m["rng.stream.calls"] if m["rng.stream.calls"] else 0.0
    )

    classify = by_name["branched_walk.classify_point"]
    m["branched_walk.classify_point_s"] = duration(classify)
    m["branched_walk.classify_point.self_s"] = self_time(classify)
    m["branched_walk.classify_point.walks"] = leaf("rng.stream", 0, classify)
    for method in ("direct", "auxiliary"):
        green = [s for s in by_name["branched_walk.shifted_green_sum"]
                 if s["attrs"]["method"] == method]
        nsamples = attr(green, "nsamples")
        m[f"branched_walk.green_{method}_s"] = duration(green)
        m[f"branched_walk.green_{method}.self_s"] = self_time(green)
        m[f"branched_walk.green_{method}.exhausted_frac"] = (
            attr(green, "exhausted") / nsamples if nsamples else 0.0
        )
    return m


def leaf_busy_s(spans: list[dict]) -> float:
    """Busy time of all leaf calls, which have no span of their own."""
    return sum(agg[1] for s in spans for agg in s["leaves"].values())


def main(argv: list[str]) -> int:
    spans_path, args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    traced_main = install(tracer)
    import recwalk

    try:
        return traced_main(args)
    finally:
        spans_path.write_text(
            json.dumps({"recwalk": recwalk.__file__, "spans": tracer.spans})
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
