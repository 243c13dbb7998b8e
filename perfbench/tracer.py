"""Traced ``seqscan`` run and the per-layer metrics derived from its spans.

Run as a script, this module wraps the library's public entry points where
the program looks them up, runs the CLI, and writes the spans to a JSON file:

    python3 perfbench/tracer.py SPANS.json -- segment --case ... --out-dir ...

The library itself is not changed: every span is recorded from outside, at
the boundary between two layers.  ``layer_metrics`` turns the spans into the
``per_layer`` metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time


class Tracer:
    """In-memory span recorder; spans are written out once the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` recording one span per call; ``work(args, result)`` counts its work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            # work started on a pool thread belongs to the command that submitted it
            parent = stack[-1] if stack else tracer.root
            if tracer.root is None:
                tracer.root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            tracer.spans.append({
                "id": sid, "name": name, "start": start, "end": end, "parent": parent,
                "thread": threading.get_ident(),
                "work": int(work(args, result)) if work is not None else None,
            })
            return result

        return traced


def _rows(table) -> int:
    """Positions in a ``read_positions`` table, in either of its two modes."""
    return sum(
        sum(len(part) for part in v) if isinstance(v, tuple) else len(v) for v in table.values()
    )


def install(tracer: Tracer):
    """Wrap the entry points of every layer; return the traced ``cli.main``."""
    # the package re-exports functions under its submodules' names (seqscan.mbic)
    cli, mbic, posterior, segment, stats = (
        importlib.import_module(f"seqscan.{name}")
        for name in ("cli", "mbic", "posterior", "segment", "stats")
    )

    def patch(owner, attr, name, work=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), work))

    patch(cli, "read_positions", "process.read_positions", work=lambda a, r: _rows(r))
    patch(cli, "read_sets_from_table", "process.read_sets_from_table")
    patch(cli, "merge_reads", "process.merge_reads", work=lambda a, r: r.m)
    patch(cli, "cbs_segment", "segment.cbs_segment")
    patch(cli, "select_k", "mbic.select_k")
    patch(cli, "to_genomic", "process.to_genomic")
    patch(cli, "ci_band", "posterior.ci_band")
    patch(segment, "iterative_grid_scan", "segment.iterative_grid_scan")
    patch(segment, "exhaustive_scan", "segment.exhaustive_scan")
    patch(stats.StatKernel, "objective", "stats.objective", work=lambda a, r: len(a[1]))
    patch(mbic, "mbic", "mbic.mbic")
    patch(posterior, "mixture_quantile", "posterior.mixture_quantile")
    patch(posterior, "cp_likelihoods", "posterior.cp_likelihoods")
    patch(posterior.BetaMixture, "cdf", "posterior.cdf", work=lambda a, r: a[0].a.size)
    return tracer.wrap("cli.main", cli.main)


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _union(children.get(s["id"], [])) for s in spans}


def chrom_overlap(spans) -> float:
    """Sum of per-chromosome span times over the union of those spans.

    A chromosome's span runs from its ``merge_reads`` call to the end of the
    last call its thread makes before the next chromosome starts there.
    1.0 means the chromosomes ran one after another.
    """
    root = next((s["id"] for s in spans if s["name"] == "cli.main"), None)
    top = sorted((s for s in spans if s["parent"] == root and s["name"] != "cli.main"),
                 key=lambda s: s["start"])
    groups: dict[int, list] = {}
    for s in top:
        per_thread = groups.setdefault(s["thread"], [])
        if s["name"] == "process.merge_reads":
            per_thread.append([s["start"], s["end"]])
        elif per_thread:
            per_thread[-1][1] = max(per_thread[-1][1], s["end"])
    chrom_spans = [tuple(g) for per_thread in groups.values() for g in per_thread]
    union = _union(chrom_spans)
    return sum(e - s for s, e in chrom_spans) / union if union > 0 else 1.0


def layer_metrics(spans, m_total: int, bytes_written: int) -> dict[str, float]:
    """The per-layer metrics, from one traced run's spans."""
    self_t = self_times(spans)

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in of(name))

    def calls(name):
        return len(of(name))

    def work(name):
        return sum(s["work"] for s in of(name))

    def own(*names):
        return sum(self_t[s["id"]] for n in names for s in of(n))

    cdf_calls = calls("posterior.cdf")
    quantiles = calls("posterior.mixture_quantile")
    intervals = work("stats.objective")
    return {
        "posterior.cdf_calls": cdf_calls,
        "posterior.cdf_components": work("posterior.cdf"),
        "posterior.quantile_calls": quantiles,
        "posterior.cdf_per_quantile": cdf_calls / quantiles if quantiles else 0.0,
        "posterior.cdf_s": total("posterior.cdf"),
        "posterior.cp_likelihoods_calls": calls("posterior.cp_likelihoods"),
        "posterior.ci_band_s": total("posterior.ci_band"),
        "posterior.self_s": own("posterior.ci_band"),
        "segment.cbs_segment_s": total("segment.cbs_segment"),
        "segment.grid_scans": calls("segment.iterative_grid_scan"),
        "segment.exhaustive_scans": calls("segment.exhaustive_scan"),
        "segment.self_s": own("segment.cbs_segment", "segment.iterative_grid_scan",
                              "segment.exhaustive_scan"),
        "stats.objective_calls": calls("stats.objective"),
        "stats.intervals_evaluated": intervals,
        "stats.intervals_per_read": intervals / m_total if m_total else 0.0,
        "stats.objective_s": total("stats.objective"),
        "cli.chrom_overlap": chrom_overlap(spans),
        "cli.self_s": own("cli.main"),
        "cli.bytes_written": bytes_written,
        "process.read_positions_s": total("process.read_positions"),
        "process.rows_parsed": work("process.read_positions"),
        "process.merge_reads_s": total("process.merge_reads"),
        "mbic.select_k_s": total("mbic.select_k"),
        "mbic.mbic_calls": calls("mbic.mbic"),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <seqscan arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(argv[2:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
