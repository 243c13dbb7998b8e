"""Batch command-line front end.

Subcommands: ``segment`` (ingest case/control reads, segment, select model
complexity, emit segments + credible band + criterion curve), ``simulate``
(spike-in read simulation), ``evaluate`` (match calls against truth),
``mbic-curve`` (criterion curve only).  All outputs are TSV with a single
'#'-prefixed header line, written atomically; runs are deterministic
functions of (inputs, flags, seed).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .evaluate import match_changepoints, nearest_read_index
from .mbic import select_k
from .posterior import ci_band
from .process import (
    CombinedProcess,
    InputError,
    ReadSet,
    merge_reads,
    read_positions,
    read_sets_from_table,
    read_tsv_rows,
    relative_copy_number,
    to_genomic,
)
from .segment import cbs_segment
from .simulate import GAIN, LOSS, estimate_baseline, sample_nhpp, sine_baseline, spike_in

log = logging.getLogger("seqscan")

MIN_READS_PER_CHROM = 10
SEGMENT_COLUMNS = (
    "chrom", "start_bp", "end_bp", "start_idx", "end_idx", "n_case", "n_control", "p_hat", "rel_cn",
)
TRUTH_COLUMNS = ("chrom", "start_bp", "end_bp", "multiplier")


@dataclass
class RunConfig:
    """Knobs shared by the pipeline subcommands."""

    stat_kind: str = "glr"
    grid_step: int = 10
    max_k: int = 50
    alpha: float = 1.0
    beta: float = 1.0
    ci_level: float = 0.95
    epsilon: float = 1e-4
    seed: int = 0
    threads: int = 1
    tolerance_reads: int = 100
    band_grid_step: int = 1
    case: str | None = None
    control: str | None = None
    out_dir: str = "."
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.stat_kind not in ("score", "glr"):
            raise InputError(f"--stat must be score or glr, got {self.stat_kind}")
        if self.grid_step < 2:
            raise InputError("--grid-step must be >= 2")
        if self.max_k < 1:
            raise InputError("--max-k must be >= 1")
        if not (0 < self.ci_level < 1):
            raise InputError("--ci-level must be in (0, 1)")
        if not (0 < self.epsilon < 1):
            raise InputError("--epsilon must be in (0, 1)")
        if self.alpha <= 0 or self.beta <= 0:
            raise InputError("--alpha and --beta must be positive")
        if self.threads < 1:
            raise InputError("--threads must be >= 1")
        if self.band_grid_step < 1:
            raise InputError("--band-grid-step must be >= 1")


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.10g}"
    return str(x)


def _write_atomic(path: str, header: str, rows) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("#" + header + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(v) for v in row) + "\n")
    os.replace(tmp, path)


def _band_rows(chrom: str, band) -> list[tuple]:
    """``band.tsv`` rows of one chromosome.

    Band values are constant over each run of consecutive grid positions that
    falls in one band block, so the six value columns of a run are formatted
    once and shared by its rows.
    """
    values = np.stack([band.lower, band.point_est, band.upper], axis=1)
    # compare bits, not values: 0.0 and -0.0 are equal but print differently
    bits = values.view(np.int64)
    new_run = np.ones(len(values), dtype=bool)
    new_run[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    tails = []
    for lo, pt, hi in values[new_run].tolist():
        cols = (lo, pt, hi, relative_copy_number(lo), relative_copy_number(pt),
                relative_copy_number(hi))
        tails.append("\t".join(_fmt(v) for v in cols))
    run = np.cumsum(new_run) - 1
    return [(chrom, pos, tails[r]) for pos, r in zip(band.grid.tolist(), run.tolist())]


def _load_pair(config: RunConfig) -> dict[str, tuple[ReadSet, ReadSet]]:
    """Read the input TSVs into per-chromosome (case, control) ReadSet pairs.

    Accepts separate --case/--control files, or one --reads file with a
    case/control label column.
    """
    labeled = config.extras.get("reads")
    if labeled:
        table = read_positions(labeled, label_mode=True)
        case = read_sets_from_table({c: v[0] for c, v in table.items()})
        control = read_sets_from_table({c: v[1] for c, v in table.items()})
    elif config.case and config.control:
        case = read_sets_from_table(read_positions(config.case))
        control = read_sets_from_table(read_positions(config.control))
    else:
        raise InputError("need --case and --control, or a labeled --reads file")
    empty = np.empty(0, dtype=np.int64)
    out = {}
    for chrom in sorted(set(case) | set(control)):
        out[chrom] = (
            case.get(chrom, ReadSet(empty, chrom)),
            control.get(chrom, ReadSet(empty, chrom)),
        )
    return out


def _segment_one(chrom: str, case: ReadSet, control: ReadSet, config: RunConfig, with_band: bool):
    """Everything the output files need from one chromosome."""
    process = merge_reads(case, control)
    sequence = cbs_segment(process, config.stat_kind, config.grid_step, config.max_k)
    _, curve, taus = select_k(process, sequence)
    segments = to_genomic(taus, process)
    band = None
    if with_band:
        grid = np.unique(process.W)[:: config.band_grid_step]
        band = ci_band(
            process,
            taus,
            level=config.ci_level,
            epsilon=config.epsilon,
            alpha=config.alpha,
            beta=config.beta,
            grid=grid,
        )
    return curve, segments, band


def _run_chromosomes(config: RunConfig, with_band: bool):
    """(chrom, curve, segments, band) of every chromosome, in sorted chromosome order.

    Chromosomes are independent, so with ``config.threads`` above 1 they run in
    up to that many worker processes, one chromosome per task; a single worker
    or chromosome runs in this process.
    """
    pairs = _load_pair(config)
    jobs = []
    for chrom, (case, control) in pairs.items():
        if len(case) + len(control) < MIN_READS_PER_CHROM:
            log.warning(
                "skipping %s: only %d reads (< %d)", chrom, len(case) + len(control),
                MIN_READS_PER_CHROM,
            )
            continue
        jobs.append((chrom, case, control))
    workers = min(config.threads, len(jobs))
    if workers <= 1:
        results = [_segment_one(*job, config, with_band) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_segment_one, *job, config, with_band) for job in jobs]
            results = [fut.result() for fut in futs]
    # _load_pair yields chromosomes in sorted order
    return [(chrom, *res) for (chrom, _, _), res in zip(jobs, results)]


def run_segment(config: RunConfig) -> int:
    """Full pipeline: merge, segment, select K, map to coordinates, band."""
    os.makedirs(config.out_dir, exist_ok=True)
    results = _run_chromosomes(config, with_band=True)

    seg_rows = []
    band_rows = []
    for chrom, curve, segments, band in results:
        for s in segments:
            seg_rows.append(
                (chrom, s.start_bp, s.end_bp, s.start_idx, s.end_idx, s.n_case, s.n_control,
                 s.p_hat, s.rel_cn)
            )
        band_rows += _band_rows(chrom, band)
        _write_atomic(
            os.path.join(config.out_dir, f"mbic_{chrom}.tsv"),
            "K\tmbic",
            [(k, v) for k, v in enumerate(curve.values)],
        )
    _write_atomic(
        os.path.join(config.out_dir, "segments.tsv"),
        "\t".join(SEGMENT_COLUMNS),
        seg_rows,
    )
    _write_atomic(
        os.path.join(config.out_dir, "band.tsv"),
        "chrom\tposition\tp_lower\tp_point\tp_upper\trel_cn_lower\trel_cn_point\trel_cn_upper",
        band_rows,
    )
    return 0


def run_mbic_curve(config: RunConfig) -> int:
    """Criterion curve only, one file per chromosome."""
    os.makedirs(config.out_dir, exist_ok=True)
    for chrom, curve, _, _ in _run_chromosomes(config, with_band=False):
        _write_atomic(
            os.path.join(config.out_dir, f"mbic_{chrom}.tsv"),
            "K\tmbic",
            [(k, v) for k, v in enumerate(curve.values)],
        )
    return 0


def run_simulate(config: RunConfig) -> int:
    """Simulate control/case read files plus the spiked-segment truth file."""
    os.makedirs(config.out_dir, exist_ok=True)
    x = config.extras
    chrom = x.get("chrom", "chr1")
    n_segments = x.get("n_segments", 50)
    reads = x.get("reads", 100_000)
    bin_width = x.get("bin_width", 1000)

    if config.control:
        table = read_sets_from_table(read_positions(config.control))
        if chrom not in table:
            raise InputError(f"chromosome {chrom!r} not found in {config.control}")
        baseline = estimate_baseline(table[chrom], bin_width=bin_width, bandwidth=x.get("bandwidth", 10.0))
    else:
        baseline = sine_baseline(
            span_bp=x.get("span_bp", int(5e7)),
            bin_width=bin_width,
            period_bp=x.get("sine_period", 2e6),
            depth=x.get("sine_depth", 0.5),
        )

    seeds = np.random.SeedSequence(config.seed).spawn(3)
    if n_segments > 0:
        case_intensity, truth = spike_in(
            baseline,
            n_segments,
            length_law=(x.get("min_seg_bp", 2e5), x.get("max_seg_bp", 5e5)),
            multipliers=(GAIN, LOSS),
            seed=seeds[0],
        )
        truth_rows = [
            (chrom, start, end, mult)
            for (start, end), mult in zip(truth.segments, truth.multipliers)
        ]
    else:
        case_intensity = baseline
        truth_rows = []

    case_reads = sample_nhpp(case_intensity, reads, seed=seeds[1], chromosome=chrom)
    control_reads = sample_nhpp(baseline, reads, seed=seeds[2], chromosome=chrom)

    _write_atomic(
        os.path.join(config.out_dir, "case.tsv"),
        "chrom\tposition",
        [(chrom, int(p)) for p in case_reads.positions],
    )
    _write_atomic(
        os.path.join(config.out_dir, "control.tsv"),
        "chrom\tposition",
        [(chrom, int(p)) for p in control_reads.positions],
    )
    _write_atomic(
        os.path.join(config.out_dir, "truth.tsv"),
        "\t".join(TRUTH_COLUMNS),
        truth_rows,
    )
    return 0


def _read_truth(path: str) -> dict[str, list[int]]:
    """Truth TSV -> per-chromosome sorted breakpoint positions (bp)."""
    out: dict[str, list[int]] = {}
    rows = read_tsv_rows(path, TRUTH_COLUMNS, int_columns=("start_bp", "end_bp"))
    for _, (chrom, start, end, _) in rows:
        out.setdefault(chrom, []).extend((start, end))
    return {chrom: sorted(v) for chrom, v in out.items()}


def _read_called_indices(path: str) -> dict[str, list[int]]:
    """Segments TSV -> per-chromosome called change points as read indices."""
    out: dict[str, list[int]] = {}
    for _, parts in read_tsv_rows(path, SEGMENT_COLUMNS, int_columns=("start_idx",)):
        out.setdefault(parts[0], []).append(parts[3])
    # the first segment of each chromosome starts at read 1: not a change point
    return {chrom: sorted(v)[1:] for chrom, v in out.items()}


def run_evaluate(config: RunConfig) -> int:
    """Match called change points against a truth file; write a report row.

    Matching runs in read-index units by default; --tolerance-bp switches
    the distances to genomic coordinates.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    x = config.extras
    truth_bp = _read_truth(x["truth"])
    called = _read_called_indices(x["calls"])
    pairs = _load_pair(config)
    tolerance_bp = x.get("tolerance_bp")

    n_true = n_called = n_matched = 0
    for chrom in sorted(set(truth_bp) | set(called)):
        if chrom not in pairs:
            raise InputError(f"chromosome {chrom!r} missing from read files")
        process = merge_reads(*pairs[chrom])
        called_idx = called.get(chrom, [])
        if tolerance_bp is not None:
            called_pos = [int(process.W[i - 1]) for i in called_idx]
            report = match_changepoints(
                called_pos, truth_bp.get(chrom, []), tolerance_reads=int(tolerance_bp)
            )
            n_true += len(truth_bp.get(chrom, []))
        else:
            truth_idx = [nearest_read_index(process, bp) for bp in truth_bp.get(chrom, [])]
            report = match_changepoints(
                called_idx, truth_idx, tolerance_reads=config.tolerance_reads
            )
            n_true += len(truth_idx)
        n_called += len(called_idx)
        n_matched += report.n_matched

    recall = n_matched / n_true if n_true else 1.0
    precision = n_matched / n_called if n_called else (1.0 if n_true == 0 else 0.0)
    _write_atomic(
        os.path.join(config.out_dir, "report.tsv"),
        "replicate\tn_true\tn_called\tn_matched\trecall\tprecision",
        [(x.get("replicate_id", 0), n_true, n_called, n_matched, recall, precision)],
    )
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stat", default="glr", choices=("score", "glr"))
    p.add_argument("--grid-step", type=int, default=10, help="grid refinement factor G")
    p.add_argument("--max-k", type=int, default=50)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--ci-level", type=float, default=0.95)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out-dir", default=".")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="seqscan", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment case vs control reads")
    _add_common(seg)
    seg.add_argument("--case")
    seg.add_argument("--control")
    seg.add_argument("--reads", help="single labeled input (chrom, position, label)")
    seg.add_argument("--band-grid-step", type=int, default=1,
                     help="evaluate the band every Nth read position")

    sim = sub.add_parser("simulate", help="spike-in read simulation")
    _add_common(sim)
    sim.add_argument("--control", help="real control reads for the baseline (else synthetic)")
    sim.add_argument("--chrom", default="chr1")
    sim.add_argument("--n-segments", type=int, default=50)
    sim.add_argument("--reads", type=int, default=100_000, help="target reads per sample")
    sim.add_argument("--span-bp", type=int, default=int(5e7))
    sim.add_argument("--bin-width", type=int, default=1000)
    sim.add_argument("--bandwidth", type=float, default=10.0, help="smoothing sigma in bins")
    sim.add_argument("--min-seg-bp", type=float, default=2e5)
    sim.add_argument("--max-seg-bp", type=float, default=5e5)
    sim.add_argument("--sine-period", type=float, default=2e6)
    sim.add_argument("--sine-depth", type=float, default=0.5)

    ev = sub.add_parser("evaluate", help="score calls against a truth file")
    _add_common(ev)
    ev.add_argument("--case", required=True)
    ev.add_argument("--control", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--calls", required=True, help="segments.tsv from the segment subcommand")
    ev.add_argument("--tolerance-reads", type=int, default=100)
    ev.add_argument("--tolerance-bp", type=int,
                    help="match in genomic coordinates instead of read indices")
    ev.add_argument("--replicate-id", type=int, default=0)

    mb = sub.add_parser("mbic-curve", help="criterion curve only")
    _add_common(mb)
    mb.add_argument("--case")
    mb.add_argument("--control")
    mb.add_argument("--reads", help="single labeled input (chrom, position, label)")

    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    threads = args.threads
    env = os.environ.get("SEQSCAN_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise InputError(f"SEQSCAN_THREADS={env!r} is not an integer")
    extras = {
        k.replace("-", "_"): v
        for k, v in vars(args).items()
        if k not in {
            "command", "stat", "grid_step", "max_k", "alpha", "beta", "ci_level",
            "epsilon", "seed", "threads", "out_dir", "case", "control",
            "tolerance_reads", "band_grid_step",
        } and v is not None
    }
    return RunConfig(
        stat_kind=args.stat,
        grid_step=args.grid_step,
        max_k=args.max_k,
        alpha=args.alpha,
        beta=args.beta,
        ci_level=args.ci_level,
        epsilon=args.epsilon,
        seed=args.seed,
        threads=threads,
        tolerance_reads=getattr(args, "tolerance_reads", 100),
        band_grid_step=getattr(args, "band_grid_step", 1),
        case=getattr(args, "case", None),
        control=getattr(args, "control", None),
        out_dir=args.out_dir,
        extras=extras,
    )


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "segment":
            return run_segment(config)
        if args.command == "simulate":
            return run_simulate(config)
        if args.command == "evaluate":
            return run_evaluate(config)
        if args.command == "mbic-curve":
            return run_mbic_curve(config)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"seqscan: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
