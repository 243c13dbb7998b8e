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
import contextlib
import logging
import math
import operator
import os
import sys

import numpy as np

from .evaluate import match_changepoints, nearest_read_index
from .mbic import select_k
from .posterior import ci_band
from .process import (
    MAX_POSITION,
    CombinedProcess,
    InputError,
    ReadSet,
    distinct_sorted,
    merge_reads,
    read_positions,
    read_sets_from_table,
    read_tsv,
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
# rows per string built for a position-keyed output file: bounds its peak memory
CHUNK_ROWS = 4096


class _Parser(argparse.ArgumentParser):
    """Raises every command-line mistake as an ``InputError`` for ``main`` to report."""

    def error(self, message):
        raise InputError(message)


_COMPARE = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<="),
            "lt": (operator.lt, "<")}


def _number(kind, **bounds):
    """argparse ``type=``: a finite ``kind`` (int or float) within ``bounds``.

    ``bounds`` maps ``ge``, ``gt``, ``le`` or ``lt`` to a limit, so
    ``_number(float, gt=0, lt=1)`` accepts the open interval (0, 1).
    """
    want = " and".join(f" {_COMPARE[op][1]} {limit:g}" for op, limit in bounds.items())
    noun = "an integer" if kind is int else "a finite number"

    def parse(text: str):
        try:
            value = kind(text)
            ok = math.isfinite(value) and all(
                _COMPARE[op][0](value, limit) for op, limit in bounds.items()
            )
        except (ValueError, OverflowError):  # OverflowError: int beyond float range
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {noun}{want}, got {text!r}")
        return value

    return parse


def _chrom_name(text: str) -> str:
    """argparse ``type=``: a chromosome name that reads back as the first field of a row."""
    if text.startswith("#") or any(c in text for c in "\t\n\r/\0"):
        raise argparse.ArgumentTypeError(
            f"expected a name that does not start with '#' and holds no tab, line break, '/' or "
            f"NUL, got {text!r}")
    return text


def _fmt(x) -> str:
    return f"{x:.10g}" if isinstance(x, float) else str(x)


def _tsv_lines(rows):
    """One tab-separated line per row, every value through ``_fmt``."""
    return ("\t".join(_fmt(v) for v in row) + "\n" for row in rows)


def _write_atomic(path: str, header: str, lines) -> None:
    """Write ``path`` through ``path.tmp``; a failed write leaves neither file behind."""
    tmp = path + ".tmp"
    opened = False
    try:
        with open(tmp, "w") as fh:
            opened = True
            fh.write("#" + header + "\n")
            fh.writelines(lines)
        os.replace(tmp, path)
    except OSError as exc:
        if opened:  # never a path that open() refused, such as a directory
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise InputError(f"cannot write {path}: {exc}") from None


def _write_curve(out_dir: str, chrom: str, curve) -> None:
    _write_atomic(os.path.join(out_dir, f"mbic_{chrom}.tsv"), "K\tmbic",
                  _tsv_lines(enumerate(curve.values)))


def _position_lines(chrom: str, positions: np.ndarray, tail: str = ""):
    """Lines ``chrom<TAB>position<tail>``, joined in strings of at most CHUNK_ROWS lines."""
    sep = f"{tail}\n{chrom}\t"
    for s in range(0, positions.size, CHUNK_ROWS):
        yield f"{chrom}\t" + sep.join(map(str, positions[s:s + CHUNK_ROWS].tolist())) + f"{tail}\n"


def _band_lines(chrom: str, band):
    """``band.tsv`` lines of one chromosome.

    Band values are constant over each run of consecutive grid positions that
    falls in one band block, so the six value columns of a run are formatted
    once and its positions joined in bulk.
    """
    values = np.stack([band.lower, band.point_est, band.upper], axis=1)
    # compare bits, not values: 0.0 and -0.0 are equal but print differently
    bits = values.view(np.int64)
    new_run = np.ones(len(values), dtype=bool)
    new_run[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    starts = np.flatnonzero(new_run).tolist()
    for lo, hi, (p_lo, p_pt, p_hi) in zip(starts, starts[1:] + [len(values)],
                                          values[new_run].tolist()):
        cols = (p_lo, p_pt, p_hi, relative_copy_number(p_lo), relative_copy_number(p_pt),
                relative_copy_number(p_hi))
        yield from _position_lines(chrom, band.grid[lo:hi], "\t" + "\t".join(map(_fmt, cols)))


def _load_pair(
    case_path: str | None, control_path: str | None, reads_path: str | None = None
) -> dict[str, tuple[ReadSet, ReadSet]]:
    """Read the input TSVs into per-chromosome (case, control) ReadSet pairs.

    Accepts separate --case/--control files, or one --reads file with a
    case/control label column.
    """
    if reads_path:
        if case_path or control_path:
            raise InputError("--reads excludes --case and --control")
        table = read_positions(reads_path, label_mode=True)
        case = read_sets_from_table({c: v[0] for c, v in table.items()})
        control = read_sets_from_table({c: v[1] for c, v in table.items()})
    elif case_path and control_path:
        case = read_sets_from_table(read_positions(case_path))
        control = read_sets_from_table(read_positions(control_path))
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


def _segment_one(chrom: str, case: ReadSet, control: ReadSet, args: argparse.Namespace,
                 with_band: bool):
    """Everything the output files need from one chromosome."""
    process = merge_reads(case, control)
    sequence = cbs_segment(process, args.stat, args.grid_step, args.max_k)
    _, curve, taus = select_k(process, sequence)
    segments = to_genomic(taus, process)
    band = None
    if with_band:
        grid = distinct_sorted(process.W)[:: args.band_grid_step]
        band = ci_band(
            process,
            taus,
            level=args.ci_level,
            epsilon=args.epsilon,
            alpha=args.alpha,
            beta=args.beta,
            grid=grid,
        )
    return curve, segments, band


def _run_chromosomes(args: argparse.Namespace, with_band: bool):
    """(chrom, curve, segments, band) of every chromosome, in sorted chromosome order.

    Chromosomes are independent, so with ``--threads`` above 1 they run in up
    to that many worker processes, one chromosome per task; a single worker
    or chromosome runs in this process.  Only a pool imports
    ``concurrent.futures.process`` (multiprocessing and socket, about 13 ms).
    """
    pairs = _load_pair(args.case, args.control, args.reads)
    jobs = []
    for chrom, (case, control) in pairs.items():
        if len(case) + len(control) < MIN_READS_PER_CHROM:
            log.warning(
                "skipping %s: only %d reads (< %d)", chrom, len(case) + len(control),
                MIN_READS_PER_CHROM,
            )
            continue
        jobs.append((chrom, case, control))
    workers = min(args.threads, len(jobs))
    if workers <= 1:
        results = [_segment_one(*job, args, with_band) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_segment_one, *job, args, with_band) for job in jobs]
            results = [fut.result() for fut in futs]
    # _load_pair yields chromosomes in sorted order
    return [(chrom, *res) for (chrom, _, _), res in zip(jobs, results)]


def run_segment(args: argparse.Namespace) -> int:
    """Full pipeline: merge, segment, select K, map to coordinates, band."""
    seg_rows = []
    bands = []
    for chrom, curve, segments, band in _run_chromosomes(args, with_band=True):
        for s in segments:
            seg_rows.append(
                (chrom, s.start_bp, s.end_bp, s.start_idx, s.end_idx, s.n_case, s.n_control,
                 s.p_hat, s.rel_cn)
            )
        bands.append(_band_lines(chrom, band))
        _write_curve(args.out_dir, chrom, curve)
    _write_atomic(
        os.path.join(args.out_dir, "segments.tsv"),
        "\t".join(SEGMENT_COLUMNS),
        _tsv_lines(seg_rows),
    )
    _write_atomic(
        os.path.join(args.out_dir, "band.tsv"),
        "chrom\tposition\tp_lower\tp_point\tp_upper\trel_cn_lower\trel_cn_point\trel_cn_upper",
        (line for lines in bands for line in lines),
    )
    return 0


def run_mbic_curve(args: argparse.Namespace) -> int:
    """Criterion curve only, one file per chromosome."""
    for chrom, curve, _, _ in _run_chromosomes(args, with_band=False):
        _write_curve(args.out_dir, chrom, curve)
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    """Simulate control/case read files plus the spiked-segment truth file."""
    chrom = args.chrom
    if args.control:
        table = read_sets_from_table(read_positions(args.control))
        if chrom not in table:
            raise InputError(f"chromosome {chrom!r} not found in {args.control}")
        baseline = estimate_baseline(
            table[chrom], bin_width=args.bin_width, bandwidth=args.bandwidth
        )
    else:
        baseline = sine_baseline(
            span_bp=args.span_bp,
            bin_width=args.bin_width,
            period_bp=args.sine_period,
            depth=args.sine_depth,
        )

    seeds = np.random.SeedSequence(args.seed).spawn(3)
    if args.n_segments > 0:
        case_intensity, truth = spike_in(
            baseline,
            args.n_segments,
            length_law=(args.min_seg_bp, args.max_seg_bp),
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

    case_reads = sample_nhpp(case_intensity, args.reads, seed=seeds[1], chromosome=chrom)
    control_reads = sample_nhpp(baseline, args.reads, seed=seeds[2], chromosome=chrom)

    _write_atomic(
        os.path.join(args.out_dir, "case.tsv"),
        "chrom\tposition",
        _position_lines(chrom, case_reads.positions),
    )
    _write_atomic(
        os.path.join(args.out_dir, "control.tsv"),
        "chrom\tposition",
        _position_lines(chrom, control_reads.positions),
    )
    _write_atomic(
        os.path.join(args.out_dir, "truth.tsv"),
        "\t".join(TRUTH_COLUMNS),
        _tsv_lines(truth_rows),
    )
    return 0


def _read_truth(path: str) -> dict[str, list[int]]:
    """Truth TSV -> per-chromosome sorted breakpoint positions (bp)."""
    span = (0, MAX_POSITION)
    table = read_tsv(path, TRUTH_COLUMNS, {"start_bp": span, "end_bp": span})
    return {chrom: np.sort(np.concatenate([cols["start_bp"], cols["end_bp"]])).tolist()
            for chrom, cols in table.items()}


def _read_segment_starts(path: str) -> dict[str, list[int]]:
    """Segments TSV -> per-chromosome sorted segment start read indices."""
    table = read_tsv(path, SEGMENT_COLUMNS, {"start_idx": None})
    return {chrom: np.sort(cols["start_idx"]).tolist() for chrom, cols in table.items()}


def run_evaluate(args: argparse.Namespace) -> int:
    """Match called change points against a truth file; write a report row.

    Matching runs in read-index units by default; --tolerance-bp switches
    the distances to genomic coordinates.  Every ``start_idx`` of --calls
    must lie in 1..m, m being its chromosome's merged read count.
    """
    truth_bp = _read_truth(args.truth)
    starts = _read_segment_starts(args.calls)
    pairs = _load_pair(args.case, args.control)

    n_true = n_called = n_matched = 0
    for chrom in sorted(set(truth_bp) | set(starts)):
        if chrom not in pairs:
            raise InputError(f"chromosome {chrom!r} missing from read files")
        process = merge_reads(*pairs[chrom])
        chrom_starts = starts.get(chrom, [])
        for i in chrom_starts:
            if not 1 <= i <= process.m:
                raise InputError(f"{args.calls}: start_idx {i} on {chrom} outside 1..{process.m}, "
                                 "the merged read indices")
        # the first segment of each chromosome starts at read 1: not a change point
        called_idx, truth = chrom_starts[1:], truth_bp.get(chrom, [])
        if args.tolerance_bp is not None:
            report = match_changepoints([int(process.W[i - 1]) for i in called_idx], truth,
                                        tolerance_reads=args.tolerance_bp)
        else:
            report = match_changepoints(called_idx,
                                        [nearest_read_index(process, bp) for bp in truth],
                                        tolerance_reads=args.tolerance_reads)
        n_true += len(truth)
        n_called += len(called_idx)
        n_matched += report.n_matched

    recall = n_matched / n_true if n_true else 1.0
    precision = n_matched / n_called if n_called else (1.0 if n_true == 0 else 0.0)
    _write_atomic(
        os.path.join(args.out_dir, "report.tsv"),
        "replicate\tn_true\tn_called\tn_matched\trecall\tprecision",
        _tsv_lines([(args.replicate_id, n_true, n_called, n_matched, recall, precision)]),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``seqscan`` parser: each subcommand declares only the flags it reads."""
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_number(int, ge=0), default=0,
                        help="random seed (only simulate draws random numbers)")
    common.add_argument("--out-dir", default=".")

    scan = _Parser(add_help=False)
    scan.add_argument("--case")
    scan.add_argument("--control")
    scan.add_argument("--reads", help="single labeled input (chrom, position, label); "
                      "excludes --case and --control")
    scan.add_argument("--stat", default="glr", choices=("score", "glr"))
    scan.add_argument("--grid-step", type=_number(int, ge=2), default=10,
                      help="grid refinement factor G")
    scan.add_argument("--max-k", type=_number(int, ge=1), default=50)
    scan.add_argument("--threads", type=_number(int, ge=1), default=1,
                      help="worker processes")

    ap = _Parser(prog="seqscan", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", parents=[common, scan], help="segment case vs control reads")
    seg.add_argument("--alpha", type=_number(float, gt=0), default=1.0)
    seg.add_argument("--beta", type=_number(float, gt=0), default=1.0)
    seg.add_argument("--ci-level", type=_number(float, gt=0, lt=1), default=0.95)
    seg.add_argument("--epsilon", type=_number(float, gt=0, lt=1), default=1e-4)
    seg.add_argument("--band-grid-step", type=_number(int, ge=1), default=1,
                     help="evaluate the band every Nth read position")
    seg.set_defaults(run=run_segment)

    sim = sub.add_parser("simulate", parents=[common], help="spike-in read simulation")
    sim.add_argument("--control", help="real control reads for the baseline (else synthetic)")
    sim.add_argument("--chrom", type=_chrom_name, default="chr1")
    sim.add_argument("--n-segments", type=_number(int, ge=0, le=10**5), default=50)
    sim.add_argument("--reads", type=_number(int, ge=0, le=10**9), default=100_000,
                     help="target reads per sample")
    sim.add_argument("--span-bp", type=_number(int, ge=1, le=MAX_POSITION), default=int(5e7))
    sim.add_argument("--bin-width", type=_number(int, ge=1, le=MAX_POSITION), default=1000)
    sim.add_argument("--bandwidth", type=_number(float, gt=0), default=10.0,
                     help="smoothing sigma in bins")
    sim.add_argument("--min-seg-bp", type=_number(float, ge=1), default=2e5)
    sim.add_argument("--max-seg-bp", type=_number(float, gt=0), default=5e5)
    sim.add_argument("--sine-period", type=_number(float, gt=0), default=2e6)
    sim.add_argument("--sine-depth", type=_number(float, ge=0, lt=1), default=0.5)
    sim.set_defaults(run=run_simulate)

    ev = sub.add_parser("evaluate", parents=[common], help="score calls against a truth file")
    ev.add_argument("--case", required=True)
    ev.add_argument("--control", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--calls", required=True, help="segments.tsv from the segment subcommand")
    ev.add_argument("--tolerance-reads", type=_number(int, ge=0), default=100)
    ev.add_argument("--tolerance-bp", type=_number(int, ge=0),
                    help="match in genomic coordinates instead of read indices")
    ev.add_argument("--replicate-id", type=int, default=0)
    ev.set_defaults(run=run_evaluate)

    mb = sub.add_parser("mbic-curve", parents=[common, scan], help="criterion curve only")
    mb.set_defaults(run=run_mbic_curve)

    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create --out-dir {args.out_dir}: {exc}") from None
        return args.run(args)
    except InputError as exc:
        print(f"seqscan: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
