"""Benchmark workloads and their seeded input generator.

Inputs come from library calls only (``sine_baseline``, ``IntensityFunction``,
``sample_nhpp``).  Segments are placed by a deterministic spaced placer rather
than ``spike_in``, whose rejection sampler fails on dense layouts.  The CLI
under test receives only the TSV files written here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import seqscan as sq

BIN_WIDTH = 1000
SINE_PERIOD_BP = 2e6
SINE_DEPTH = 0.12


@dataclass(frozen=True)
class Workload:
    """One benchmark input family and the CLI command run on it."""

    name: str
    command: str  # "segment" or "mbic-curve"
    chroms: int
    span_bp: int
    reads: int  # target reads per sample per chromosome
    n_segments: int  # spiked segments per chromosome
    effects: tuple[float, float]  # case/control intensity ratios, alternating by segment
    seg_bp: tuple[float, float]  # log-uniform segment length range
    gap_bp: float  # minimum distance between spiked segments
    labeled: bool  # one labeled --reads file instead of --case/--control
    max_k: int
    threads: int
    band_step: int = 1  # --band-grid-step: band rows at every n-th distinct read position


# Sizes are scaled so one CLI run takes 5-30 s on a 2-core machine, while each
# workload keeps the layer it was chosen for as the dominant cost.
WORKLOADS = {
    w.name: w
    for w in (
        # credible band dominates: every boundary posterior fills the candidate cap.
        # Band work per boundary varies widely with the reads around it, so the
        # run holds 64 boundaries to average it out; the band grid keeps every
        # 32nd read position so that one CLI run stays near 15 s.  Strong
        # effects put nearly every true breakpoint within the matching tolerance.
        Workload("band-full", "segment", chroms=1, span_bp=48_000_000, reads=48_000,
                 n_segments=32, effects=(2.5, 0.4), seg_bp=(4e5, 8e5), gap_bp=7.5e5,
                 labeled=False, max_k=80, threads=1, band_step=32),
        # recursive scan dominates: deep greedy recursion, no band, two chromosomes
        Workload("scan-deep", "mbic-curve", chroms=2, span_bp=80_000_000, reads=80_000,
                 n_segments=24, effects=(sq.GAIN, sq.LOSS), seg_bp=(8e5, 1.6e6), gap_bp=1e6,
                 labeled=False, max_k=100, threads=2),
        # ingest and write dominate: one large labeled file, null data, wide band file
        Workload("ingest-null", "segment", chroms=1, span_bp=100_000_000, reads=100_000,
                 n_segments=0, effects=(sq.GAIN, sq.LOSS), seg_bp=(8e5, 1.6e6), gap_bp=1e6,
                 labeled=True, max_k=4, threads=1),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Written input files plus what the checks and scoring need to know."""

    files: dict  # CLI flag -> path
    truth_bp: dict  # chrom -> sorted true breakpoints (bp)
    processes: dict  # chrom -> CombinedProcess of the generated reads

    @property
    def m(self) -> int:
        return sum(p.m for p in self.processes.values())


def spaced_segments(rng, span, lens, gap_floor):
    """Disjoint segments with at least ``gap_floor`` bp around each one."""
    slack = span - sum(lens) - (len(lens) + 1) * gap_floor
    if slack <= 0:
        raise ValueError("segment layout does not fit the chromosome span")
    w = rng.gamma(8.0, 1.0, len(lens) + 1)
    gaps = gap_floor + w / w.sum() * slack
    segs, pos = [], 0.0
    for k, length in enumerate(lens):
        pos += gaps[k]
        segs.append((int(pos), int(pos + length)))
        pos += length
    return segs


def _chromosome(wl: Workload, seed: int, index: int):
    chrom = f"chr{index + 1}"
    streams = np.random.SeedSequence([seed, index]).spawn(3)
    rng = np.random.default_rng(streams[0])
    baseline = sq.sine_baseline(span_bp=wl.span_bp, bin_width=BIN_WIDTH,
                                period_bp=SINE_PERIOD_BP, depth=SINE_DEPTH)
    lo, hi = wl.seg_bp
    lens = [int(np.exp(rng.uniform(np.log(lo), np.log(hi)))) for _ in range(wl.n_segments)]
    segs = spaced_segments(rng, wl.span_bp, lens, wl.gap_bp)
    # alternating effects: the band's cost depends on how sharp each boundary is
    effects = [wl.effects[k % 2] for k in range(wl.n_segments)]
    values = baseline.values.copy()
    centers = baseline.origin + BIN_WIDTH * (np.arange(values.size) + 0.5)
    for (s, e), mu in zip(segs, effects):
        values[(centers >= s) & (centers < e)] *= mu
    case_intensity = sq.IntensityFunction(baseline.origin, BIN_WIDTH, values)
    case = sq.sample_nhpp(case_intensity, wl.reads, seed=streams[1], chromosome=chrom)
    control = sq.sample_nhpp(baseline, wl.reads, seed=streams[2], chromosome=chrom)
    return chrom, case, control, sorted(b for seg in segs for b in seg)


def _write_positions(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(rows)


def generate(wl: Workload, seed: int, out_dir: str) -> Inputs:
    """Draw the workload's reads from ``seed`` and write the CLI's input TSVs."""
    os.makedirs(out_dir, exist_ok=True)
    truth, processes, case_rows, control_rows, labeled_rows = {}, {}, [], [], []
    for index in range(wl.chroms):
        chrom, case, control, breakpoints = _chromosome(wl, seed, index)
        truth[chrom] = breakpoints
        proc = sq.merge_reads(case, control)
        processes[chrom] = proc
        if wl.labeled:
            names = np.array(["control", "case"])[proc.Z]
            labeled_rows += [f"{chrom}\t{p}\t{n}\n" for p, n in zip(proc.W.tolist(), names)]
        else:
            case_rows += [f"{chrom}\t{p}\n" for p in case.positions.tolist()]
            control_rows += [f"{chrom}\t{p}\n" for p in control.positions.tolist()]
    if wl.labeled:
        files = {"--reads": os.path.join(out_dir, "reads.tsv")}
        _write_positions(files["--reads"], "#chrom\tposition\tlabel", labeled_rows)
    else:
        files = {"--case": os.path.join(out_dir, "case.tsv"),
                 "--control": os.path.join(out_dir, "control.tsv")}
        _write_positions(files["--case"], "#chrom\tposition", case_rows)
        _write_positions(files["--control"], "#chrom\tposition", control_rows)
    return Inputs(files=files, truth_bp=truth, processes=processes)


def cli_args(wl: Workload, inputs: Inputs, out_dir: str) -> list[str]:
    """Arguments of the timed ``seqscan`` command."""
    args = [wl.command]
    for flag, path in inputs.files.items():
        args += [flag, path]
    if wl.command == "segment":
        args += ["--band-grid-step", str(wl.band_step)]
    return args + ["--max-k", str(wl.max_k), "--threads", str(wl.threads), "--out-dir", out_dir]
