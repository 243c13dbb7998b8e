"""Output checks for one benchmark run of the CLI.

On any seed the outputs must satisfy the invariants of their format: segments
tile the merged read indices [1, m], band rows are the requested grid of
read positions in ascending order with 0 <= p_lower <= p_upper <= 1, and
each criterion curve starts at the no-change-point value.  On the default
seed they must also match the committed reference: segment and curve files
byte for byte, band bounds within BAND_TOLERANCE (bisection may move low
digits, see ROADMAP item 2).
"""

from __future__ import annotations

import glob
import json
import math
import os

import numpy as np

BAND_TOLERANCE = 1e-6


class CheckError(Exception):
    """An output file is missing, malformed or wrong."""


def _rows(path: str, ncols: int) -> list[list[str]]:
    if not os.path.exists(path):
        raise CheckError(f"{os.path.basename(path)} was not written")
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise CheckError(f"{os.path.basename(path)}: missing header line")
    rows = [line.split("\t") for line in lines[1:]]
    for n, row in enumerate(rows, start=2):
        if len(row) != ncols:
            raise CheckError(f"{os.path.basename(path)}:{n}: expected {ncols} columns")
    return rows


def _by_chrom(rows) -> dict[str, list[list[str]]]:
    out: dict[str, list[list[str]]] = {}
    for row in rows:
        out.setdefault(row[0], []).append(row)
    return out


def _expect_chroms(name: str, got, processes) -> None:
    if set(got) != set(processes):
        raise CheckError(f"{name}: chromosomes {sorted(got)} != inputs {sorted(processes)}")


def check_segments(path: str, processes) -> dict[str, list[int]]:
    """Segments must tile [1, m] per chromosome; returns the called change points."""
    try:
        per_chrom = {
            c: [[int(v) for v in r[1:7]] for r in rows]
            for c, rows in _by_chrom(_rows(path, 9)).items()
        }
    except ValueError as exc:
        raise CheckError(f"segments.tsv: {exc}") from None
    _expect_chroms("segments.tsv", per_chrom, processes)
    called = {}
    for chrom, segs in per_chrom.items():
        proc = processes[chrom]
        expected_start = 1
        for start_bp, end_bp, start, end, n_case, n_control in segs:
            if start != expected_start or end < start or end > proc.m:
                raise CheckError(f"segments.tsv: {chrom} segments do not tile [1, {proc.m}]")
            if n_case + n_control != end - start + 1:
                raise CheckError(f"segments.tsv: {chrom} read counts do not add up")
            if (start_bp, end_bp) != (int(proc.W[start - 1]), int(proc.W[end - 1])):
                raise CheckError(f"segments.tsv: {chrom} coordinates do not match reads")
            expected_start = end + 1
        if expected_start != proc.m + 1:
            raise CheckError(f"segments.tsv: {chrom} segments do not tile [1, {proc.m}]")
        called[chrom] = [s[2] for s in segs[1:]]
    return called


def check_band(path: str, processes, step: int = 1) -> dict[str, np.ndarray]:
    """Band rows: every ``step``-th distinct read position in order, and
    0 <= lower <= upper <= 1.

    Returns per chromosome an (n, 3) array of p_lower, p_point, p_upper.
    """
    try:
        per_chrom = {
            c: (np.array([int(r[1]) for r in rows]),
                np.array([[float(v) for v in r[2:5]] for r in rows]))
            for c, rows in _by_chrom(_rows(path, 8)).items()
        }
    except ValueError as exc:
        raise CheckError(f"band.tsv: {exc}") from None
    _expect_chroms("band.tsv", per_chrom, processes)
    out = {}
    for chrom, (pos, vals) in per_chrom.items():
        if np.any(np.diff(pos) <= 0):
            raise CheckError(f"band.tsv: {chrom} positions do not ascend")
        if not np.array_equal(pos, np.unique(processes[chrom].W)[::step]):
            raise CheckError(f"band.tsv: {chrom} rows are not the read-position grid")
        lo, hi = vals[:, 0], vals[:, 2]
        if not (np.all(lo >= 0.0) and np.all(lo <= hi) and np.all(hi <= 1.0)):
            raise CheckError(f"band.tsv: {chrom} bounds outside 0 <= lower <= upper <= 1")
        out[chrom] = vals
    return out


def check_curves(out_dir: str, processes, max_k: int) -> dict[str, np.ndarray]:
    """One curve per chromosome over K = 0..n <= max_k, starting at the K = 0 mBIC."""
    curves = {}
    for chrom, proc in processes.items():
        rows = _rows(os.path.join(out_dir, f"mbic_{chrom}.tsv"), 2)
        try:
            ks = [int(r[0]) for r in rows]
            values = np.array([float(r[1]) for r in rows])
        except ValueError as exc:
            raise CheckError(f"mbic_{chrom}.tsv: {exc}") from None
        if ks != list(range(len(ks))) or not 1 <= len(ks) <= max_k + 1:
            raise CheckError(f"mbic_{chrom}.tsv: K column is not 0..n with n <= {max_k}")
        if not np.all(np.isfinite(values)):
            raise CheckError(f"mbic_{chrom}.tsv: non-finite criterion value")
        # no change points: log GLR 0, one segment of length m - 1
        k0 = 0.5 * math.log(proc.m / (proc.m - 1))
        if abs(values[0] - k0) > 1e-9 * max(1.0, abs(k0)):
            raise CheckError(f"mbic_{chrom}.tsv: K = 0 value {values[0]} != {k0}")
        curves[chrom] = values
    if len(glob.glob(os.path.join(out_dir, "mbic_*.tsv"))) != len(processes):
        raise CheckError("unexpected criterion curve files")
    return curves


def band_runs(band: dict[str, np.ndarray]) -> dict:
    """Run-length form of a band: the band is constant over blocks of rows."""
    out = {}
    for chrom, vals in band.items():
        change = np.flatnonzero(np.any(np.diff(vals, axis=0) != 0, axis=1)) + 1
        firsts = np.concatenate([[0], change]).astype(int)
        out[chrom] = {"rows": int(vals.shape[0]),
                      "runs": [[int(k), *map(float, vals[k])] for k in firsts]}
    return out


def _expand(runs: dict) -> np.ndarray:
    firsts = [r[0] for r in runs["runs"]] + [runs["rows"]]
    vals = np.array([r[1:] for r in runs["runs"]])
    return np.repeat(vals, np.diff(firsts), axis=0)


def compare_reference(out_dir: str, ref_dir: str, band: dict[str, np.ndarray] | None) -> None:
    """Byte-identical segment and curve files; band within BAND_TOLERANCE."""
    exact = sorted(f for f in os.listdir(ref_dir) if f.endswith(".tsv"))
    for name in exact:
        with open(os.path.join(ref_dir, name), "rb") as fh:
            want = fh.read()
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            raise CheckError(f"{name} was not written")
        with open(path, "rb") as fh:
            if fh.read() != want:
                raise CheckError(f"{name} differs from the reference")
    if band is None:
        return
    with open(os.path.join(ref_dir, "band_runs.json")) as fh:
        ref = json.load(fh)
    if set(ref) != set(band):
        raise CheckError("band.tsv chromosomes differ from the reference")
    for chrom, runs in ref.items():
        want = _expand(runs)
        if want.shape != band[chrom].shape:
            raise CheckError(f"band.tsv: {chrom} has {band[chrom].shape[0]} rows, "
                             f"reference {want.shape[0]}")
        worst = float(np.max(np.abs(want - band[chrom])))
        if worst > BAND_TOLERANCE:
            raise CheckError(f"band.tsv: {chrom} differs from the reference by {worst:.3g}")
