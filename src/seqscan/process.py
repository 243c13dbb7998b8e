"""Paired read streams, their merged label sequence, and genomic segments.

Case and control read positions are merged into a single sorted stream; every
downstream statistic operates on the binary case/control labels of that
stream, so the genomic coordinates only matter when results are mapped back
to base pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class InputError(ValueError):
    """Raised for malformed user input (files, labels, parameters)."""


# largest accepted read position: positions and sums of a few stay exact as float64
MAX_POSITION = 10**15


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ReadSet:
    """Sorted mapped-read positions (base pairs) on one chromosome."""

    positions: np.ndarray
    chromosome: str = "chr1"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.int64)
        if pos.ndim != 1:
            raise InputError("read positions must be a 1-d sequence")
        if pos.size and pos[0] < 0:
            raise InputError("read positions must be non-negative")
        if np.any(np.diff(pos) < 0):
            raise InputError(f"read positions on {self.chromosome} are not sorted")
        object.__setattr__(self, "positions", _frozen(pos))

    def __len__(self) -> int:
        return int(self.positions.size)


@dataclass(frozen=True)
class CombinedProcess:
    """Merged case/control read stream.

    W holds the sorted positions of all m = m1 + m2 reads, Z the case
    indicator of each read (1 = case).  S is the length m+1 prefix-sum
    array of Z (S[0] = 0), so the case count on reads i..j (1-based,
    inclusive) is S[j] - S[i-1].
    """

    W: np.ndarray
    Z: np.ndarray
    chromosome: str = "chr1"
    m1: int = field(init=False)
    m2: int = field(init=False)
    S: np.ndarray = field(init=False)
    m_prime: int = field(init=False)

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.int64)
        Z = np.asarray(self.Z, dtype=np.int8)
        if W.shape != Z.shape or W.ndim != 1:
            raise InputError("W and Z must be 1-d sequences of equal length")
        if np.any(np.diff(W) < 0):
            raise InputError("combined positions are not sorted")
        if Z.size and not np.isin(Z, (0, 1)).all():
            raise InputError("labels must be 0 (control) or 1 (case)")
        S = np.zeros(Z.size + 1, dtype=np.int64)
        np.cumsum(Z, out=S[1:])
        object.__setattr__(self, "W", _frozen(W))
        object.__setattr__(self, "Z", _frozen(Z))
        object.__setattr__(self, "S", _frozen(S))
        object.__setattr__(self, "m1", int(S[-1]))
        object.__setattr__(self, "m2", int(Z.size - S[-1]))
        object.__setattr__(self, "m_prime", int(np.unique(W).size))

    @property
    def m(self) -> int:
        return int(self.Z.size)

    def case_count(self, i: int, j: int) -> int:
        """Number of case reads among reads i..j (1-based, inclusive)."""
        return int(self.S[j] - self.S[i - 1])


@dataclass(frozen=True)
class GenomicSegment:
    """One constant-probability segment mapped back to genomic coordinates."""

    chromosome: str
    start_bp: int
    end_bp: int
    start_idx: int
    end_idx: int
    n_case: int
    n_control: int
    p_hat: float
    rel_cn: float

    @property
    def n_reads(self) -> int:
        return self.end_idx - self.start_idx + 1


def relative_copy_number(p: float) -> float:
    """Map a success probability to the case/control intensity ratio p/(1-p).

    Returns +inf at p = 1; downstream writers emit the string "inf".
    """
    if p >= 1.0:
        return math.inf
    return p / (1.0 - p)


def merge_reads(case: ReadSet, control: ReadSet) -> CombinedProcess:
    """Merge case and control reads into one labeled, position-sorted stream.

    Reads tied at the same coordinate are ordered control before case so the
    merge is deterministic.
    """
    if case.chromosome != control.chromosome:
        raise InputError(
            f"chromosome mismatch: case={case.chromosome!r} control={control.chromosome!r}"
        )
    pos = np.concatenate([control.positions, case.positions])
    lab = np.concatenate(
        [np.zeros(len(control), dtype=np.int8), np.ones(len(case), dtype=np.int8)]
    )
    # stable sort keeps the control block first at tied coordinates
    order = np.argsort(pos, kind="stable")
    return CombinedProcess(W=pos[order], Z=lab[order], chromosome=case.chromosome)


def validate_taus(taus, m: int) -> list[int]:
    """Check interior change points: strictly increasing integers in (1, m)."""
    taus = [int(t) for t in taus]
    for a, b in zip(taus, taus[1:]):
        if a >= b:
            raise ValueError(f"change points not strictly increasing: {taus}")
    if taus and (taus[0] < 2 or taus[-1] > m - 1):
        raise ValueError(f"change point outside (1, {m}): {taus}")
    return taus


def segment_bounds(taus, m: int) -> list[tuple[int, int]]:
    """Index spans [start, end] of the segments cut by interior change points.

    A change point tau is the first read index of the segment it starts; the
    final segment always ends at m.
    """
    taus = validate_taus(taus, m)
    starts = [1] + taus
    ends = [t - 1 for t in taus] + [m]
    return list(zip(starts, ends))


def to_genomic(taus, process: CombinedProcess) -> list[GenomicSegment]:
    """Map index-level change points to genomic segments with per-segment MLEs."""
    out = []
    for start, end in segment_bounds(taus, process.m):
        n = end - start + 1
        n_case = process.case_count(start, end)
        p_hat = n_case / n
        out.append(
            GenomicSegment(
                chromosome=process.chromosome,
                start_bp=int(process.W[start - 1]),
                end_bp=int(process.W[end - 1]),
                start_idx=start,
                end_idx=end,
                n_case=n_case,
                n_control=n - n_case,
                p_hat=p_hat,
                rel_cn=relative_copy_number(p_hat),
            )
        )
    return out


def read_tsv_rows(path, columns: tuple[str, ...], int_columns: tuple[str, ...] = ()):
    """Yield (line number, fields) for every data row of a TSV file.

    Blank lines and lines starting with '#' are skipped.  Every row must have
    exactly ``len(columns)`` tab-separated fields; the fields named in
    ``int_columns`` are converted to int.  A missing, unreadable or non-text
    file and a malformed row raise InputError, the latter prefixed with
    "path:lineno:".
    """
    want = len(columns)
    to_int = [columns.index(name) for name in int_columns]
    try:
        with open(path) as fh:
            # one read and split: cheaper per row than iterating the file object
            lines = fh.read().split("\n")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not a text file") from None
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != want:
            raise InputError(f"{path}:{lineno}: expected {want} columns, got {len(parts)}")
        try:
            for c in to_int:
                parts[c] = int(parts[c])
        except ValueError:
            msg = f"{path}:{lineno}: {columns[c]} {parts[c]!r} is not an integer"
            raise InputError(msg) from None
        yield lineno, parts


def read_positions(path, label_mode: bool = False) -> dict:
    """Parse a read-position TSV into per-chromosome position lists.

    Expected columns: chrom, position -- or chrom, position, label with
    label in {case, control} when ``label_mode`` is set.  Lines starting
    with '#' are ignored.  Returns {chrom: [positions]} in two-column mode,
    {chrom: ([case], [control])} in label mode.
    """
    columns = ("chrom", "position", "label") if label_mode else ("chrom", "position")
    table: dict = {}
    for lineno, parts in read_tsv_rows(path, columns, int_columns=("position",)):
        chrom, pos = parts[0], parts[1]
        if not 0 <= pos <= MAX_POSITION:
            raise InputError(f"{path}:{lineno}: position {pos} outside [0, {MAX_POSITION}]")
        if label_mode:
            lab = parts[2]
            if lab not in ("case", "control"):
                raise InputError(f"{path}:{lineno}: label {lab!r} not in {{case, control}}")
            # get() first: setdefault would build a fresh default on every row
            bucket = table.get(chrom) or table.setdefault(chrom, ([], []))
            bucket[0 if lab == "case" else 1].append(pos)
        else:
            (table.get(chrom) or table.setdefault(chrom, [])).append(pos)
    return table


def read_sets_from_table(table: dict) -> dict[str, ReadSet]:
    """Turn {chrom: [positions]} from read_positions into sorted ReadSets."""
    return {
        chrom: ReadSet(positions=np.sort(np.asarray(pos, dtype=np.int64)), chromosome=chrom)
        for chrom, pos in table.items()
    }
