"""Paired read streams, their merged label sequence, and genomic segments.

Case and control read positions are merged into a single sorted stream; every
downstream statistic operates on the binary case/control labels of that
stream, so the genomic coordinates only matter when results are mapped back
to base pairs.  ``read_tsv`` is the one reader of every input file.
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
        object.__setattr__(self, "m_prime", int(distinct_sorted(W).size))

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


# input bytes per set of numpy passes: bounds the reader's temporary arrays
BLOCK_BYTES = 1 << 18
# an ASCII digit string this short always fits in int64
MAX_FAST_DIGITS = 18


def distinct_sorted(a: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted 1-d array, by one adjacent comparison."""
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _row_error(parts: list[str], columns, ints: dict, choices: dict) -> str | None:
    """Why one data line, split at tabs, breaks the table's rules; None if it does not."""
    if len(parts) != len(columns):
        return f"expected {len(columns)} columns, got {len(parts)}"
    field = dict(zip(columns, parts))
    for name in ints:
        try:
            field[name] = int(field[name])
        except ValueError:
            return f"{name} {field[name]!r} is not an integer"
    for name, span in ints.items():
        if span and not span[0] <= field[name] <= span[1]:
            return f"{name} {field[name]} outside [{span[0]}, {span[1]}]"
    for name, allowed in choices.items():
        if field[name] not in allowed:
            return f"{name} {field[name]!r} not in {{{', '.join(allowed)}}}"
    return None


def _parse_ints(data: bytes, buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """(values, failed): ``int()`` of every field ``data[start:end]``.

    Fields of 1 to MAX_FAST_DIGITS ASCII digits are decoded by one numpy pass
    per digit place; any other field goes through ``int()`` on its own.  A
    value beyond int64 makes the values an object array.
    """
    length = end - start
    fast = (length >= 1) & (length <= MAX_FAST_DIGITS)
    values = np.zeros(length.size, dtype=np.int64)
    for k in range(int(length[fast].max(initial=0))):
        live = fast & (length > k)
        digit = buf[np.minimum(start + k, end - 1)] - 48  # uint8: a non-digit wraps above 9
        fast &= ~live | (digit <= 9)
        values = np.where(live, values * 10 + digit, values)
    failed = np.zeros(length.size, dtype=bool)
    for i in np.flatnonzero(~fast).tolist():
        try:
            v = int(data[start[i]:end[i]].decode())
        except ValueError:
            failed[i] = True
            continue
        if values.dtype != object and not -(2**63) <= v < 2**63:
            values = values.astype(object)
        values[i] = v
    return values, failed


def _match(buf: np.ndarray, start: np.ndarray, end: np.ndarray, allowed) -> np.ndarray:
    """Index in ``allowed`` of every field ``buf[start:end]``, or -1 where there is none."""
    codes = np.full(start.size, -1)
    for c, word in enumerate(allowed):
        raw = word.encode()
        hit = np.flatnonzero(end - start == len(raw))
        for k, byte in enumerate(raw):
            hit = hit[buf[start[hit] + k] == byte]
        codes[hit] = c
    return codes


def _factorize(data: bytes, buf: np.ndarray, start: np.ndarray, end: np.ndarray,
               table: dict) -> np.ndarray:
    """Code of every field ``data[start:end]`` in ``table`` (bytes -> code), which grows.

    Consecutive equal fields form a run that is looked up once.
    """
    length = end - start
    new_run = np.ones(length.size, dtype=bool)
    # a field continues a run only if it is as long as its predecessor and
    # equal to it byte for byte: compare all such pairs in one pass
    same = np.flatnonzero(length[1:] == length[:-1]) + 1
    n = length[same]
    owner = np.repeat(np.arange(same.size), n)
    here = start[same][owner] + np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    differs = buf[here] != buf[here - (start[same] - start[same - 1])[owner]]
    new_run[same] = np.bincount(owner, weights=differs, minlength=same.size) > 0
    heads = np.flatnonzero(new_run)
    keys = list(map(data.__getitem__, map(slice, start[heads].tolist(), end[heads].tolist())))
    for key in dict.fromkeys(keys):
        table.setdefault(key, len(table))
    codes = np.fromiter(map(table.__getitem__, keys), dtype=np.int64, count=len(keys))
    return codes[np.cumsum(new_run) - 1]


def read_tsv(path, columns: tuple[str, ...], ints: dict, choices: dict | None = None) -> dict:
    """{first-column value: {column: its rows' values, in file order}} of a TSV file.

    The file is read as UTF-8; a leading byte-order mark is ignored and line
    ends may be \\n, \\r\\n or \\r.  Empty lines and lines whose first
    character is '#' are skipped.  Every other line must have exactly
    ``len(columns)`` tab-separated fields.  ``ints`` maps a column to None
    or an inclusive (lo, hi) range; its fields must be integers as ``int()``
    reads them and come back as int64 (object if a value does not fit).
    ``choices`` maps a column to its allowed values; it comes back as their
    indices.  Other columns are only counted.

    A missing, unreadable or non-text file raises InputError, and so does
    the first line in file order that breaks a rule, with "path:lineno:".
    Lines are read in blocks of about BLOCK_BYTES, a few numpy passes each.
    """
    choices = choices or {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not a text file") from None
    # a closing newline ends the last line, so every line ends in one
    text += "\n"
    data = text.encode()
    del text
    buf = np.frombuffer(data, dtype=np.uint8)
    want = len(columns)
    pieces = {name: [] for name in (columns[0], *ints, *choices)}
    table: dict = {}
    a = lineno = 0
    while a < len(data):
        # whole lines of at most BLOCK_BYTES, or one line if it is longer
        b = data.rfind(b"\n", a, a + BLOCK_BYTES) + 1 or data.find(b"\n", a) + 1
        line_end = np.flatnonzero(buf[a:b] == 10) + a
        line_start = np.concatenate(([a], line_end[:-1] + 1))
        tabs = np.flatnonzero(buf[a:b] == 9) + a
        first_tab = np.searchsorted(tabs, line_start)
        n_fields = np.searchsorted(tabs, line_end) - first_tab + 1
        data_line = (line_end > line_start) & (buf[line_start] != ord("#"))
        bad = data_line & (n_fields != want)
        rows = np.flatnonzero(data_line & (n_fields == want))
        tab = first_tab[rows]

        def field(name):
            k = columns.index(name)
            start = line_start[rows] if k == 0 else tabs[tab + k - 1] + 1
            return start, line_end[rows] if k == want - 1 else tabs[tab + k]

        pieces[columns[0]].append(_factorize(data, buf, *field(columns[0]), table))
        row_bad = np.zeros(rows.size, dtype=bool)
        for name, span in ints.items():
            values, failed = _parse_ints(data, buf, *field(name))
            row_bad |= failed
            if span:
                row_bad |= (values < span[0]) | (values > span[1])
            pieces[name].append(values)
        for name, allowed in choices.items():
            pieces[name].append(_match(buf, *field(name), allowed))
            row_bad |= pieces[name][-1] < 0
        bad[rows[row_bad]] = True
        if bad.any():
            i = int(np.argmax(bad))
            parts = data[line_start[i]:line_end[i]].decode().split("\t")
            raise InputError(f"{path}:{lineno + i + 1}: {_row_error(parts, columns, ints, choices)}")
        lineno += line_end.size
        a = b
    del buf, data
    # one stable sort groups every column by the first, keeping file order
    key = np.concatenate(pieces.pop(columns[0]))
    order = np.argsort(key, kind="stable")
    cuts = np.cumsum(np.bincount(key, minlength=len(table)))[:-1]
    parts = {name: np.split(np.concatenate(pieces.pop(name))[order], cuts) for name in list(pieces)}
    return {raw.decode(): {name: p[k] for name, p in parts.items()} for k, raw in enumerate(table)}


def read_positions(path, label_mode: bool = False) -> dict:
    """Parse a read-position TSV into per-chromosome int64 position arrays.

    Columns: chrom, position -- or chrom, position, label with label in
    {case, control} when ``label_mode`` is set; positions lie in
    [0, MAX_POSITION].  Returns {chrom: positions} in two-column mode and
    {chrom: (case positions, control positions)} in label mode, each array
    in file order.  The line rules and errors are those of ``read_tsv``, and
    no chromosome name may hold '/' or NUL: it becomes part of a file name.
    """
    label = {"label": ("case", "control")} if label_mode else {}
    table = read_tsv(path, ("chrom", "position", *label), {"position": (0, MAX_POSITION)}, label)
    for chrom in table:  # one check per distinct name, never per row
        if "/" in chrom or "\0" in chrom:
            raise InputError(f"{path}: chromosome {chrom!r} holds '/' or NUL, which no output "
                             "file name can")
    if not label_mode:
        return {chrom: cols["position"] for chrom, cols in table.items()}
    return {chrom: (cols["position"][cols["label"] == 0], cols["position"][cols["label"] == 1])
            for chrom, cols in table.items()}


def read_sets_from_table(table: dict) -> dict[str, ReadSet]:
    """Turn {chrom: [positions]} from read_positions into sorted ReadSets."""
    return {
        chrom: ReadSet(positions=np.sort(np.asarray(pos, dtype=np.int64)), chromosome=chrom)
        for chrom, pos in table.items()
    }
