import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqscan.cli as cli
import seqscan.process as process
from seqscan import InputError, ReadSet, merge_reads, relative_copy_number, to_genomic
from seqscan.process import MAX_POSITION, distinct_sorted, read_positions, segment_bounds

from conftest import proc_from_z


def rs(positions, chrom="chr1"):
    return ReadSet(np.asarray(positions, dtype=np.int64), chrom)


class TestMergeReads:
    def test_direct_merge(self):
        p = merge_reads(rs([5, 9]), rs([7]))
        assert p.W.tolist() == [5, 7, 9]
        assert p.Z.tolist() == [1, 0, 1]
        assert (p.m1, p.m2, p.m_prime) == (2, 1, 3)

    def test_empty_case(self):
        p = merge_reads(rs([]), rs([3, 4]))
        assert p.W.tolist() == [3, 4]
        assert p.Z.tolist() == [0, 0]

    def test_tie_control_first(self):
        p = merge_reads(rs([7]), rs([7]))
        assert p.Z.tolist() == [0, 1]
        assert p.m_prime == 1

    def test_tie_rule_matches_bruteforce_multiset_merge(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            case = np.sort(rng.integers(0, 30, rng.integers(0, 12)))
            ctrl = np.sort(rng.integers(0, 30, rng.integers(0, 12)))
            p = merge_reads(rs(case), rs(ctrl))
            # brute force: all reads tagged, sorted by (position, label)
            tagged = sorted([(x, 1) for x in case] + [(x, 0) for x in ctrl])
            assert p.W.tolist() == [x for x, _ in tagged]
            assert p.Z.tolist() == [z for _, z in tagged]

    def test_chromosome_mismatch(self):
        with pytest.raises(InputError, match="chromosome"):
            merge_reads(rs([1], "chr1"), rs([2], "chr2"))

    def test_prefix_sums(self):
        p = merge_reads(rs([1, 4, 6]), rs([2, 3, 5]))
        assert p.S[0] == 0 and p.S[-1] == p.m1
        assert np.all(np.diff(p.S) >= 0) and np.all(np.diff(p.S) <= 1)
        assert p.case_count(2, 5) == p.S[5] - p.S[1]

    def test_monotone_transform_leaves_z_unchanged(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            case = np.sort(rng.integers(0, 1000, 40))
            ctrl = np.sort(rng.integers(0, 1000, 40))
            p1 = merge_reads(rs(case), rs(ctrl))
            phi = lambda x: x ** 3 + 7
            p2 = merge_reads(rs(phi(case.astype(np.int64))), rs(phi(ctrl.astype(np.int64))))
            assert np.array_equal(p1.Z, p2.Z)
            assert p1.m_prime == p2.m_prime

    def test_unsorted_input_rejected(self):
        with pytest.raises(InputError):
            ReadSet(np.array([5, 3]), "chr1")


class TestToGenomic:
    def test_null_model(self):
        p = proc_from_z([1, 0, 1, 0])
        segs = to_genomic([], p)
        assert len(segs) == 1
        assert segs[0].p_hat == 0.5
        assert segs[0].rel_cn == 1.0
        assert (segs[0].start_idx, segs[0].end_idx) == (1, 4)

    def test_per_segment_mle(self):
        p = proc_from_z([1, 1, 0, 0], W=[10, 20, 30, 40])
        segs = to_genomic([3], p)
        assert [(s.start_bp, s.end_bp) for s in segs] == [(10, 20), (30, 40)]
        assert [s.p_hat for s in segs] == [1.0, 0.0]
        assert segs[0].rel_cn == np.inf
        assert segs[1].rel_cn == 0.0

    def test_round_trip_counts(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(6, 60))
            p = proc_from_z(rng.integers(0, 2, m))
            taus = sorted(set(rng.integers(2, m, 3).tolist()))
            segs = to_genomic(taus, p)
            assert sum(s.n_case for s in segs) == p.m1
            assert sum(s.n_control for s in segs) == p.m2
            assert sum(s.n_reads for s in segs) == p.m

    def test_bad_taus(self):
        p = proc_from_z([1, 0, 1, 0])
        with pytest.raises(ValueError):
            to_genomic([3, 2], p)
        with pytest.raises(ValueError):
            to_genomic([1], p)
        with pytest.raises(ValueError):
            to_genomic([4], p)

    def test_segment_bounds_last_includes_m(self):
        assert segment_bounds([3], 4) == [(1, 2), (3, 4)]
        assert segment_bounds([], 5) == [(1, 5)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_to_genomic_segments_tile_the_reads(data):
    z = data.draw(st.lists(st.integers(0, 1), min_size=2, max_size=50))
    m = len(z)
    taus = sorted(data.draw(st.sets(st.integers(2, m - 1), max_size=6))) if m > 2 else []
    proc = proc_from_z(z, W=np.cumsum(data.draw(st.lists(st.integers(0, 3), min_size=m,
                                                          max_size=m))) + 1)
    segs = to_genomic(taus, proc)
    assert segs[0].start_idx == 1 and segs[-1].end_idx == m
    for prev, nxt in zip(segs, segs[1:]):
        assert nxt.start_idx == prev.end_idx + 1
        assert prev.end_bp <= nxt.start_bp
    for s in segs:
        assert s.start_idx <= s.end_idx
        assert (s.start_bp, s.end_bp) == (proc.W[s.start_idx - 1], proc.W[s.end_idx - 1])
    assert [s.start_idx for s in segs[1:]] == taus


def test_relative_copy_number():
    assert relative_copy_number(0.5) == 1.0
    assert relative_copy_number(1.0) == np.inf
    assert relative_copy_number(0.0) == 0.0


class TestReadPositions:
    def test_two_column(self, tmp_path):
        f = tmp_path / "reads.tsv"
        f.write_text("#chrom\tposition\nchr1\t5\nchr2\t9\nchr1\t3\n")
        table = read_positions(f)
        assert {chrom: pos.tolist() for chrom, pos in table.items()} == {"chr1": [5, 3], "chr2": [9]}

    def test_label_mode(self, tmp_path):
        f = tmp_path / "reads.tsv"
        f.write_text("chr1\t5\tcase\nchr1\t7\tcontrol\n")
        case, control = read_positions(f, label_mode=True)["chr1"]
        assert (case.tolist(), control.tolist()) == ([5], [7])

    def test_error_reports_line_number(self, tmp_path):
        f = tmp_path / "bad.tsv"
        f.write_text("chr1\t5\nchr1\tnope\n")
        with pytest.raises(InputError, match=":2:"):
            read_positions(f)

    def test_wrong_columns(self, tmp_path):
        f = tmp_path / "bad.tsv"
        f.write_text("chr1\n")
        with pytest.raises(InputError, match=":1:"):
            read_positions(f)

    def test_first_bad_line_reported(self, tmp_path, monkeypatch):
        # bad lines in two blocks and of two kinds: the first in file order is named
        f = tmp_path / "bad.tsv"
        f.write_text("chr1\t5\n#\nchr1\tx\nchr1\t6\nchr1\n")
        for block in (1, 8, 1 << 18):
            monkeypatch.setattr(process, "BLOCK_BYTES", block)
            with pytest.raises(InputError, match=":3: position 'x' is not an integer"):
                read_positions(f)

    def test_byte_order_mark_ignored(self, tmp_path):
        # a BOM before the header or before the first data row is not part of the text
        for text in ("#chrom\tposition\nchr1\t5\n", "chr1\t5\n"):
            f = tmp_path / "bom.tsv"
            f.write_bytes(b"\xef\xbb\xbf" + text.encode())
            assert {c: p.tolist() for c, p in read_positions(f).items()} == {"chr1": [5]}


def test_distinct_sorted():
    for a in ([], [3], [1, 1, 2, 5, 5, 5, 9], [-2, 0, 0]):
        a = np.asarray(a, dtype=np.int64)
        assert np.array_equal(distinct_sorted(a), np.unique(a))


def reference_rows(path, columns, int_columns=()):
    """(line number, fields) of every data row, one line at a time.

    The row-by-row reader that ``read_tsv`` replaced (with the file read as
    utf-8-sig), kept as the reference for its results and messages.
    """
    want = len(columns)
    to_int = [columns.index(name) for name in int_columns]
    try:
        with open(path, encoding="utf-8-sig") as fh:
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


def reference_positions(path, label_mode=False):
    columns = ("chrom", "position", "label") if label_mode else ("chrom", "position")
    table = {}
    for lineno, parts in reference_rows(path, columns, ("position",)):
        chrom, pos = parts[0], parts[1]
        if not 0 <= pos <= MAX_POSITION:
            raise InputError(f"{path}:{lineno}: position {pos} outside [0, {MAX_POSITION}]")
        if label_mode:
            lab = parts[2]
            if lab not in ("case", "control"):
                raise InputError(f"{path}:{lineno}: label {lab!r} not in {{case, control}}")
            table.setdefault(chrom, ([], []))[0 if lab == "case" else 1].append(pos)
        else:
            table.setdefault(chrom, []).append(pos)
    return list(table.items())


def reference_truth(path):
    out = {}
    for lineno, (chrom, start, end, _) in reference_rows(path, cli.TRUTH_COLUMNS,
                                                         ("start_bp", "end_bp")):
        for name, bp in (("start_bp", start), ("end_bp", end)):
            if not 0 <= bp <= MAX_POSITION:
                raise InputError(f"{path}:{lineno}: {name} {bp} outside [0, {MAX_POSITION}]")
        out.setdefault(chrom, []).extend((start, end))
    return [(chrom, sorted(v)) for chrom, v in out.items()]


def reference_segment_starts(path):
    out = {}
    for _, parts in reference_rows(path, cli.SEGMENT_COLUMNS, ("start_idx",)):
        out.setdefault(parts[0], []).append(parts[3])
    return [(chrom, sorted(v)) for chrom, v in out.items()]


def as_lists(table):
    return [(chrom, [v.tolist() for v in pos] if isinstance(pos, tuple) else pos.tolist())
            for chrom, pos in table.items()]


# a leading '#' makes the line a comment; the others differ only in bytes the loop kept
TEXT = st.sampled_from(["chr1", "chr2", "chr10", "chr1 ", "chré", "chr1_KI270706v1_random",
                        "#chr", ""])
# int() accepts all of these: signs, spaces, underscores, leading zeros, other scripts' digits
INTS = st.one_of(st.integers(0, 3000).map(str),
                 st.sampled_from(["+5", " 5", "5 ", "007", "1_000", "\u0663", "\uff17",
                                  "123456789012345678", "0" * 25 + "7"]))
# (fields of a valid row, columns checked as integers, reader under test, reference)
LAYOUTS = {
    "positions": (st.tuples(TEXT, INTS), (1,),
                  lambda p: as_lists(read_positions(p)), reference_positions),
    "labeled": (st.tuples(TEXT, INTS, st.sampled_from(["case", "control"])), (1,),
                lambda p: as_lists(read_positions(p, label_mode=True)),
                lambda p: [(c, list(v)) for c, v in reference_positions(p, label_mode=True)]),
    "truth": (st.tuples(TEXT, INTS | st.sampled_from(["-4", "9" * 19, "9" * 30]), INTS, TEXT), (1, 2),
              lambda p: list(cli._read_truth(p).items()), reference_truth),
    "segments": (st.tuples(TEXT, TEXT, TEXT, INTS | st.just("9" * 30), *[TEXT] * 5), (3,),
                 lambda p: list(cli._read_segment_starts(p).items()), reference_segment_starts),
}
# one field replaced by: a non-integer, or a position or truth start outside [0, MAX_POSITION],
# or a bad label
BAD_INTS = ["x", "1.5", "", "-", "1 2", "1:2", "3/4", "\u0663x", "1__0"]
BAD_POSITIONS = ["-1", str(MAX_POSITION + 1), "1234567890123456789", "9" * 30]
BAD_LABELS = ["tumor", "Case", "case ", ""]


def test_block_reader_matches_row_loop(tmp_path):
    """read_tsv's callers give the row loop's results and first error, blocks cut anywhere."""
    examples = iter(range(10**9))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def run(data):
        layout = data.draw(st.sampled_from(sorted(LAYOUTS)))
        row_fields, int_cols, read_new, read_old = LAYOUTS[layout]
        rows = [list(r) for r in data.draw(st.lists(row_fields, max_size=40))]
        ranged = ("positions", "labeled", "truth")
        defects = ["columns", "integer"] + (["range"] if layout in ranged else [])
        defects += ["label"] if layout == "labeled" else []
        defect = data.draw(st.sampled_from([None, *defects])) if rows else None
        if defect:
            row = data.draw(st.sampled_from(rows))
            if defect == "columns":
                if data.draw(st.booleans()):
                    row.append("9")
                else:
                    del row[data.draw(st.integers(0, len(row) - 1)):]
            elif defect == "integer":
                row[data.draw(st.sampled_from(int_cols))] = data.draw(st.sampled_from(BAD_INTS))
            elif defect == "range":
                row[1] = data.draw(st.sampled_from(BAD_POSITIONS))
            else:
                row[2] = data.draw(st.sampled_from(BAD_LABELS))
        lines = ["\t".join(r) for r in rows]
        for extra in data.draw(st.lists(st.sampled_from(["", "#note", "#chrom\tposition"]),
                                        max_size=3)):
            lines.insert(data.draw(st.integers(0, len(lines))), extra)
        newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text = newline.join(lines) + data.draw(st.sampled_from(["", newline]))
        bom = data.draw(st.sampled_from(["", "\ufeff"]))
        path = tmp_path / f"{next(examples)}.tsv"
        path.write_bytes((bom + text).encode())
        block = data.draw(st.sampled_from([1, 5, 16, 64, process.BLOCK_BYTES]))

        def outcome(reader):
            try:
                return "ok", reader(path)
            except InputError as exc:
                return "error", str(exc)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(process, "BLOCK_BYTES", block)
            new = outcome(read_new)
        assert new == outcome(read_old), (layout, defect, block, text)

    run()
