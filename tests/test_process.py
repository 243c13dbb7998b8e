import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscan import InputError, ReadSet, merge_reads, relative_copy_number, to_genomic
from seqscan.process import read_positions, segment_bounds

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
        assert table == {"chr1": [5, 3], "chr2": [9]}

    def test_label_mode(self, tmp_path):
        f = tmp_path / "reads.tsv"
        f.write_text("chr1\t5\tcase\nchr1\t7\tcontrol\n")
        table = read_positions(f, label_mode=True)
        assert table["chr1"] == ([5], [7])

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
