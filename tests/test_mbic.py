import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from seqscan import cbs_segment, log_glr_full, mbic, select_k
from seqscan.process import segment_bounds
from seqscan.segment import ChangePointSequence, ScanStep

from conftest import bernoulli_process, proc_from_z


def mbic_reference(Z, taus, W=None):
    """Straight-from-formula reimplementation used as an independent check."""
    Z = list(Z)
    m = len(Z)
    W = list(range(1, m + 1)) if W is None else list(W)
    bounds = [1] + list(taus) + [m]
    starts = [1] + list(taus)
    ends = [t - 1 for t in taus] + [m]

    def seg_ll(zs):
        n, x = len(zs), sum(zs)
        out = 0.0
        if 0 < x:
            out += x * math.log(x / n)
        if x < n:
            out += (n - x) * math.log((n - x) / n)
        return out

    llr = sum(seg_ll(Z[s - 1 : e]) for s, e in zip(starts, ends)) - seg_ll(Z)
    penalty = 0.5 * sum(math.log(b - a) for a, b in zip(bounds, bounds[1:]))
    m_prime = len(set(W))
    return llr - penalty + 0.5 * math.log(m) - len(taus) * math.log(m_prime)


def log_glr_full_xlogy(process, taus):
    """``log_glr_full`` with scipy's xlogy for every k*log(k): the bit-level reference."""
    ll = 0.0
    for start, end in segment_bounds(taus, process.m):
        n = end - start + 1
        x = process.case_count(start, end)
        ll += xlogy(x, x) + xlogy(n - x, n - x) - xlogy(n, n)
    m1, m2, m = process.m1, process.m2, process.m
    return float(ll - (xlogy(m1, m1) + xlogy(m2, m2) - xlogy(m, m)))


def mbic_xlogy(process, taus):
    """``mbic`` on top of ``log_glr_full_xlogy``."""
    bounds = [1] + list(taus) + [process.m]
    penalty = 0.5 * sum(math.log(b - a) for a, b in zip(bounds, bounds[1:]))
    return (log_glr_full_xlogy(process, taus) - penalty + 0.5 * math.log(process.m)
            - len(taus) * math.log(process.m_prime))


@settings(max_examples=80, deadline=None)
@given(m=st.integers(3, 30_000), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=8))
# a first segment of 9,170 or 19,143 reads: numpy's log differs from libm's there
@example(m=9_500, p=0.5, seed=1, cuts=[9_169 / 9_497])
@example(m=20_000, p=0.3, seed=2, cuts=[19_142 / 19_997, 0.999])
def test_criterion_matches_xlogy_reference_bit_for_bit(m, p, seed, cuts):
    proc = bernoulli_process(p, m, seed)
    taus = sorted({2 + round(c * (m - 3)) for c in cuts})
    assert log_glr_full(proc, taus).hex() == log_glr_full_xlogy(proc, taus).hex()
    assert mbic(proc, taus).hex() == mbic_xlogy(proc, taus).hex()


class TestLogGlrFull:
    def test_null_model_zero(self):
        assert log_glr_full(proc_from_z([1, 0, 1, 0]), []) == 0.0

    def test_two_pure_segments(self):
        v = log_glr_full(proc_from_z([1, 1, 0, 0]), [3])
        assert v == pytest.approx(4 * math.log(2), abs=1e-12)

    def test_merging_equal_rate_segments_is_neutral(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            # two adjacent segments built to have identical case fractions
            block = rng.integers(0, 2, 8)
            Z = np.concatenate([block, block, rng.integers(0, 2, 10)])
            p = proc_from_z(Z)
            with_split = log_glr_full(p, [9, 17])
            merged = log_glr_full(p, [17])
            assert with_split == pytest.approx(merged, abs=1e-10)


class TestMbic:
    def test_k0_m100(self):
        proc = bernoulli_process(0.5, 100, seed=1)
        assert mbic(proc, []) == pytest.approx(0.5 * math.log(100 / 99), abs=1e-12)

    def test_hand_example(self):
        p = proc_from_z([1, 1, 0, 0])
        expect = 4 * math.log(2) - 0.5 * (math.log(2) + math.log(1)) + 0.5 * math.log(4) - math.log(4)
        assert mbic(p, [3]) == pytest.approx(expect, abs=1e-12)

    def test_duplicate_tau_rejected(self):
        with pytest.raises(ValueError):
            mbic(proc_from_z([1, 1, 0, 0]), [3, 3])

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(10, 200))
            Z = rng.integers(0, 2, m)
            k = int(rng.integers(0, min(6, m - 2)))
            taus = sorted(rng.choice(np.arange(2, m), size=k, replace=False).tolist())
            p = proc_from_z(Z)
            assert mbic(p, taus) == pytest.approx(mbic_reference(Z, taus), abs=1e-10)

    def test_splitting_constant_segment_decreases(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(20, 100))
            Z = np.tile([1, 0], m)[:m]  # perfectly balanced everywhere
            p = proc_from_z(Z)
            base = mbic(p, [])
            tau = int(rng.integers(3, m - 1)) // 2 * 2 + 1  # odd: splits keep p_hat 0.5
            assert mbic(p, [tau]) < base

    def test_depends_on_positions_only_through_m_prime(self):
        Z = [1, 0, 1, 1, 0, 0, 1, 0]
        a = mbic(proc_from_z(Z), [4])
        b = mbic(proc_from_z(Z, W=[2, 4, 9, 100, 101, 300, 301, 999]), [4])
        assert a == b
        c = mbic(proc_from_z(Z, W=[1, 1, 2, 2, 3, 3, 4, 4]), [4])  # m' = 4
        assert c != a


class TestSelectK:
    def test_empty_sequence(self):
        p = proc_from_z([1, 0, 1, 0])
        k_hat, curve, taus = select_k(p, ChangePointSequence(steps=[], m=4))
        assert k_hat == 0 and taus == [] and curve.values.size == 1

    def test_prefix_granularity_counts_individual_insertions(self):
        p = proc_from_z([1, 1, 1, 0, 0, 0, 1, 1, 1])
        seq = ChangePointSequence(
            steps=[ScanStep(taus_added=(4, 7), region=(1, 9), objective=5.0)], m=9
        )
        k_hat, curve, taus = select_k(p, seq)
        assert curve.values.size == 3  # K = 0, 1, 2
        assert k_hat == 2
        assert taus == [4, 7]

    def test_strong_block_selects_two(self):
        rng = np.random.default_rng(0)
        p_vec = np.full(1500, 0.5)
        p_vec[600:900] = 0.9
        proc = proc_from_z((rng.random(1500) < p_vec).astype(int))
        seq = cbs_segment(proc, "glr", 10, max_k=10)
        k_hat, curve, taus = select_k(proc, seq)
        assert k_hat == 2
        assert abs(taus[0] - 601) <= 20 and abs(taus[1] - 901) <= 20

    def test_noise_mostly_selects_zero(self):
        zeros = 0
        for seed in range(20):
            proc = bernoulli_process(0.5, 2000, seed)
            seq = cbs_segment(proc, "glr", 10, max_k=12)
            k_hat, _, _ = select_k(proc, seq)
            zeros += k_hat == 0
        assert zeros >= 18

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(8)
        W = np.sort(rng.integers(0, 10**6, 500))
        p_vec = np.full(500, 0.3)
        p_vec[200:350] = 0.8
        Z = (rng.random(500) < p_vec).astype(int)
        p1 = proc_from_z(Z, W=W)
        p2 = proc_from_z(Z, W=W.astype(np.int64) ** 3 + 7)
        r1 = select_k(p1, cbs_segment(p1, "glr", 10, 8))
        r2 = select_k(p2, cbs_segment(p2, "glr", 10, 8))
        assert r1[0] == r2[0]
        assert np.array_equal(r1[1].values, r2[1].values)
        assert r1[2] == r2[2]
