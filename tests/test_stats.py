import math

import numpy as np
import pytest
from scipy.special import xlogy

from seqscan import StatKernel, glr, score
from seqscan.stats import _xlogx, interval_glr, xlogx_table

from conftest import argbest, bernoulli_process, proc_from_z


def naive_glr(Z, i, j):
    """Independent oracle: per-read binomial log-likelihoods at analytic MLEs."""
    Z = list(Z)
    m = len(Z)
    inside = Z[i - 1 : j]
    outside = Z[: i - 1] + Z[j:]

    def loglik(zs, p):
        total = 0.0
        for z in zs:
            if z == 1:
                total += math.log(p) if p > 0 else 0.0
            else:
                total += math.log(1 - p) if p < 1 else 0.0
        return total

    p_in = sum(inside) / len(inside)
    p_out = sum(outside) / len(outside)
    p_all = sum(Z) / m
    return loglik(inside, p_in) + loglik(outside, p_out) - loglik(Z, p_all)


class TestScore:
    def test_balanced_interval(self):
        st = score(proc_from_z([1, 0, 1, 0]), 1, 2)
        assert st.s_ij == 0.0
        assert st.t_ij == 0.0

    def test_hand_derived(self):
        st = score(proc_from_z([1, 1, 0, 0]), 1, 2)
        assert st.s_ij == 1.0
        assert st.sigma_ij == pytest.approx(0.5)
        assert st.t_ij == 2.0

    def test_whole_sequence_is_zero(self):
        for Z in ([1, 0, 1, 0], [1, 1, 1, 0], [0, 0, 1, 1, 1]):
            st = score(proc_from_z(Z), 1, len(Z))
            assert st.s_ij == pytest.approx(0.0)
            assert st.t_ij == 0.0

    def test_degenerate_labels_give_zero_t(self):
        st = score(proc_from_z([1, 1, 1, 1]), 1, 2)
        assert st.sigma_ij == 0.0 and st.t_ij == 0.0

    def test_antisymmetric_under_complementation(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = int(rng.integers(4, 40))
            Z = rng.integers(0, 2, m)
            p = proc_from_z(Z)
            i = int(rng.integers(1, m))
            j = int(rng.integers(i, m + 1))
            s = score(p, i, j).s_ij
            p_hat = Z.sum() / m
            comp = [z for k, z in enumerate(Z, start=1) if not (i <= k <= j)]
            s_comp = sum(comp) - p_hat * len(comp)
            assert s == pytest.approx(-s_comp, abs=1e-10)

    def test_invalid_interval(self):
        p = proc_from_z([1, 0, 1, 0])
        with pytest.raises(ValueError):
            score(p, 3, 2)
        with pytest.raises(ValueError):
            score(p, 1, 5)


class TestGlr:
    def test_no_signal(self):
        assert glr(proc_from_z([1, 0, 1, 0]), 1, 2).lambda_ij == 0.0

    def test_four_log_two(self):
        st = glr(proc_from_z([1, 1, 0, 0]), 1, 2)
        assert st.lambda_ij == pytest.approx(4 * math.log(2), abs=1e-10)
        assert (st.p_hat, st.p_hat_in, st.p_hat_out) == (0.5, 1.0, 0.0)

    def test_six_log_two(self):
        st = glr(proc_from_z([1, 1, 1, 0, 0, 0]), 1, 3)
        assert st.lambda_ij == pytest.approx(6 * math.log(2), abs=1e-10)

    def test_whole_sequence_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            glr(proc_from_z([1, 0, 1, 0]), 1, 4)

    def test_matches_naive_oracle_on_all_intervals(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            m = int(rng.integers(4, 51))
            Z = rng.integers(0, 2, m)
            p = proc_from_z(Z)
            for i in range(1, m + 1):
                for j in range(i, m + 1):
                    if i == 1 and j == m:
                        continue
                    assert glr(p, i, j).lambda_ij == pytest.approx(
                        naive_glr(Z, i, j), abs=1e-10
                    )

    def test_nonnegative_and_zero_iff_equal_mles(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            m = int(rng.integers(3, 30))
            Z = rng.integers(0, 2, m)
            p = proc_from_z(Z)
            i = int(rng.integers(1, m + 1))
            j = int(rng.integers(i, m + 1))
            if i == 1 and j == m:
                continue
            st = glr(p, i, j)
            assert st.lambda_ij >= 0.0
            x_in = p.case_count(i, j)
            n_in = j - i + 1
            x_out = p.m1 - x_in
            n_out = m - n_in
            mles_equal = x_in * n_out == x_out * n_in
            assert (st.lambda_ij < 1e-12) == mles_equal

    def test_depends_only_on_labels(self):
        Z = [0, 1, 1, 0, 1]
        a = glr(proc_from_z(Z), 2, 3).lambda_ij
        b = glr(proc_from_z(Z, W=[3, 30, 300, 3000, 30000]), 2, 3).lambda_ij
        assert a == b


class TestStatKernel:
    def test_matches_scalar_ops_on_full_window(self):
        proc = bernoulli_process(0.5, 60, seed=11)
        ks = StatKernel(proc, "score")
        kg = StatKernel(proc, "glr")
        rng = np.random.default_rng(4)
        for _ in range(200):
            i = int(rng.integers(1, 61))
            j = int(rng.integers(i, 61))
            assert ks.objective(np.array([i]), np.array([j]))[0] == pytest.approx(
                abs(score(proc, i, j).t_ij), abs=1e-12
            )
            expect = -np.inf if (i, j) == (1, 60) else glr(proc, i, j).lambda_ij
            got = kg.objective(np.array([i]), np.array([j]))[0]
            if np.isinf(expect):
                assert np.isinf(got)
            else:
                assert got == pytest.approx(expect, abs=1e-10)

    def test_window_local_statistics(self):
        # a sub-window behaves exactly like a standalone process
        proc = bernoulli_process(0.5, 80, seed=5)
        lo, hi = 21, 60
        sub = proc_from_z(proc.Z[lo - 1 : hi])
        kw = StatKernel(proc, "glr", lo, hi)
        ks = StatKernel(sub, "glr")
        for i, j in [(1, 5), (3, 17), (10, 39), (1, 40)]:
            a = kw.objective(np.array([lo + i - 1]), np.array([lo + j - 1]))[0]
            b = ks.objective(np.array([i]), np.array([j]))[0]
            assert a == pytest.approx(b, abs=1e-10) or (np.isinf(a) and np.isinf(b))
        # the scalar statistic of a window equals the chromosome statistic of
        # its labels, and reports exactly the objective the scan ranks by
        for kind, whole, field in (("score", score, "t_ij"), ("glr", glr, "lambda_ij")):
            kernel = StatKernel(proc, kind, lo, hi)
            for i, j in [(1, 5), (3, 17), (10, 39), (2, 40), (1, 39)]:
                got = kernel.stat(lo + i - 1, lo + j - 1)
                want = whole(sub, i, j)
                assert (got.i, got.j) == (lo + i - 1, lo + j - 1)
                for name in ("s_ij", "sigma_ij", "t_ij", "lambda_ij", "p_hat", "p_hat_in",
                             "p_hat_out"):
                    assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12)
                obj = kernel.objective(np.array([got.i]), np.array([got.j]))[0]
                assert abs(getattr(got, field)) == obj
        with pytest.raises(ValueError, match="outside"):
            StatKernel(proc, "glr", lo, hi).stat(lo, hi)

    @pytest.mark.parametrize("kind", ["score", "glr"])
    @pytest.mark.parametrize("chunk", [StatKernel.CHUNK, 7])
    def test_objective_width_equals_objective(self, kind, chunk, monkeypatch):
        # a small chunk makes every window span several evaluation blocks
        monkeypatch.setattr(StatKernel, "CHUNK", chunk)
        rng = np.random.default_rng(21)
        m = 300
        p = np.where((np.arange(m) >= 100) & (np.arange(m) < 160), 0.8, 0.3)
        procs = [proc_from_z((rng.random(m) < p).astype(int)), proc_from_z(np.ones(m, int))]
        windows = [(1, m), (1, 2), (m - 1, m), (1, 41), (m - 40, m)]
        for _ in range(6):
            lo = int(rng.integers(1, m))
            windows.append((lo, int(rng.integers(lo + 1, m + 1))))
        for proc in procs:
            for lo, hi in windows:
                kernel = StatKernel(proc, kind, lo, hi)
                for d in range(hi - lo + 1):
                    I = np.arange(lo, hi - d + 1, dtype=np.int64)
                    v = kernel.objective_width(d)
                    assert np.array_equal(v, kernel.objective(I, I + d))
                    # for one width the first maximum is the lexicographic pick
                    k = int(np.argmax(v))
                    assert argbest(I, I + d, v) == (lo + k, lo + k + d, float(v[k]))

    def test_shared_xlogx_table(self):
        # a chromosome-long table serves every window bit for bit
        proc = bernoulli_process(0.4, 500, seed=8)
        table = xlogx_table(proc.m)
        assert np.array_equal(table, [0.0] + [k * math.log(k) for k in range(1, 501)])
        rng = np.random.default_rng(9)
        for lo, hi in [(1, 500), (1, 2), (499, 500), (37, 240)]:
            I = rng.integers(lo, hi + 1, 200)
            J = np.maximum(I, rng.integers(lo, hi + 1, 200))
            kernel = StatKernel(proc, "glr", lo, hi)
            assert np.shares_memory(kernel._xlogx, table)
            # the scalar statistic takes every x*log(x) from math.log, not the table
            want = [-np.inf if (i, j) == (lo, hi) else interval_glr(proc.S, lo, hi, i, j).lambda_ij
                    for i, j in zip(I.tolist(), J.tolist())]
            assert np.array_equal(kernel.objective(I, J), want)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StatKernel(proc_from_z([1, 0]), "wat")


class TestXlogx:
    """k*log(k) from libm's log, checked against scipy's xlogy as the oracle."""

    def test_table_is_xlogy_bit_for_bit(self):
        # numpy's log (2.4, AVX-512) differs from libm's in the last bit on some
        # integers of this range (9170 is one), so a k * np.log(k) table fails here
        m = 3_000_000
        k = np.arange(m + 1, dtype=np.float64)
        assert np.array_equal(xlogx_table(m).view(np.int64), xlogy(k, k).view(np.int64))

    def test_table_memoized_read_only(self):
        table = xlogx_table(1000)
        assert xlogx_table(1000) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[5] = 0.0

    def test_scalar_is_the_table_entry(self):
        m = 200_000
        table = xlogx_table(m)
        ks = [0, 1, 2, 3, 9170, 19143, 94869, 102327, 136085, m - 1, m]
        ks += np.random.default_rng(4).integers(0, m + 1, 500).tolist()
        for k in ks:
            want = float(table[k]).hex()
            for count in (k, np.int64(k), np.int32(k)):
                assert float(_xlogx(count)).hex() == want
