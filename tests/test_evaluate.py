from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from seqscan import match_changepoints, nearest_read_index

from conftest import proc_from_z


def brute_force_match(called, truth, tol):
    """(max matched pairs, min total distance) by exhaustive enumeration."""
    nc, nt = len(called), len(truth)
    for size in range(min(nc, nt), -1, -1):
        best = None
        for cs in combinations(range(nc), size):
            for ts in permutations(range(nt), size):
                d = [abs(called[c] - truth[t]) for c, t in zip(cs, ts)]
                if all(x <= tol for x in d):
                    tot = sum(d)
                    best = tot if best is None else min(best, tot)
        if best is not None:
            return size, best
    return 0, 0


def assignment_match(called, truth, tol):
    """(matched pairs, total distance) by a padded square assignment problem.

    An infeasible edge costs more than every feasible matching combined, so
    the minimum-cost assignment has the most pairs within ``tol`` and, among
    those, the least total distance.
    """
    nc, nt = len(called), len(truth)
    if nc == 0 or nt == 0:
        return 0, 0
    dist = np.abs(np.subtract.outer(called, truth)).astype(np.float64)
    big = tol * (min(nc, nt) + 1.0) + 1.0
    n = max(nc, nt)
    padded = np.full((n, n), big)
    padded[:nc, :nt] = np.where(dist <= tol, dist, big)
    rows, cols = linear_sum_assignment(padded)
    kept = [int(dist[r, c]) for r, c in zip(rows, cols)
            if r < nc and c < nt and dist[r, c] <= tol]
    return len(kept), sum(kept)


def check_report(rep, called, truth, tol):
    """The report's pairs lie within ``tol`` and use each input point at most once."""
    for c, t, d in rep.pairs:
        assert d == abs(c - t) <= tol
    assert not Counter(c for c, _, _ in rep.pairs) - Counter(called)
    assert not Counter(t for _, t, _ in rep.pairs) - Counter(truth)
    nc, nt, n = len(called), len(truth), rep.n_matched
    assert rep.recall == (n / nt if nt else 1.0)
    assert rep.precision == (n / nc if nc else float(nt == 0))
    assert (rep.unmatched_called, rep.unmatched_true) == (nc - n, nt - n)


class TestMatchChangepoints:
    def test_identity(self):
        r = match_changepoints([5, 90, 400], [5, 90, 400], 100)
        assert r.recall == r.precision == 1.0
        assert r.unmatched_called == r.unmatched_true == 0

    def test_shift_beyond_tolerance(self):
        truth = [100, 500, 900]
        called = [t + 150 for t in truth]
        r = match_changepoints(called, truth, 100)
        assert r.recall == 0.0 and r.precision == 0.0
        assert r.pairs == []

    def test_worked_example(self):
        r = match_changepoints([10, 500], [60, 490, 900], 100)
        assert sorted(r.pairs) == [(10, 60, 50), (500, 490, 10)]
        assert r.recall == pytest.approx(2 / 3)
        assert r.precision == 1.0
        assert r.unmatched_true == 1

    def test_empty_conventions(self):
        both = match_changepoints([], [], 100)
        assert both.recall == both.precision == 1.0
        no_calls = match_changepoints([], [5], 100)
        assert no_calls.recall == 0.0 and no_calls.precision == 0.0
        no_truth = match_changepoints([5], [], 100)
        assert no_truth.recall == 1.0 and no_truth.precision == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            nc, nt = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            called = sorted(rng.integers(0, 800, nc).tolist())
            truth = sorted(rng.integers(0, 800, nt).tolist())
            rep = match_changepoints(called, truth, 100)
            size, tot = brute_force_match(called, truth, 100)
            assert rep.n_matched == size
            assert sum(d for _, _, d in rep.pairs) == tot

    def test_matches_assignment_solver(self):
        # the minimum-cost assignment is the reference: pair count and total
        # distance must agree, though tied optima may pair different points
        rng = np.random.default_rng(4)
        for case in range(3000):
            nc, nt = (int(n) for n in rng.integers(0, 81, 2))
            if case % 10 == 0:
                nc, nt = (0, nt) if case % 20 else (nc, 0)
            span = int(rng.choice([50, 400, 5000]))  # a span of 50 repeats positions
            tol = int(rng.choice([0, int(rng.integers(1, 1001))]))
            called = rng.integers(0, span, nc).tolist()
            truth = rng.integers(0, span, nt).tolist()
            rep = match_changepoints(called, truth, tol)
            check_report(rep, called, truth, tol)
            assert (rep.n_matched, sum(d for _, _, d in rep.pairs)) == assignment_match(
                sorted(called), sorted(truth), tol)

    def test_exact_beyond_int64_keys(self):
        # tolerances up to 1e18 make pairs * unit overflow int64, and positions
        # beyond 2**63 do not fit it: both need exact integer keys
        rng = np.random.default_rng(5)
        for case in range(300):
            nc, nt = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            base, spread = (10**15, 10**4) if case % 3 else (2**70, 10**18)
            tol = int(rng.choice([10**18, int(rng.integers(0, spread))]))
            called = [base + int(x) for x in rng.integers(0, spread, nc)]
            truth = [base + int(x) for x in rng.integers(0, spread, nt)]
            rep = match_changepoints(called, truth, tol)
            check_report(rep, called, truth, tol)
            size, tot = brute_force_match(called, truth, tol)
            assert rep.n_matched == size
            assert sum(d for _, _, d in rep.pairs) == tot

    def test_greedy_never_beats_optimal(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            nc, nt = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            called = sorted(rng.integers(0, 500, nc).tolist())
            truth = sorted(rng.integers(0, 500, nt).tolist())
            rep = match_changepoints(called, truth, 100)
            # greedy nearest-neighbor pairing
            free = set(range(nt))
            greedy_pairs = 0
            greedy_total = 0
            for c in called:
                cands = [(abs(c - truth[t]), t) for t in free if abs(c - truth[t]) <= 100]
                if cands:
                    d, t = min(cands)
                    free.discard(t)
                    greedy_pairs += 1
                    greedy_total += d
            assert greedy_pairs <= rep.n_matched
            if greedy_pairs == rep.n_matched:
                assert greedy_total >= sum(d for _, _, d in rep.pairs)

    def test_symmetric_total_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = sorted(rng.integers(0, 600, int(rng.integers(1, 8))).tolist())
            b = sorted(rng.integers(0, 600, int(rng.integers(1, 8))).tolist())
            r1 = match_changepoints(a, b, 80)
            r2 = match_changepoints(b, a, 80)
            assert r1.n_matched == r2.n_matched
            assert sum(d for _, _, d in r1.pairs) == sum(d for _, _, d in r2.pairs)

    def test_rates_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = sorted(rng.integers(0, 300, int(rng.integers(0, 6))).tolist())
            b = sorted(rng.integers(0, 300, int(rng.integers(0, 6))).tolist())
            r = match_changepoints(a, b, 50)
            assert 0.0 <= r.recall <= 1.0
            assert 0.0 <= r.precision <= 1.0


class TestNearestReadIndex:
    def test_basic(self):
        p = proc_from_z([1, 0, 1, 0], W=[10, 20, 30, 40])
        assert nearest_read_index(p, 5) == 1
        assert nearest_read_index(p, 10) == 1
        assert nearest_read_index(p, 14) == 1
        assert nearest_read_index(p, 16) == 2
        assert nearest_read_index(p, 99) == 4

    def test_tie_goes_left(self):
        p = proc_from_z([1, 0], W=[10, 20])
        assert nearest_read_index(p, 15) == 1
