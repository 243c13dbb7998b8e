"""Match called change points against truth and score recall/precision.

Called and true change points are compared in read-index units under a
minimal-total-distance one-to-one assignment; pairs farther apart than the
tolerance are infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import CombinedProcess


@dataclass(frozen=True)
class MatchReport:
    """Assignment of called to true change points plus summary rates."""

    pairs: list[tuple[int, int, int]]  # (called index, true index, distance in reads)
    recall: float
    precision: float
    unmatched_called: int
    unmatched_true: int

    @property
    def n_matched(self) -> int:
        return len(self.pairs)


def nearest_read_index(process: CombinedProcess, position_bp: int) -> int:
    """1-based index of the read closest to a genomic position (ties: left)."""
    W = process.W
    k = int(np.searchsorted(W, position_bp))
    if k == 0:
        return 1
    if k >= W.size:
        return int(W.size)
    return k if position_bp - W[k - 1] <= W[k] - position_bp else k + 1


def match_changepoints(called, truth, tolerance_reads: int = 100) -> MatchReport:
    """Optimal one-to-one matching of called to true read indices.

    Maximizes the number of pairs within ``tolerance_reads`` and, among
    those, minimizes total distance.  recall = matched/|truth|,
    precision = matched/|called| (1 when both sides are empty, 0 for an
    empty call set against a non-empty truth).
    """
    # imported here: scipy.optimize loads scipy.linalg, which every other command can skip
    from scipy.optimize import linear_sum_assignment

    called = sorted(int(c) for c in called)
    truth = sorted(int(t) for t in truth)
    nc, nt = len(called), len(truth)
    if nc == 0:
        return MatchReport(
            pairs=[],
            recall=0.0 if nt else 1.0,
            precision=0.0 if nt else 1.0,
            unmatched_called=0,
            unmatched_true=nt,
        )
    if nt == 0:
        return MatchReport(pairs=[], recall=1.0, precision=0.0, unmatched_called=nc, unmatched_true=0)

    dist = np.abs(np.subtract.outer(called, truth)).astype(np.float64)
    # one infeasible edge must cost more than every feasible matching combined
    big = tolerance_reads * (min(nc, nt) + 1.0) + 1.0
    cost = np.where(dist <= tolerance_reads, dist, big)
    n = max(nc, nt)
    padded = np.full((n, n), big)
    padded[:nc, :nt] = cost
    rows, cols = linear_sum_assignment(padded)
    pairs = [
        (called[r], truth[c], int(dist[r, c]))
        for r, c in zip(rows, cols)
        if r < nc and c < nt and dist[r, c] <= tolerance_reads
    ]
    matched = len(pairs)
    return MatchReport(
        pairs=pairs,
        recall=matched / nt,
        precision=matched / nc,
        unmatched_called=nc - matched,
        unmatched_true=nt - matched,
    )
