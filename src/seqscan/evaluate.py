"""Match called change points against truth and score recall/precision.

Called and true change points are compared in read-index units under the
one-to-one matching with the most pairs within the tolerance and, among
those, the least total distance.
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

    |x - y| is a Monge cost on a line: two crossing pairs can swap partners
    without either growing longer than the longer of the two or the total
    rising, so some optimal matching pairs the sorted lists in order.  A
    dynamic program over them is exact.  ``best[i, j]`` is the most
    pairs * unit - total distance over ``called[:i]`` and ``truth[:j]``; the
    unit exceeds any total distance, so one more pair outweighs it.  Among
    equally good matchings, which pairs come back is not specified; their
    count and total distance are.
    """
    called = sorted(int(c) for c in called)
    truth = sorted(int(t) for t in truth)
    nc, nt = len(called), len(truth)
    unit = tolerance_reads * min(nc, nt) + 1
    # int64 while no key or distance can overflow, exact Python ints beyond
    ends = [abs(x) for x in called[:1] + called[-1:] + truth[:1] + truth[-1:]]
    dtype = np.int64 if max([unit * (min(nc, nt) + 1), *ends]) < 2**62 else object
    t = np.array(truth, dtype=dtype)
    best = np.zeros((nc + 1, nt + 1), dtype=dtype)
    for i, c in enumerate(called):
        dist = np.abs(t - c)
        # an infeasible pair gains nothing: best never falls along a row, so it never wins
        gain = np.where(dist <= tolerance_reads, unit - dist, 0)
        np.maximum(best[i, 1:], best[i, :-1] + gain, out=best[i + 1, 1:])
        np.maximum.accumulate(best[i + 1], out=best[i + 1])
    pairs, i, j = [], nc, nt
    while i and j:
        if best[i, j] == best[i - 1, j]:
            i -= 1
        elif best[i, j] == best[i, j - 1]:
            j -= 1
        else:
            i, j = i - 1, j - 1
            pairs.append((called[i], truth[j], abs(called[i] - truth[j])))
    n = len(pairs)
    return MatchReport(pairs=pairs[::-1], recall=n / nt if nt else 1.0,
                       precision=n / nc if nc else float(nt == 0),
                       unmatched_called=nc - n, unmatched_true=nt - n)
