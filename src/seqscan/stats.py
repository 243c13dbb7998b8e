"""Score and binomial likelihood-ratio statistics for read-index intervals.

Both statistics compare the case fraction inside an interval [i, j] of the
merged read stream against the rest of a window [lo, hi] of it, treated as
its own sequence (the whole chromosome for ``score`` and ``glr``).  All
evaluations use prefix sums, so each interval costs O(1) after O(m) setup.
Each statistic's formula is written once and serves both the scalar
functions and the vectorized kernel, which precomputes an x*log(x) table so
the likelihood ratio needs no transcendental calls per interval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .process import CombinedProcess


@dataclass(frozen=True)
class IntervalStat:
    """Statistics for one index interval [i, j] (1-based, inclusive)."""

    i: int
    j: int
    s_ij: float | None = None
    sigma_ij: float | None = None
    t_ij: float | None = None
    lambda_ij: float | None = None
    p_hat: float | None = None
    p_hat_in: float | None = None
    p_hat_out: float | None = None


def _check_interval(lo: int, hi: int, i: int, j: int) -> None:
    if not (lo <= i <= j <= hi):
        raise ValueError(f"invalid interval [{i}, {j}] for window [{lo}, {hi}]")


def _score_parts(x_in, n_in, m: int, p: float):
    """Centered case count of an interval and its null variance (scalars or arrays)."""
    s = x_in - p * n_in
    var = (1.0 - n_in / m) * n_in * (p * (1.0 - p))
    return s, var


def _glr_lambda(xlogx, x_in, n_in, m1: int, m: int):
    """Log likelihood ratio of an interval against the rest, from count x*log(x) terms.

    With the MLEs written as count ratios every log term is k*log(k) of a
    count, so ``xlogx`` may be a table lookup or a scalar function and both
    give the same float.
    """
    x_out = m1 - x_in
    n_out = m - n_in
    null_ll = xlogx(m1) + xlogx(m - m1) - xlogx(m)
    return (
        xlogx(x_in)
        + xlogx(n_in - x_in)
        - xlogx(n_in)
        + xlogx(x_out)
        + xlogx(n_out - x_out)
        - xlogx(n_out)
        - null_ll
    )


def _xlogx(k) -> float:
    """k*log(k) of one count, with 0*log(0) = 0: the entry k of ``xlogx_table``."""
    return k * math.log(k) if k else 0.0


@functools.lru_cache(maxsize=1)
def xlogx_table(m: int) -> np.ndarray:
    """k*log(k) of every count k = 0..m: the table a likelihood-ratio kernel indexes.

    Each entry is float(k) times libm's log(k), taken through ``math.log`` as
    in ``_xlogx``: the same bits as the tests' reference xlogy(k, k).  numpy's
    own log differs from libm's in the last bit on a few integers, so it is
    not used.
    Its values do not depend on the window, so the last table built, one of a
    chromosome's length, serves every ``StatKernel`` on it; it is read-only.
    """
    table = np.arange(m + 1, dtype=np.float64)
    table[1:] *= np.fromiter(map(math.log, range(1, m + 1)), np.float64, m)
    table.flags.writeable = False
    return table


def interval_score(S: np.ndarray, lo: int, hi: int, i: int, j: int) -> IntervalStat:
    """Score statistic of [i, j] against the rest of the window [lo, hi].

    ``S`` is the case-label prefix sum of the stream and the window is
    treated as its own sequence.  The raw score is centered with the
    window's pooled case fraction; the null standard deviation standardizes
    it across interval widths.  t_ij is defined as 0 whenever the null
    variance vanishes (whole-window interval, or a window that is all case
    or all control).
    """
    _check_interval(lo, hi, i, j)
    m = hi - lo + 1
    if m < 2:
        raise ValueError("need at least 2 reads")
    p = int(S[hi] - S[lo - 1]) / m
    s, var = _score_parts(int(S[j] - S[i - 1]), j - i + 1, m, p)
    sigma = math.sqrt(var) if var > 0 else 0.0
    t = s / sigma if sigma > 0 else 0.0
    return IntervalStat(i=i, j=j, s_ij=s, sigma_ij=sigma, t_ij=t, p_hat=p)


def interval_glr(S: np.ndarray, lo: int, hi: int, i: int, j: int) -> IntervalStat:
    """Exact binomial generalized likelihood ratio of [i, j] versus the rest of [lo, hi].

    Compares the two-parameter model (one case probability inside the
    interval, one outside) against the window's pooled single-probability
    model, in natural log.  The 0*log(0) := 0 convention applies at
    degenerate MLEs.  The whole-window interval has no outside MLE and is
    rejected.
    """
    _check_interval(lo, hi, i, j)
    if i == lo and j == hi:
        raise ValueError("GLR undefined on the whole-sequence interval: no outside reads")
    m = hi - lo + 1
    m1 = int(S[hi] - S[lo - 1])
    n_in = j - i + 1
    x_in = int(S[j] - S[i - 1])
    lam = float(_glr_lambda(_xlogx, x_in, n_in, m1, m))
    return IntervalStat(
        i=i,
        j=j,
        lambda_ij=max(lam, 0.0),
        p_hat=m1 / m,
        p_hat_in=x_in / n_in,
        p_hat_out=(m1 - x_in) / (m - n_in),
    )


def score(process: CombinedProcess, i: int, j: int) -> IntervalStat:
    """Score statistic of reads [i, j] against the rest of the chromosome."""
    return interval_score(process.S, 1, process.m, i, j)


def glr(process: CombinedProcess, i: int, j: int) -> IntervalStat:
    """Binomial likelihood ratio of reads [i, j] against the rest of the chromosome."""
    return interval_glr(process.S, 1, process.m, i, j)


_INTERVAL_STAT = {"score": interval_score, "glr": interval_glr}


class StatKernel:
    """Vectorized per-interval objectives over one window of the process.

    The window [lo, hi] is treated as its own sequence: the null success
    probability is the window's pooled case fraction and "outside" means the
    rest of the window.  On the whole stream this is exactly the chromosome
    statistic; recursive segmentation scans sub-regions the same way.  The
    scan objective is |t_ij| for the score statistic and lambda_ij for the
    likelihood ratio.  Arrays I and J are 1-based interval endpoints.  The
    likelihood ratio indexes the process's ``xlogx_table``.
    """

    def __init__(self, process: CombinedProcess, stat_kind: str, lo: int = 1,
                 hi: int | None = None):
        if stat_kind not in _INTERVAL_STAT:
            raise ValueError(f"unknown statistic {stat_kind!r}")
        hi = process.m if hi is None else hi
        self.stat_kind = stat_kind
        self.lo = lo
        self.hi = hi
        self.m = hi - lo + 1
        self.S = process.S
        self.m1 = int(process.S[hi] - process.S[lo - 1])
        self._p = self.m1 / self.m if self.m else 0.0
        if stat_kind == "glr":
            self._xlogx = xlogx_table(process.m)[: self.m + 1]

    # evaluation block size: temporaries stay cache-resident on large batches
    CHUNK = 32768

    def objective(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        I = np.asarray(I, dtype=np.int64)
        J = np.asarray(J, dtype=np.int64)
        out = np.empty(I.size)
        for k in range(0, I.size, self.CHUNK):
            sl = slice(k, k + self.CHUNK)
            out[sl] = self._objective_block(I[sl], J[sl])
        return out

    def objective_width(self, d: int) -> np.ndarray:
        """``objective`` of every interval [i, i + d] of the window, in order of i.

        At one width the objective depends only on the case count, so ``_values``
        runs once on every count the width allows and the sliding counts index
        it.  Every value equals ``objective`` on the same interval bit for bit.
        """
        x0 = max(0, d + 1 - (self.m - self.m1))
        table = self._values(np.arange(x0, min(d + 1, self.m1) + 1), d + 1)
        counts = self.S[self.lo + d : self.hi + 1] - self.S[self.lo - 1 : self.hi - d]
        return table[counts - x0]

    def objective_sweep(self, f: int) -> np.ndarray:
        """``objective`` of [min(f, a), max(f, a)] for every a of the window, in order of a.

        Starts below f pair with the end f and ends from f on with the start f,
        so the case counts are two contiguous prefix-sum slices and the widths
        two aranges.  In order of a the intervals are in lexicographic (i, j)
        order, so the first maximum is the smallest (i, j) tie.
        """
        lo, hi, S = self.lo, self.hi, self.S
        x_in = np.concatenate((S[f] - S[lo - 1 : f - 1], S[f : hi + 1] - S[f - 1]))
        n_in = np.concatenate((np.arange(f - lo + 1, 1, -1), np.arange(1, hi - f + 2)))
        out = np.empty(x_in.size)
        for k in range(0, x_in.size, self.CHUNK):
            sl = slice(k, k + self.CHUNK)
            out[sl] = self._values(x_in[sl], n_in[sl])
        return out

    def _objective_block(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        return self._values(self.S[J] - self.S[I - 1], J - I + 1)

    def _values(self, x_in, n_in) -> np.ndarray:
        """Objective of intervals with case counts ``x_in`` and widths ``n_in`` (array or scalar)."""
        if self.stat_kind == "score":
            s, var = _score_parts(x_in, n_in, self.m, self._p)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(var > 0, s / np.sqrt(var), 0.0)
            return np.abs(t)
        lam = _glr_lambda(self._xlogx.__getitem__, x_in, n_in, self.m1, self.m)
        # the whole-window interval has no outside MLE: never a candidate
        return np.where(n_in == self.m, -np.inf, np.maximum(lam, 0.0))

    def stat(self, i: int, j: int) -> IntervalStat:
        """Scalar IntervalStat of the configured kind for one interval of the window.

        Its |t_ij| or lambda_ij equals ``objective`` on the same interval.
        """
        return _INTERVAL_STAT[self.stat_kind](self.S, self.lo, self.hi, int(i), int(j))
