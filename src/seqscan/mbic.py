"""Modified BIC over a nested change-point sequence and complexity selection.

The criterion trades the segmentation's log generalized likelihood ratio
against penalties for irregular segment lengths and for the number of change
points; the candidate count penalty uses the number of distinct genomic
positions, which is the only way coordinates enter model selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process import CombinedProcess, segment_bounds
from .segment import ChangePointSequence
from .stats import _xlogx


@dataclass(frozen=True)
class MbicCurve:
    """Criterion values for K = 0..K_max."""

    values: np.ndarray


def log_glr_full(process: CombinedProcess, taus) -> float:
    """Log likelihood ratio of the segmentation against the no-change model.

    Sum of per-segment binomial log-likelihoods at the segment MLEs, minus
    the log-likelihood at the pooled case fraction; 0*log(0) counts as 0.
    """
    m = process.m
    ll = 0.0
    for start, end in segment_bounds(taus, m):
        n = end - start + 1
        x = process.case_count(start, end)
        ll += _xlogx(x) + _xlogx(n - x) - _xlogx(n)
    null = _xlogx(process.m1) + _xlogx(process.m2) - _xlogx(m)
    return float(ll - null)


def mbic(process: CombinedProcess, taus) -> float:
    """Modified BIC of the segmentation with the given interior change points.

    log GLR - (1/2) sum(log(tau_{k+1} - tau_k)) + (1/2) log(m) - K log(m'),
    over boundaries 1 = tau_0 < taus < tau_{K+1} = m, where m' counts the
    distinct read positions.  Duplicate change points are rejected.
    """
    m = process.m
    llr = log_glr_full(process, taus)  # validates taus
    bounds = [1] + [int(t) for t in taus] + [m]
    penalty = 0.5 * sum(math.log(b - a) for a, b in zip(bounds, bounds[1:]))
    k = len(taus)
    return llr - penalty + 0.5 * math.log(m) - k * math.log(process.m_prime)


def select_k(process: CombinedProcess, sequence: ChangePointSequence):
    """Pick the change-point count maximizing the criterion over the sequence.

    Evaluates every prefix of the individual-insertion order (a step that
    added two change points contributes two prefixes).  Ties go to the
    smaller K.  Returns (k_hat, MbicCurve, selected sorted change points).
    """
    values = np.empty(sequence.n_taus + 1)
    for k in range(values.size):
        values[k] = mbic(process, sequence.taus_at(k))
    k_hat = int(np.argmax(values))
    return k_hat, MbicCurve(values=values), sequence.taus_at(k_hat)
