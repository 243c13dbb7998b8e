"""Approximate Bayesian point-wise credible bands for the case probability.

Change-point locations get closed-form marginal likelihoods under conjugate
Beta priors; truncating negligible locations leaves a small Beta mixture for
the probability at every position, whose quantiles form the band.  With
several change points, each called boundary is varied inside the region
bounded by its neighbors (held at their estimates), and the flanking
location posteriors combine independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

from .process import CombinedProcess, InputError, segment_bounds


@dataclass(frozen=True)
class CpLikelihoods:
    """Log marginal likelihoods of a single change point over a window.

    ``indices`` are candidate split positions: a split at c puts reads
    ``window_lo..c`` in the first regime and ``c+1..window_hi`` in the second
    (the last candidate c = window_hi leaves the second regime empty).
    """

    indices: np.ndarray
    log_l: np.ndarray
    window: tuple[int, int]

    @property
    def log_l_max(self) -> float:
        return float(self.log_l.max())

    @property
    def tau_hat(self) -> int:
        return int(self.indices[int(np.argmax(self.log_l))])


@dataclass(frozen=True)
class TruncatedWeights:
    """Normalized change-point location weights surviving the cutoff."""

    indices: np.ndarray
    weights: np.ndarray
    ratios: np.ndarray  # likelihood ratios to the best location, in (0, 1]


@dataclass(frozen=True)
class BetaMixture:
    """Finite mixture of Beta distributions with normalized weights."""

    weights: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.size == 0:
            raise ValueError("mixture needs at least one component")
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if np.any(np.asarray(self.a) <= 0) or np.any(np.asarray(self.b) <= 0):
            raise ValueError("Beta shape parameters must be positive")

    def cdf(self, x: float) -> float:
        return float(np.dot(self.weights, betainc(self.a, self.b, x)))

    def mean(self) -> float:
        return float(np.dot(self.weights, self.a / (self.a + self.b)))


@dataclass(frozen=True)
class PosteriorBand:
    """Point-wise credible bounds for the case probability along a chromosome."""

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    point_est: np.ndarray


def _check_prior(alpha: float, beta: float) -> None:
    if alpha <= 0 or beta <= 0:
        raise InputError(f"prior parameters must be positive, got alpha={alpha}, beta={beta}")


def _log_beta(a, b):
    return gammaln(a) + gammaln(b) - gammaln(a + b)


def cp_likelihoods(
    process: CombinedProcess, alpha: float, beta: float, lo: int = 1, hi: int | None = None
) -> CpLikelihoods:
    """Closed-form log likelihood of a change point at each position of a window.

    For a split at c, both regimes' Bernoulli probabilities are integrated
    out under Beta(alpha, beta) priors; everything runs through log-gamma so
    long windows stay finite.  Candidates and data are restricted to
    [lo, hi] (default: the whole stream).
    """
    _check_prior(alpha, beta)
    hi = process.m if hi is None else hi
    if not (1 <= lo <= hi <= process.m):
        raise ValueError(f"window [{lo}, {hi}] outside [1, {process.m}]")
    S = process.S
    c = np.arange(lo, hi + 1, dtype=np.int64)
    n1 = c - lo + 1
    s1 = S[c] - S[lo - 1]
    n2 = hi - c
    s2 = S[hi] - S[c]
    const = 2.0 * (gammaln(alpha + beta) - gammaln(alpha) - gammaln(beta))
    log_l = (
        _log_beta(alpha + s1, beta + n1 - s1)
        + _log_beta(alpha + s2, beta + n2 - s2)
        + const
    )
    return CpLikelihoods(indices=c, log_l=log_l, window=(lo, hi))


def posterior_weights(logs: CpLikelihoods, epsilon: float = 1e-4) -> TruncatedWeights:
    """Ratio weights against the best location, truncated at epsilon, normalized."""
    if not (0.0 < epsilon < 1.0):
        raise InputError(f"epsilon must be in (0, 1), got {epsilon}")
    r = np.exp(logs.log_l - logs.log_l_max)
    keep = r > epsilon
    idx = logs.indices[keep]
    r = r[keep]
    return TruncatedWeights(indices=idx, weights=r / r.sum(), ratios=r)


def posterior_at(
    t: int,
    weights: TruncatedWeights,
    process: CombinedProcess,
    alpha: float,
    beta: float,
) -> BetaMixture:
    """Posterior Beta mixture for the case probability at read t.

    One-change-point model over the full stream: each surviving location i
    contributes the conjugate posterior of whichever regime t falls in under
    a split at i.
    """
    _check_prior(alpha, beta)
    S = process.S
    m = process.m
    idx = weights.indices
    pre = t <= idx
    a = np.where(pre, alpha + S[idx], alpha + S[m] - S[idx])
    b = np.where(pre, beta + idx - S[idx], beta + (m - idx) - (S[m] - S[idx]))
    return BetaMixture(weights=weights.weights, a=a.astype(float), b=b.astype(float))


def _bisect_cdf(mix: BetaMixture, q: float, lo: float, hi: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c = mix.cdf(mid)
        if abs(c - q) <= 1e-8:
            return mid
        if c < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def mixture_quantile(mix: BetaMixture, q: float, bracket: tuple[float, float] | None = None) -> float:
    """Invert the mixture CDF by bisection on [0, 1].

    A ``bracket`` guess narrows the starting interval when the answer is
    known to be nearby; it is verified before use.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    if bracket is not None:
        lo = max(0.0, bracket[0])
        hi = min(1.0, bracket[1])
        if lo < hi and mix.cdf(lo) < q <= mix.cdf(hi):
            return _bisect_cdf(mix, q, lo, hi)
    return _bisect_cdf(mix, q, 0.0, 1.0)


# diffuse location posteriors keep the mixture at a few hundred components
MAX_BOUNDARY_CANDIDATES = 100


class _BoundaryPosterior:
    """Truncated location posterior of one called change point."""

    def __init__(self, process, tau, window_lo, window_hi, alpha, beta, epsilon):
        logs = cp_likelihoods(process, alpha, beta, lo=window_lo, hi=window_hi)
        # the last candidate leaves the right side empty: not a valid boundary
        trimmed = CpLikelihoods(
            indices=logs.indices[:-1], log_l=logs.log_l[:-1], window=logs.window
        )
        tw = posterior_weights(trimmed, epsilon)
        idx, w, r = tw.indices, tw.weights, tw.ratios
        if idx.size > MAX_BOUNDARY_CANDIDATES:
            top = np.lexsort((idx, -w))[:MAX_BOUNDARY_CANDIDATES]
            top.sort()
            idx, w, r = idx[top], w[top], r[top]
            w = w / w.sum()
        self.tau = tau
        self.split = idx  # last read index of the left side
        self.weights = w
        self.ratios = r


def _segment_mixture_pairs(process, seg_idx, segs, left, right, alpha, beta, epsilon):
    """Joint flanking-boundary candidates for one segment.

    Returns per-pair arrays: split positions, weight, and the Beta parameters
    the pair implies for positions left of the segment, inside it, and right
    of it.  Virtual fixed boundaries stand in when the segment touches a
    chromosome end.
    """
    S = process.S
    m = process.m
    if left is not None:
        cl, wl, rl = left.split, left.weights, left.ratios
        prev_start = segs[seg_idx - 1][0]
    else:
        cl = np.array([segs[seg_idx][0] - 1], dtype=np.int64)
        wl = np.ones(1)
        rl = np.ones(1)
        prev_start = 1
    if right is not None:
        cr, wr, rr = right.split, right.weights, right.ratios
        next_end = segs[seg_idx + 1][1]
    else:
        cr = np.array([segs[seg_idx][1]], dtype=np.int64)
        wr = np.ones(1)
        rr = np.ones(1)
        next_end = m

    CL = np.repeat(cl, cr.size)
    CR = np.tile(cr, cl.size)
    W = np.repeat(wl, cr.size) * np.tile(wr, cl.size)
    R = np.repeat(rl, cr.size) * np.tile(rr, cl.size)
    keep = (CL < CR) & (R > epsilon)
    if not keep.any():
        # inconsistent flanking posteriors: fall back to the called boundaries
        CL = np.array([segs[seg_idx][0] - 1], dtype=np.int64)
        CR = np.array([segs[seg_idx][1]], dtype=np.int64)
        W = np.ones(1)
    else:
        CL, CR, W = CL[keep], CR[keep], W[keep]
        W = W / W.sum()

    s_in = S[CR] - S[CL]
    n_in = CR - CL
    s_prev = S[CL] - S[prev_start - 1]
    n_prev = CL - prev_start + 1
    s_next = S[next_end] - S[CR]
    n_next = next_end - CR
    ab = np.stack(
        [
            np.concatenate([alpha + s_prev, alpha + s_in, alpha + s_next]).astype(float),
            np.concatenate(
                [beta + n_prev - s_prev, beta + n_in - s_in, beta + n_next - s_next]
            ).astype(float),
        ],
        axis=1,
    )
    # collapse identical Beta components once; classes then just re-weight ids
    uniq, inv = np.unique(ab, axis=0, return_inverse=True)
    inv = inv.ravel()
    n = CL.size
    return {
        "CL": CL,
        "CR": CR,
        "w": W,
        "comp_ab": uniq,
        "prev_id": inv[:n],
        "in_id": inv[n : 2 * n],
        "next_id": inv[2 * n :],
    }


def _class_mixture(pairs, t):
    """Mixture at read t: pairs fall left of, inside, or right of the segment."""
    left_out = pairs["CL"] >= t
    right_out = pairs["CR"] < t
    inside = ~(left_out | right_out)
    ncomp = pairs["comp_ab"].shape[0]
    w = np.zeros(ncomp)
    w += np.bincount(pairs["prev_id"][left_out], weights=pairs["w"][left_out], minlength=ncomp)
    w += np.bincount(pairs["in_id"][inside], weights=pairs["w"][inside], minlength=ncomp)
    w += np.bincount(pairs["next_id"][right_out], weights=pairs["w"][right_out], minlength=ncomp)
    keep = w > 0
    ab = pairs["comp_ab"][keep]
    w = w[keep]
    return BetaMixture(weights=w / w.sum(), a=ab[:, 0], b=ab[:, 1])


def ci_band(
    process: CombinedProcess,
    taus,
    level: float = 0.95,
    epsilon: float = 1e-4,
    alpha: float = 1.0,
    beta: float = 1.0,
    grid: np.ndarray | None = None,
) -> PosteriorBand:
    """Point-wise credible band for the case probability at genomic positions.

    ``taus`` is the selected index segmentation.  The default grid is every
    distinct read position; a position maps to the last read at or before it
    (the probability is constant between reads).  Band values are constant
    between consecutive candidate boundary locations, so quantiles are
    computed once per such block and scattered to its grid positions.
    """
    if not (0.0 < level < 1.0):
        raise InputError(f"level must be in (0, 1), got {level}")
    m = process.m
    if m == 0:
        raise InputError("empty process")
    segs = segment_bounds(taus, m)
    grid = np.unique(process.W) if grid is None else np.asarray(grid, dtype=np.int64)

    boundaries = []
    for k in range(1, len(segs)):
        window_lo = segs[k - 1][0]
        window_hi = segs[k][1]
        boundaries.append(
            _BoundaryPosterior(process, segs[k][0], window_lo, window_hi, alpha, beta, epsilon)
        )

    # read index of the last read at or before each grid position
    t_of_grid = np.clip(np.searchsorted(process.W, grid, side="right"), 1, m)
    seg_starts = np.array([s for s, _ in segs], dtype=np.int64)
    seg_of_t = np.searchsorted(seg_starts, t_of_grid, side="right") - 1

    q_lo = (1.0 - level) / 2.0
    q_hi = 1.0 - q_lo
    lower = np.empty(grid.size)
    upper = np.empty(grid.size)
    point = np.empty(grid.size)

    for k, (start, end) in enumerate(segs):
        sel = np.flatnonzero(seg_of_t == k)
        if sel.size == 0:
            continue
        n_seg = end - start + 1
        p_hat = process.case_count(start, end) / n_seg
        point[sel] = p_hat
        left = boundaries[k - 1] if k >= 1 else None
        right = boundaries[k] if k < len(boundaries) else None
        pairs = _segment_mixture_pairs(process, k, segs, left, right, alpha, beta, epsilon)
        # the class mixture changes only where t crosses a candidate boundary:
        # one block per distinct (CL rank, CR rank), quantiles inverted once each
        rank_cl = np.searchsorted(np.sort(pairs["CL"]), t_of_grid[sel])
        rank_cr = np.searchsorted(np.sort(pairs["CR"]), t_of_grid[sel])
        key = rank_cl * (pairs["CR"].size + 1) + rank_cr
        _, first, block = np.unique(key, return_index=True, return_inverse=True)
        bounds = np.empty((first.size, 2))
        prev = None
        for b, g in enumerate(sel[first]):
            mix = _class_mixture(pairs, int(t_of_grid[g]))
            # neighboring blocks shift the quantiles only slightly
            b_lo = (prev[0] - 0.03, prev[0] + 0.03) if prev is not None else None
            b_hi = (prev[1] - 0.03, prev[1] + 0.03) if prev is not None else None
            bounds[b] = (
                mixture_quantile(mix, q_lo, bracket=b_lo),
                mixture_quantile(mix, q_hi, bracket=b_hi),
            )
            prev = bounds[b]
        lower[sel] = bounds[block, 0]
        upper[sel] = bounds[block, 1]

    return PosteriorBand(grid=grid, lower=lower, upper=upper, point_est=point)
