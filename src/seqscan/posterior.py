"""Approximate Bayesian point-wise credible bands for the case probability.

Change-point locations get closed-form marginal likelihoods under conjugate
Beta priors; truncating negligible locations leaves a small Beta mixture for
the probability at every position, whose quantiles form the band.  With
several change points, each called boundary is varied inside the region
bounded by its neighbors (held at their estimates), and the flanking
location posteriors combine independently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln, gammaln, ndtri

from .process import CombinedProcess, InputError, segment_bounds

log = logging.getLogger(__name__)


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
        return float(np.dot(self.weights, _beta_cdf(self.a, self.b, x)))

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


# a quantile x of level q is done once the mixture CDF satisfies |F(x) - q| <= this
QUANTILE_TOL = 1e-8
_MAX_STEPS = 200
# CDF matrix entries (quantiles x components) per batch: bounds the solver's memory
_BATCH_ENTRIES = 1 << 18
# a larger density only shortens a Newton step; capping the log of 1 / (x (1 - x))
# keeps the density finite when x is near 0 or 1
_LOG_PDF_CAP = 600.0
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_TINY = np.nextafter(0.0, 1.0)
_EPS = np.finfo(np.float64).eps


def _beta_cdf(a, b, x):
    """betainc(a, b, x), but 1 - betainc(1/2, 1/2, 1 - x) for Beta(1/2, 1/2) above x = 1/2.

    There betainc is off by up to 2.8e-9 (at 1 - 2**-53), the reflection by 3e-17.
    """
    half = (np.asarray(a) == 0.5) & (np.asarray(b) == 0.5)
    if not half.any():
        return betainc(a, b, x)
    flip = half & (np.asarray(x) > 0.5)
    cdf = betainc(a, b, np.where(flip, 1.0 - x, x))
    return np.where(flip, 1.0 - cdf, cdf)


def _chains(a, b):
    """Chains of a component table: which Beta CDFs ``_chained_cdf`` gets from ``_beta_cdf``.

    Component j continues the chain of component j - 1 when it has the same a
    and a b one higher.  Along a chain the contiguous recurrence (DLMF 8.17.21)
    I_x(a, b + 1) = I_x(a, b) + x^a (1 - x)^b / (b B(a, b)) gives every CDF from
    the chain's first component, its root.  A link's term is exp of an exponent
    whose rounding error grows with the size
    c = |log Gamma(a)| + |log Gamma(b)| + |log Gamma(a + b)| + |log b| of the terms
    that make up its log normalizer log(b B(a, b)).  Over a table of n components
    the chained CDFs then differ from the exact ones by at most their root's
    CDF error plus 4 eps (n + 4 max c).  A component whose link alone could
    spend a tenth of QUANTILE_TOL starts a chain of its own, as does every
    component of a table without chains, whose CDFs are then ``_beta_cdf``'s.
    Returns log B(a, b), the root indices, the factor 1 / b of each link's
    term (0 before a root) and the error bound.
    """
    log_norm = betaln(a, b)
    a0, b0 = a[:-1], b[:-1]
    size = (np.abs(gammaln(a0)) + np.abs(gammaln(b0)) + np.abs(gammaln(a0 + b0))
            + np.abs(np.log(b0)))
    link = (a[1:] == a0) & (b[1:] == b0 + 1.0) & (16.0 * _EPS * size <= QUANTILE_TOL / 10)
    roots = np.flatnonzero(np.concatenate([[True], ~link]))
    scale = np.where(link, 1.0 / b0, 0.0)
    bound = 4.0 * _EPS * (a.size + 4.0 * size[link].max()) if link.any() else 0.0
    return {"log_norm": log_norm, "roots": roots, "scale": scale, "bound": bound}


def _chained_cdf(a, b, chains, x):
    """Beta CDFs I_x(a, b) of every component (columns) at every x (rows), by chains.

    Also returns x^a (1 - x)^b / B(a, b), which is x (1 - x) times each
    component's density.  betainc runs at the chain roots only; every other
    component adds one term to its predecessor's CDF.
    """
    roots = chains["roots"]
    with np.errstate(divide="ignore"):
        lx, l1x = np.log(x)[:, None], np.log1p(-x)[:, None]
    g = lx * a
    g += l1x * b
    g -= chains["log_norm"]
    np.exp(g, out=g)
    cdf = np.empty_like(g)
    cdf[:, 0] = 0.0
    np.multiply(g[:, :-1], chains["scale"], out=cdf[:, 1:])
    at_root = _beta_cdf(a[roots], b[roots], x[:, None])
    # one running sum along the table, which at each root steps from the end of
    # the previous chain (its root plus its terms) to the root's CDF
    jump = at_root.copy()
    jump[:, 1:] -= at_root[:, :-1] + np.add.reduceat(cdf, roots, axis=1)[:, :-1]
    cdf[:, roots] = jump
    np.cumsum(cdf, axis=1, out=cdf)
    cdf[:, roots] = at_root
    return np.clip(cdf, 0.0, 1.0, out=cdf), g


def _newton_quantiles(weights, a, b, levels, chains):
    """One batch of ``_mixture_quantiles``: the quantiles and how many missed the tolerance."""
    n_rows = weights.shape[0]
    row = np.repeat(np.arange(n_rows), levels.size)
    q = np.tile(levels, n_rows)
    # start from the normal with the mixture's mean and variance
    mean = a / (a + b)
    mu = weights @ mean
    var = weights @ (mean * (1.0 - mean) / (a + b + 1.0) + mean**2) - mu**2
    z = ndtri(q)
    x = mu[row] + np.sqrt(np.maximum(var, 0.0))[row] * z
    x = np.where((x > 0.0) & (x < 1.0), x, 0.5)
    # the bracket [lo, hi] and F - q at its ends: F(0) = 0 and F(1) = 1
    lo = np.zeros_like(x)
    hi = np.ones_like(x)
    err_lo = -q
    err_hi = 1.0 - q
    out = np.empty_like(x)
    # past its roots' own CDF error the chained F lies within the chains' bound
    # of the exact F, so accepting it at the smaller tolerance keeps |F - q| <= QUANTILE_TOL
    tol = QUANTILE_TOL - chains["bound"]
    act = np.arange(x.size)
    drops = np.zeros(x.size, dtype=np.int64)  # bisections spent at a lower end of 0
    missed = 0
    for _ in range(_MAX_STEPS):
        xa = x[act]
        w = weights[row[act]]
        cdf, scaled_pdf = _chained_cdf(a, b, chains, xa)
        err = np.einsum("kc,kc->k", w, cdf) - q[act]
        dens = np.einsum("kc,kc->k", w, scaled_pdf)  # x (1 - x) times the density
        below, above = err < 0, err > 0
        lo[act] = np.where(below, xa, lo[act])
        err_lo[act] = np.where(below, err, err_lo[act])
        hi[act] = np.where(above, xa, hi[act])
        err_hi[act] = np.where(above, err, err_hi[act])
        met = np.abs(err) <= tol
        out[act[met]] = xa[met]
        # no double lies strictly inside the bracket: no x meets the tolerance
        stuck = ~met & (hi[act] <= np.nextafter(lo[act], 1.0))
        missed += int(stuck.sum())
        out[act[stuck]] = _nearer_end(act[stuck], lo, hi, err_lo, err_hi)
        keep = ~(met | stuck)
        act, xa, err, dens = act[keep], xa[keep], err[keep], dens[keep]
        if act.size == 0:
            break
        dens *= np.exp(np.minimum(-np.log(xa) - np.log1p(-xa), _LOG_PDF_CAP))
        # Newton's step on ndtri(F(x)) = ndtri(q), nearly linear in x wherever the
        # mixture is nearly normal.  It is taken where it lands strictly inside
        # the bracket, else the bracket is bisected; the bracket test runs before
        # the division so that the division cannot overflow
        g = ndtri(np.clip(err + q[act], 1e-300, 1.0 - 2.0**-53))
        num = (g - z[act]) * np.exp(-0.5 * g * g) * _INV_SQRT_2PI
        l, h = lo[act], hi[act]
        newton = (dens > 0) & (num > dens * (xa - h)) & (num < dens * (xa - l))
        cand = xa - np.divide(num, dens, out=np.zeros_like(err), where=newton)
        newton &= (cand > l) & (cand < h)
        # Bisection halves the bracket, except in the lower tail: while the lower
        # end is still 0, the k-th bisection divides the upper end by 2**(2**k)
        # (2, 4, 16, 256, ...), and after two of those the bracket is split on
        # the log scale while it spans more than a factor of 2.  A quantile far
        # below its start then takes a few dozen steps, not one per binade
        at0 = l == 0.0
        drop = np.maximum(h * np.exp2(-np.exp2(np.minimum(drops[act], 10))), _TINY)
        tail = ~at0 & (drops[act] > 1) & (h > 2.0 * l)
        mid = np.where(at0, drop, np.where(tail, np.sqrt(l) * np.sqrt(h), 0.5 * (l + h)))
        drops[act] += at0 & ~newton
        x[act] = np.where(newton, cand, mid)
    else:
        missed += act.size
        out[act] = _nearer_end(act, lo, hi, err_lo, err_hi)
    return out.reshape(n_rows, levels.size), missed


def _nearer_end(idx, lo, hi, err_lo, err_hi):
    """The bracket end whose CDF lies nearer the level, for quantiles ``idx``."""
    return np.where(np.abs(err_lo[idx]) <= np.abs(err_hi[idx]), lo[idx], hi[idx])


def _mixture_quantiles(weights, a, b, levels) -> np.ndarray:
    """Quantiles of Beta mixtures that share one component table.

    Row r of ``weights`` mixes the components Beta(a, b); entry [r, j] of the
    result is that mixture's quantile at ``levels[j]``.  All quantiles are
    solved together by a safeguarded Newton method on the exact mixture CDF F
    (on the probit scale, ndtri(F(x)) = ndtri(q)), started from the
    moment-matched normal quantile.  Each step evaluates F and the mixture
    density for every unfinished quantile, with betainc at the table's chain
    roots only (see ``_chains``); a step that would leave the quantile's bracket
    bisects it instead (see ``_newton_quantiles`` for the lower tail).  A
    quantile is done once the chained F is within QUANTILE_TOL minus the chains'
    error bound of q, so that |F(x) - q| <= QUANTILE_TOL for the exact F.  Where
    no double meets that (F jumps across q between two adjacent doubles) or the
    step limit ends the search, the bracket end nearer to q is returned and a
    warning counts such quantiles.  Rows are solved in batches that bound the
    CDF matrix's size.
    """
    weights = np.asarray(weights, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.float64)
    chains = _chains(a, b)
    out = np.empty((weights.shape[0], levels.size))
    missed = 0
    per = max(1, _BATCH_ENTRIES // (a.size * levels.size))
    for r0 in range(0, weights.shape[0], per):
        out[r0 : r0 + per], n = _newton_quantiles(weights[r0 : r0 + per], a, b, levels, chains)
        missed += n
    if missed:
        log.warning(
            "%d of %d mixture quantiles could not meet |F - q| <= %g; "
            "returned the bracket end nearer to q", missed, out.size, QUANTILE_TOL,
        )
    return out


def mixture_quantile(mix: BetaMixture, q: float) -> float:
    """Invert the mixture CDF: x with |F(x) - q| <= QUANTILE_TOL, where a double meets it."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    return float(_mixture_quantiles(np.asarray(mix.weights)[None, :], mix.a, mix.b, (q,))[0, 0])


# diffuse location posteriors keep the mixture at a few hundred components
MAX_BOUNDARY_CANDIDATES = 100


def _boundary_posterior(process, window_lo, window_hi, alpha, beta, epsilon):
    """Truncated location posterior of one called change point.

    Returns (split, weights, ratios, truncated): each candidate's last read
    index of the left side, its normalized weight and its likelihood ratio
    to the best candidate, and whether ``MAX_BOUNDARY_CANDIDATES`` cut it.
    """
    logs = cp_likelihoods(process, alpha, beta, lo=window_lo, hi=window_hi)
    # the last candidate leaves the right side empty: not a valid boundary
    trimmed = CpLikelihoods(indices=logs.indices[:-1], log_l=logs.log_l[:-1], window=logs.window)
    tw = posterior_weights(trimmed, epsilon)
    idx, w, r = tw.indices, tw.weights, tw.ratios
    truncated = idx.size > MAX_BOUNDARY_CANDIDATES
    if truncated:
        top = np.lexsort((idx, -w))[:MAX_BOUNDARY_CANDIDATES]
        top.sort()
        idx, w, r = idx[top], w[top], r[top]
        w = w / w.sum()
    return idx, w, r, truncated


def _segment_mixture_pairs(process, reads, left, right, alpha, beta, epsilon):
    """Joint flanking-boundary candidates for one segment.

    ``reads`` holds the first read of the previous segment (1 for the first
    segment), the segment's first and last read, and the last read of the
    next segment (m for the last); ``left`` and ``right`` are its boundary
    posteriors as ``_boundary_posterior`` returns them.  Returns per-pair
    arrays: split positions, weight, and the Beta parameters the pair implies
    for positions left of the segment, inside it, and right of it.
    """
    S = process.S
    prev_start, start, end, next_end = reads
    cl, wl, rl, _ = left
    cr, wr, rr, _ = right
    CL = np.repeat(cl, cr.size)
    CR = np.tile(cr, cl.size)
    W = np.repeat(wl, cr.size) * np.tile(wr, cl.size)
    R = np.repeat(rl, cr.size) * np.tile(rr, cl.size)
    keep = (CL < CR) & (R > epsilon)
    if not keep.any():
        # inconsistent flanking posteriors: fall back to the called boundaries
        CL = np.array([start - 1], dtype=np.int64)
        CR = np.array([end], dtype=np.int64)
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
    # (case, control) counts of every component: before, inside and after the segment
    cases = np.concatenate([s_prev, s_in, s_next])
    controls = np.concatenate([n_prev - s_prev, n_in - s_in, n_next - s_next])
    # collapse identical Beta components once; classes then just re-weight ids.
    # One integer key per count pair sorts like the pair and is much faster to unique
    _, first, inv = np.unique(
        cases * (controls.max() + 1) + controls, return_index=True, return_inverse=True
    )
    uniq = np.stack([alpha + cases[first], beta + controls[first]], axis=1).astype(float)
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


def _block_weights(pairs, t):
    """Mixture weights over ``comp_ab`` at each read of ascending ``t``, one row per read.

    A pair contributes its left-of-segment component while t <= CL, its
    inside component while CL < t <= CR and its right-of-segment component
    after that.  Each pair adds its weight to the row where it enters a class
    and subtracts it where it leaves; a cumulative sum down the rows then
    assembles every row.
    """
    ncomp = pairs["comp_ab"].shape[0]
    enter_in = np.searchsorted(t, pairs["CL"], side="right")
    enter_next = np.searchsorted(t, pairs["CR"], side="right")
    w = pairs["w"]
    rows = np.concatenate([np.zeros_like(enter_in), enter_in, enter_in, enter_next, enter_next])
    comps = np.concatenate([pairs["prev_id"], pairs["prev_id"], pairs["in_id"], pairs["in_id"],
                            pairs["next_id"]])
    delta = np.bincount(rows * ncomp + comps, weights=np.concatenate([w, -w, w, -w, w]),
                        minlength=(t.size + 1) * ncomp)
    return np.cumsum(delta.reshape(t.size + 1, ncomp), axis=0)[:-1]


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

    # each called boundary varies over the two segments it separates; a chromosome
    # end is a boundary with one certain candidate, split 0 or m
    inner = [_boundary_posterior(process, lo, hi, alpha, beta, epsilon)
             for (lo, _), (_, hi) in zip(segs, segs[1:])]
    certain = (np.ones(1), np.ones(1), False)
    boundaries = [(np.array([0]), *certain), *inner, (np.array([m]), *certain)]
    log.debug(
        "MAX_BOUNDARY_CANDIDATES=%d truncated %d of %d boundary posteriors",
        MAX_BOUNDARY_CANDIDATES, sum(bp[3] for bp in inner), len(inner),
    )

    # read index of the last read at or before each grid position
    t_of_grid = np.clip(np.searchsorted(process.W, grid, side="right"), 1, m)
    seg_starts = np.array([s for s, _ in segs], dtype=np.int64)
    seg_of_t = np.searchsorted(seg_starts, t_of_grid, side="right") - 1
    # first read of each segment's predecessor and last read of its successor
    prev_starts = [1] + [s for s, _ in segs]
    next_ends = [e for _, e in segs] + [m]

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
        pairs = _segment_mixture_pairs(
            process, (prev_starts[k], start, end, next_ends[k + 1]), boundaries[k],
            boundaries[k + 1], alpha, beta, epsilon,
        )
        # the class mixture changes only where t crosses a candidate boundary:
        # one block per run of reads between consecutive distinct candidates
        cuts = np.union1d(pairs["CL"], pairs["CR"])
        _, first, block = np.unique(
            np.searchsorted(cuts, t_of_grid[sel]), return_index=True, return_inverse=True
        )
        ab = pairs["comp_ab"]
        weights = _block_weights(pairs, t_of_grid[sel[first]])
        bounds = _mixture_quantiles(weights, ab[:, 0], ab[:, 1], (q_lo, q_hi))
        lower[sel] = bounds[block, 0]
        upper[sel] = bounds[block, 1]

    return PosteriorBand(grid=grid, lower=lower, upper=upper, point_est=point)
