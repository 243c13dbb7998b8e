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

from .betacdf import QUANTILE_TOL, _chained_cdf, _chains, _lgamma, _ndtri, _series_cdf
from .process import CombinedProcess, InputError, distinct_sorted, segment_bounds

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
        if not np.all(w > 0):
            raise ValueError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        shapes = np.concatenate([np.ravel(self.a), np.ravel(self.b)])
        if not np.all((shapes > 0) & (shapes < np.inf)):
            raise ValueError("Beta shape parameters must be finite and positive")

    def cdf(self, x: float) -> float:
        return float(np.dot(self.weights, _series_cdf(self.a, self.b, x)[0]))

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
    if not (0.0 < alpha < np.inf and 0.0 < beta < np.inf):
        raise InputError(f"prior parameters must be finite and positive, got alpha={alpha}, "
                         f"beta={beta}")


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise InputError(f"epsilon must be in (0, 1), got {epsilon}")


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
    # log B(alpha + s, beta + f) = lg_a[s] + lg_b[f] - lg_ab[s + f], with the log-gamma
    # of each prior shape plus every count up to the window's length
    k = np.arange(hi - lo + 2, dtype=np.float64)
    lg_a, lg_b, lg_ab = _lgamma(alpha + k), _lgamma(beta + k), _lgamma(alpha + beta + k)
    log_l = (lg_a[s1] + lg_b[n1 - s1] - lg_ab[n1] + lg_a[s2] + lg_b[n2 - s2] - lg_ab[n2]
             - 2.0 * (lg_a[0] + lg_b[0] - lg_ab[0]))
    return CpLikelihoods(indices=c, log_l=log_l)


def posterior_weights(logs: CpLikelihoods, epsilon: float = 1e-4) -> TruncatedWeights:
    """Ratio weights against the best location, truncated at epsilon, normalized."""
    _check_epsilon(epsilon)
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


_MAX_STEPS = 200
# CDF matrix entries (points x components) per chained pass: bounds the solver's memory
_BATCH_ENTRIES = 1 << 18
# entries that the tables of one band solve hold (four per component, for a, b,
# log B(a, b) and links, plus every row's weights): segments join a solve until
# their tables reach this, which bounds the band's memory
_SOLVE_ENTRIES = 1 << 18
# a larger density only shortens a Newton step; capping the log of 1 / (x (1 - x))
# keeps the density finite when x is near 0 or 1
_LOG_PDF_CAP = 600.0
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_TINY = np.nextafter(0.0, 1.0)
_SOLVER_COUNTS = ("steps", "chained passes", "quantile evaluations", "CDF entries",
                  "series evaluations", "series terms", "bisections", "missed quantiles")


def _table(weights, a, b):
    """A component table of the band solver: mixture rows over the components Beta(a, b).

    ``weights`` holds one row of mixture weights per mixture.  The table also
    holds the components' chains, each row's weight on every chain
    (``on_chain``, see ``_rows_at``) and each row's moment-matched normal
    (mean and standard deviation), where the Newton method starts.
    """
    chains = _chains(a, b)
    mean = a / (a + b)
    mu = weights @ mean
    var = weights @ (mean * (1.0 - mean) / (a + b + 1.0) + mean**2) - mu**2
    return {"a": a, "b": b, "chains": chains, "weights": weights,
            "on_chain": np.add.reduceat(weights, chains["roots"], axis=1),
            "mu": mu, "sd": np.sqrt(np.maximum(var, 0.0))}


def _rows_at(table, x, at_series, counts):
    """Each row's mixture CDF, and x (1 - x) times its density, at the points x (columns)."""
    a, b, chains = table["a"], table["b"], table["chains"]
    weights, on_chain = table["weights"], table["on_chain"]
    cdf_rows = np.empty((weights.shape[0], x.size))
    dens_rows = np.empty_like(cdf_rows)
    per = max(1, _BATCH_ENTRIES // a.size)
    for k in range(0, x.size, per):
        offsets, at_root, g = _chained_cdf(a, b, chains, x[k : k + per], at_series[k : k + per])
        # a row's F: its weights times the components' distances from their chain
        # roots, plus its weight on each chain times the chain root's CDF
        cdf_rows[:, k : k + per] = weights @ offsets.T + on_chain @ at_root.T
        dens_rows[:, k : k + per] = weights @ g.T
        counts["chained passes"] += 1
        counts["CDF entries"] += offsets.size
    return cdf_rows, dens_rows


def _quantiles(tables, levels):
    """Quantiles at ``levels`` of every row of every ``_table``, by one Newton loop.

    A safeguarded Newton method on the exact mixture CDF F (on the probit
    scale, ndtri(F(x)) = ndtri(q)) starts from each row's moment-matched normal
    quantile.  Each step evaluates every unfinished quantile's point: one
    ``_series_cdf`` call gives every table's series roots (see ``_chains``) at
    that table's points, and one chained pass per table gives all of its
    components there.  Every point serves every row of its table: a
    quantile's bracket shrinks to the nearest points on either side of its
    level, the quantile is done at any point whose chained F is within
    QUANTILE_TOL minus the table's chain bound of q (so that |F(x) - q| <=
    QUANTILE_TOL for the exact F), and its Newton step starts from the
    evaluated bracket end whose F is nearer q.  A step that would leave the
    bracket bisects it instead (see the lower-tail rule below).  Where no
    double meets the tolerance (F jumps across q between two adjacent doubles)
    or the step limit ends the search, the bracket end nearer q is returned
    and a warning counts such quantiles.  Returns one (rows x levels) array
    per table and the solver's counts.
    """
    levels = np.asarray(levels, dtype=np.float64)
    counts = dict.fromkeys(_SOLVER_COUNTS, 0)
    n_rows = np.array([t["weights"].shape[0] for t in tables], dtype=np.int64)
    # quantiles in (table, row, level) order
    every_row = np.repeat(np.arange(n_rows.sum()), levels.size)
    tab = np.repeat(np.arange(n_rows.size), n_rows)[every_row]
    row = every_row - (np.cumsum(n_rows) - n_rows)[tab]
    q = np.tile(levels, n_rows.sum())
    z = _ndtri(q)
    mu, sd = (np.concatenate([t[key] for t in tables]) for key in ("mu", "sd"))
    x = mu[every_row] + sd[every_row] * z
    x = np.where((x > 0.0) & (x < 1.0), x, 0.5)
    # past its roots' own CDF error the chained F lies within the chains' bound
    # of the exact F, so accepting it at the smaller tolerance keeps |F - q| <= QUANTILE_TOL
    tol = np.array([QUANTILE_TOL - t["chains"]["bound"] for t in tables])[tab]
    # the bracket [lo, hi], and F - q and x (1 - x) times the density at its ends;
    # an end at 0 or 1 has not been evaluated (F(0) = 0, F(1) = 1)
    lo, hi = np.zeros_like(x), np.ones_like(x)
    err_lo, err_hi = -q, 1.0 - q
    dens_lo, dens_hi = np.zeros_like(x), np.zeros_like(x)
    drops = np.zeros(x.size, dtype=np.int64)  # bisections spent at a lower end of 0
    out = np.empty_like(x)
    # the series roots of every table, one table after another
    series = [t["chains"]["roots"][t["chains"]["series"]] for t in tables]
    ser_a, ser_b, ser_peak = (np.concatenate(parts) for parts in (
        [t["a"][r] for t, r in zip(tables, series)], [t["b"][r] for t, r in zip(tables, series)],
        [t["chains"]["series_peak"] for t in tables]))
    ser_n = np.array([r.size for r in series], dtype=np.int64)
    ser_first = np.cumsum(ser_n) - ser_n
    act = np.arange(x.size)
    for _ in range(_MAX_STEPS):
        if not act.size:
            break
        counts["steps"] += 1
        counts["quantile evaluations"] += act.size
        # the distinct points of every table, sorted by table and x
        act = act[np.lexsort((x[act], tab[act]))]
        ta, xa = tab[act], x[act]
        new = np.ones(act.size, dtype=bool)
        new[1:] = (ta[1:] != ta[:-1]) | (xa[1:] != xa[:-1])
        point = np.cumsum(new) - 1
        px, pt = xa[new], ta[new]
        # every point with each series root of its table, in one series call
        per = ser_n[pt]
        start = np.cumsum(per) - per
        pi = np.repeat(np.arange(px.size), per)
        ri = ser_first[pt][pi] + np.arange(pi.size) - start[pi]
        at_series, terms = _series_cdf(ser_a[ri], ser_b[ri], px[pi], ser_peak[ri])
        counts["series evaluations"] += pi.size
        counts["series terms"] += int(terms.sum())
        # each quantile's nearest points below and above its level: F rises with x,
        # so they are the last of its table's points where F < q and the next one
        # (rows: x, F - q and the scaled density below, then the same above)
        near = np.empty((6, act.size))
        firsts = np.flatnonzero(np.concatenate([[True], ta[1:] != ta[:-1]]))
        q_ends = np.append(firsts, act.size)
        p_ends = np.append(point[firsts], px.size)
        for s, q0, q1, p0, p1 in zip(ta[firsts], q_ends[:-1], q_ends[1:], p_ends[:-1], p_ends[1:]):
            values = at_series[start[p0] : start[p0] + (p1 - p0) * ser_n[s]]
            cdf_rows, dens_rows = _rows_at(tables[s], px[p0:p1],
                                           values.reshape(p1 - p0, ser_n[s]), counts)
            rows = row[act[q0:q1]]
            err = cdf_rows[rows] - q[act[q0:q1], None]
            n_below = np.count_nonzero(err < 0, axis=1)
            k = np.arange(q1 - q0)
            for side, j in ((0, np.maximum(n_below - 1, 0)), (3, np.minimum(n_below, p1 - p0 - 1))):
                near[side : side + 3, q0:q1] = px[p0 + j], err[k, j], dens_rows[rows, j]
        x_b, err_b, dens_b, x_a, err_a, dens_a = near
        # the bracket shrinks to them; a point is below only where F < q, above where F > q
        up = (err_b < 0) & (x_b > lo[act])
        lo[act[up]], err_lo[act[up]], dens_lo[act[up]] = x_b[up], err_b[up], dens_b[up]
        up = (err_a > 0) & (x_a < hi[act])
        hi[act[up]], err_hi[act[up]], dens_hi[act[up]] = x_a[up], err_a[up], dens_a[up]
        # done at the nearer of the two, if near enough
        nearer_b = np.abs(err_b) <= np.abs(err_a)
        met = np.minimum(np.abs(err_b), np.abs(err_a)) <= tol[act]
        out[act[met]] = np.where(nearer_b, x_b, x_a)[met]
        # no double lies strictly inside the bracket: no x meets the tolerance
        stuck = ~met & (hi[act] <= np.nextafter(lo[act], 1.0))
        counts["missed quantiles"] += int(stuck.sum())
        out[act[stuck]] = _nearer_end(act[stuck], lo, hi, err_lo, err_hi)
        act = act[~(met | stuck)]
        l, h, e_lo, e_hi = lo[act], hi[act], err_lo[act], err_hi[act]
        # Newton's step on ndtri(F(x)) = ndtri(q), nearly linear in x wherever the
        # mixture is nearly normal, from the evaluated bracket end nearer the level.
        # It is taken where it lands strictly inside the bracket, else the bracket
        # is bisected; the bracket test runs before the division so that the
        # division cannot overflow
        from_lo = (l > 0.0) & ((h == 1.0) | (np.abs(e_lo) <= np.abs(e_hi)))
        xb = np.where(from_lo, l, h)
        fb = np.where(from_lo, e_lo, e_hi) + q[act]
        with np.errstate(divide="ignore"):
            d = np.where(from_lo, dens_lo[act], dens_hi[act]) * np.exp(
                np.minimum(-np.log(xb) - np.log1p(-xb), _LOG_PDF_CAP))
        g = _ndtri(np.clip(fb, 1e-300, 1.0 - 2.0**-53))
        num = (g - z[act]) * np.exp(-0.5 * g * g) * _INV_SQRT_2PI
        newton = (d > 0) & (num > d * (xb - h)) & (num < d * (xb - l))
        cand = xb - np.divide(num, d, out=np.zeros_like(d), where=newton)
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
        counts["bisections"] += int((~newton).sum())
        x[act] = np.where(newton, cand, mid)
    else:
        counts["missed quantiles"] += act.size
        out[act] = _nearer_end(act, lo, hi, err_lo, err_hi)
    if counts["missed quantiles"]:
        log.warning(
            "%d of %d mixture quantiles could not meet |F - q| <= %g; "
            "returned the bracket end nearer to q", counts["missed quantiles"], out.size,
            QUANTILE_TOL,
        )
    bounds = np.split(out.reshape(-1, levels.size), np.cumsum(n_rows)[:-1])
    return bounds, counts


def _nearer_end(idx, lo, hi, err_lo, err_hi):
    """The bracket end whose CDF lies nearer the level, for quantiles ``idx``."""
    return np.where(np.abs(err_lo[idx]) <= np.abs(err_hi[idx]), lo[idx], hi[idx])


def mixture_quantile(mix: BetaMixture, q: float) -> float:
    """Invert the mixture CDF: x with |F(x) - q| <= QUANTILE_TOL, where a double meets it."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    weights = np.asarray(mix.weights, dtype=np.float64)[None, :]
    a, b = (np.asarray(v, dtype=np.float64) for v in (mix.a, mix.b))
    (out,), _ = _quantiles([_table(weights, a, b)], (q,))
    return float(out[0, 0])


# diffuse location posteriors keep the mixture at a few hundred components
MAX_BOUNDARY_CANDIDATES = 100


def _boundary_posterior(process, window_lo, window_hi, alpha, beta, epsilon):
    """Truncated location posterior of one called change point.

    Returns (split, weights, ratios, dropped): each candidate's last read
    index of the left side, its normalized weight and its likelihood ratio
    to the best candidate, and the share of the epsilon-truncated posterior
    mass that ``MAX_BOUNDARY_CANDIDATES`` cut (0 where it cut nothing).
    """
    logs = cp_likelihoods(process, alpha, beta, lo=window_lo, hi=window_hi)
    # the last candidate leaves the right side empty: not a valid boundary
    trimmed = CpLikelihoods(indices=logs.indices[:-1], log_l=logs.log_l[:-1])
    tw = posterior_weights(trimmed, epsilon)
    idx, w, r = tw.indices, tw.weights, tw.ratios
    dropped = 0.0
    if idx.size > MAX_BOUNDARY_CANDIDATES:
        order = np.lexsort((idx, -w))
        dropped = float(w[order[MAX_BOUNDARY_CANDIDATES:]].sum())
        top = np.sort(order[:MAX_BOUNDARY_CANDIDATES])
        idx, w, r = idx[top], w[top], r[top]
        w = w / w.sum()
    return idx, w, r, dropped


def _segment_table(S, reads, left, right, alpha, beta, epsilon, t):
    """One segment's ``_table`` of mixtures, and the row of each read in ``t``.

    ``reads`` holds the first read of the previous segment (1 for the first
    segment), the segment's first and last read, and the last read of the
    next segment (m for the last), and ``t`` reads between the first and the
    last of these; ``left`` and ``right`` are the segment's boundary
    posteriors as ``_boundary_posterior`` returns them, splits ascending.
    Each pair of a left split cl and a right split cr with cl < cr and joint
    likelihood ratio above epsilon weighs the product of the two weights
    (the called boundaries alone if no pair does).  At read t a pair
    contributes the Beta posterior of the reads left of the segment while
    t <= cl, of the reads inside it while cl < t <= cr, and of the reads
    right of it after that.  So reads with the same number of splits below
    them share a row, and rows ascend with t whatever the order of ``t``.
    """
    prev_start, start, end, next_end = reads
    cl, wl, rl = left[:3]
    cr, wr, rr = right[:3]
    keep = (cl[:, None] < cr) & (rl[:, None] * rr > epsilon)
    if not keep.any():
        # inconsistent flanking posteriors: fall back to the called boundaries
        cl, wl, cr, wr = np.array([start - 1]), np.ones(1), np.array([end]), np.ones(1)
        keep = np.ones((1, 1), dtype=bool)
    i, j = np.nonzero(keep)
    w = wl[i] * wr[j]
    w /= w.sum()
    # one component left of the segment per used left split, one inside it per
    # pair and one right of it per used right split, each with its pairs' weight
    used_l, used_r = np.flatnonzero(keep.any(axis=1)), np.flatnonzero(keep.any(axis=0))
    sl, sr, CL, CR = cl[used_l], cr[used_r], cl[i], cr[j]
    lo = np.concatenate([np.full(sl.size, prev_start - 1), CL, sr])
    hi = np.concatenate([sl, CR, np.full(sr.size, next_end)])
    # merge identical components: one integer key per (case, control) count pair
    cases = S[hi] - S[lo]
    controls = hi - lo - cases
    base = controls.max() + 1
    keys, comp = np.unique(cases * base + controls, return_inverse=True)
    a, b = alpha + keys // base, beta + keys % base
    # a read's row: the rank of its count of splits below among the counts seen
    cuts = distinct_sorted(np.sort(np.concatenate([sl, sr])))
    below = np.searchsorted(cuts, t)
    upto = np.cumsum(np.bincount(below, minlength=cuts.size + 1) > 0)
    rows = upto[below] - 1
    # a component of reads lo + 1..hi weighs in over the rows of those reads:
    # it steps up at the first such row and down after the last
    row_read = np.empty(upto[-1], dtype=t.dtype)
    row_read[rows] = t
    edges = np.searchsorted(row_read, np.concatenate([lo, hi]), side="right")
    weight = np.concatenate([np.bincount(i, w)[used_l], w, np.bincount(j, w)[used_r]])
    steps = np.bincount(edges * a.size + np.tile(comp, 2), np.concatenate([weight, -weight]),
                        (row_read.size + 1) * a.size)
    weights = np.cumsum(steps.reshape(-1, a.size)[:-1], axis=0)
    return rows, _table(weights, a, b)


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
    _check_prior(alpha, beta)
    _check_epsilon(epsilon)
    m = process.m
    if m == 0:
        raise InputError("empty process")
    segs = segment_bounds(taus, m)
    grid = distinct_sorted(process.W) if grid is None else np.asarray(grid, dtype=np.int64)

    # each called boundary varies over the two segments it separates; a chromosome
    # end is a boundary with one certain candidate, split 0 or m
    inner = [_boundary_posterior(process, lo, hi, alpha, beta, epsilon)
             for (lo, _), (_, hi) in zip(segs, segs[1:])]
    certain = (np.ones(1), np.ones(1), 0.0)
    boundaries = [(np.array([0]), *certain), *inner, (np.array([m]), *certain)]
    dropped = np.array([bp[3] for bp in inner])
    log.debug(
        "MAX_BOUNDARY_CANDIDATES=%d truncated %d of %d boundary posteriors, dropping at most "
        "%.3g of one posterior's mass and %.3g summed over all", MAX_BOUNDARY_CANDIDATES,
        np.count_nonzero(dropped), len(inner), dropped.max(initial=0.0), dropped.sum(),
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
    links = np.zeros(4, dtype=np.int64)  # components, b-links, a-links, series roots
    counts = dict.fromkeys(_SOLVER_COUNTS, 0)
    pending = []

    def solve():
        # the block quantiles of every pending segment in one Newton loop
        bounds, solved = _quantiles([table for *_, table in pending], (q_lo, q_hi))
        for (sel, rows, table), bd in zip(pending, bounds):
            lower[sel] = bd[rows, 0]
            upper[sel] = bd[rows, 1]
            chains = table["chains"]
            np.add(links, (table["a"].size, chains["b_links"], chains["a_links"],
                           chains["series"].size), out=links)
        for key in counts:
            counts[key] += solved[key]
        pending.clear()

    for k, (start, end) in enumerate(segs):
        sel = np.flatnonzero(seg_of_t == k)
        if sel.size == 0:
            continue
        point[sel] = process.case_count(start, end) / (end - start + 1)
        rows, table = _segment_table(
            process.S, (prev_starts[k], start, end, next_ends[k + 1]), boundaries[k],
            boundaries[k + 1], alpha, beta, epsilon, t_of_grid[sel],
        )
        pending.append((sel, rows, table))
        if sum(4 * t["a"].size + t["weights"].size for *_, t in pending) >= _SOLVE_ENTRIES:
            solve()
    if pending:
        solve()
    log.debug("credible band: %d components, %d b-links, %d a-links, %d series roots, "
              "%d series terms", *links, counts.pop("series terms"))
    log.debug("band solver: " + ", ".join(f"%d {name}" for name in counts), *counts.values())
    return PosteriorBand(grid=grid, lower=lower, upper=upper, point_est=point)
