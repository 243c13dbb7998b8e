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
import math
from dataclasses import dataclass

import numpy as np

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
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if np.any(np.asarray(self.a) <= 0) or np.any(np.asarray(self.b) <= 0):
            raise ValueError("Beta shape parameters must be positive")

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
    if alpha <= 0 or beta <= 0:
        raise InputError(f"prior parameters must be positive, got alpha={alpha}, beta={beta}")


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# log Gamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2) = sum of B_2k / (2k (2k - 1) z^(2k - 1)),
# highest power first; from z = 15 on, these seven terms leave out less than 1e-19
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_STIRLING_FROM = 15.0


def _horner(coefs, r):
    """The polynomial with ``coefs`` (highest power first) at r."""
    s = coefs[0]
    for c in coefs[1:]:
        s = s * r + c
    return s


def _stirling_tail(z):
    """The Stirling series of ``_stirlerr`` at z >= _STIRLING_FROM."""
    return _horner(_STIRLING, 1.0 / (z * z)) / z


def _stirling(z):
    """log Gamma(z) by Stirling's series, for z >= _STIRLING_FROM."""
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + _stirling_tail(z)


def _lgamma(z):
    """log Gamma(z) for z > 0: Stirling's series, after shifting z up to at least 15.

    Below 15, log Gamma(z) = log Gamma(z + k) - log(z (z + 1) ... (z + k - 1)).
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.array(_stirling(np.maximum(z, _STIRLING_FROM)))
    small = z < _STIRLING_FROM
    if small.any():
        zs = z[small]
        k = np.ceil(_STIRLING_FROM - zs)
        prod = zs.copy()
        for j in range(1, int(k.max())):
            prod *= np.where(j < k, zs + j, 1.0)
        out[small] = _stirling(zs + k) - np.log(prod)
    return out


def _stirlerr(z):
    """log Gamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), the error of Stirling's formula."""
    z = np.asarray(z, dtype=np.float64)
    out = np.array(_stirling_tail(np.maximum(z, _STIRLING_FROM)))
    small = z < _STIRLING_FROM
    if small.any():
        zs = z[small]
        out[small] = _lgamma(zs) - (zs - 0.5) * np.log(zs) + zs - _HALF_LOG_2PI
    return out


_BD0 = tuple(1.0 / k for k in range(19, 2, -2))


def _bd0(x, m):
    """x log(x / m) + m - x, with relative accuracy where x and m are close (Loader 2000).

    Where |x - m| < (x + m) / 10 it sums (x - m) v + 2 x (v^3 / 3 + v^5 / 5 + ...)
    with v = (x - m) / (x + m), whose ninth term is below 1e-19 of the first.
    """
    d = x - m
    with np.errstate(divide="ignore", invalid="ignore"):
        v = d / (x + m)
        v2 = v * v
        near = d * v + 2.0 * x * v * v2 * _horner(_BD0, v2)
        far = x * np.log(x / m) - d
    return np.where(np.abs(d) < 0.1 * (x + m), near, far)


def _log_peak(a, b):
    """log of the largest x^a (1 - x)^b / B(a, b) over x, reached at x = a / (a + b)."""
    n = a + b
    lo = np.minimum(a, b)
    return (0.5 * (np.log(lo) + np.log1p(-lo / n)) - _HALF_LOG_2PI
            + _stirlerr(n) - _stirlerr(a) - _stirlerr(b))


def _log_beta(a, b, peak=None):
    """log B(a, b) from Stirling differences (Loader 2000); ``peak`` is ``_log_peak(a, b)``.

    log B(a, b) = a log(a / n) + b log(b / n) + log(2 pi n / (a b)) / 2 plus three
    Stirling errors, n = a + b.  None of its terms grows faster than log B
    itself, so its error stays within a few eps |log B| where a difference of
    log-gamma values carries eps |log Gamma(n)|.
    """
    n = a + b
    lo = np.minimum(a, b)
    peak = _log_peak(a, b) if peak is None else peak
    return lo * np.log(lo / n) + np.maximum(a, b) * np.log1p(-lo / n) - peak


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


# Wichura's AS241 (as in Python's statistics.NormalDist.inv_cdf): for |q - 1/2| <= 0.425,
# for r = sqrt(-log(min(q, 1 - q))) up to 5 (in r - 1.6) and beyond (in r - 5), the
# coefficients of numerator and denominator side by side, highest power first
_AS241 = tuple(np.array(piece).T[:, :, None] for piece in (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
      1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
      4.6303378461565452959e+0, 1.4234371107496835773e+0),
     (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
      1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
      2.0531916266377588219e+0, 1.0)),
    ((2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
      2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
      5.4637849111641143699e+0, 6.6579046435011037772e+0),
     (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
      7.8686913114561329059e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
      5.9983220655588793769e-1, 1.0)),
))


def _ndtri(q):
    """The standard normal quantile of q in (0, 1), by Wichura's AS241, as Python computes it."""
    q = np.asarray(q, dtype=np.float64)
    c = q - 0.5
    with np.errstate(divide="ignore"):
        r = np.sqrt(-np.log(np.minimum(q, 1.0 - q)))
    central = np.abs(c) <= 0.425
    piece = np.where(central, 0, np.where(r <= 5.0, 1, 2))
    # each piece's argument, and the factor its ratio is taken with: c, or the sign of c
    t = np.where(central, 0.180625 - c * c, r - np.where(r <= 5.0, 1.6, 5.0))
    factor = np.where(central, c, np.where(c < 0.0, -1.0, 1.0))
    out = np.empty_like(q)
    for i, coefs in enumerate(_AS241):
        sel = piece == i
        if sel.any():
            num, den = _horner(coefs, t[sel])
            out[sel] = num * factor[sel] / den
    return out


# a series root whose CDF is within this of 0 or 1 (by the series' own bound) is set to it
_NEGLIGIBLE = 2.0**-60
# series terms per batch (evaluations x terms): bounds the series' memory
_SERIES_ENTRIES = 1 << 20


def _series_cdf(a, b, x, peak=None):
    """I_x(a, b), broadcast over a, b and x, from hypergeometric series, and the terms summed.

    With g = x^a (1 - x)^b / B(a, b) in Loader's saddle-point form, DLMF 8.17.8
    gives I_x(a, b) = g / a * sum_k (a + b)_k / (a + 1)_k x^k.  Its terms fall
    from the first at a rate that tends to x, so where that sum's bound
    g / (a (1 - max(ratio, x))) is below _NEGLIGIBLE the CDF is 0, and likewise
    1 where I_(1-x)(b, a)'s is.  Every other evaluation is reflected,
    I_x(a, b) = 1 - I_(1-x)(b, a), to x <= 1/2, not to x below the mean: for
    a >> b the mean is near 1, where the ratio's limit x would call for about
    40 / (1 - x) terms (millions for Beta(1, 5e5)).  There the Pfaff transform of
    the same series, g / (a (1 - x)) * sum_k (1 - b)_k / (a + 1)_k (x / (x - 1))^k,
    whose terms are binomial probabilities (it ends after b terms for integer
    b), needs about half the terms near the mean.  It runs where b is an
    integer or a + b >= 40, so that its terms have died before they could
    alternate slowly; below that the first series runs, whose ratio tends to
    x <= 1/2.  Both are summed in chunks by ``cumprod`` until the remaining
    terms are below 2**-54 of the sum: the ratios ahead stay below the next
    one, or below x for the first series, and the Pfaff terms past k = b - 1
    alternate with falling size.  ``peak`` is ``_log_peak(a, b)``, if known.
    """
    a, b, x = (np.asarray(v, dtype=np.float64) for v in (a, b, x))
    shape = np.broadcast_shapes(a.shape, b.shape, x.shape)
    peak = _log_peak(a, b) if peak is None else peak
    a, b, x, peak = (v.ravel() for v in np.broadcast_arrays(a, b, x, peak))
    n = a + b
    # g = exp(log peak - bd0(a, n x) - bd0(b, n (1 - x))): its error grows with the
    # distance between n x and a, not with the counts
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        g = np.exp(peak - _bd0(np.stack([a, b]), np.stack([n * x, n * (1.0 - x)])).sum(axis=0))
        zero = (x * n <= a + 1.0) & (
            g / a < _NEGLIGIBLE * (1.0 - np.maximum(x * n / (a + 1.0), x)))
        one = ((1.0 - x) * n <= b + 1.0) & (
            g / b < _NEGLIGIBLE * (1.0 - np.maximum((1.0 - x) * n / (b + 1.0), 1.0 - x)))
    out = (one & ~zero).astype(np.float64)
    terms = np.zeros(x.size, dtype=np.int64)
    idx = np.flatnonzero(~(zero | one))
    flip = x[idx] > 0.5
    p = np.where(flip, b[idx], a[idx])
    q = np.where(flip, a[idx], b[idx])
    y = np.where(flip, 1.0 - x[idx], x[idx])
    pfaff = (q == np.floor(q)) | (n[idx] >= 40.0)
    # term k + 1 is term k times (top - k) / (p + 1 + k) * z
    top = np.where(pfaff, q - 1.0, -n[idx])
    p1 = p + 1.0
    z = np.where(pfaff, y / (1.0 - y), -y)
    limit = np.where(pfaff, 0.0, y)
    prefactor = g[idx] / (p * np.where(pfaff, 1.0 - y, 1.0))
    total = np.ones(idx.size)
    act = np.arange(idx.size)
    last, part = np.ones(idx.size), np.ones(idx.size)
    k0, width = 0, 16
    while act.size:
        k = np.arange(k0, k0 + width, dtype=np.float64)
        t = top[:, None] - k
        t /= p1[:, None] + k
        t *= z[:, None]
        np.cumprod(t, axis=1, out=t)
        t *= last[:, None]
        part += t.sum(axis=1)
        last = t[:, -1]
        k0 += width
        ratio = (top - k0) / (p1 + k0) * z
        # written so that a NaN (from a NaN x) ends its evaluation too
        done = ~(np.abs(last) > (1.0 - np.maximum(ratio, limit)) * np.abs(part) * 2.0**-54)
        total[act[done]] = part[done]
        terms[idx[act[done]]] = k0
        keep = ~done
        act, last, part, top, p1, z, limit = (
            v[keep] for v in (act, last, part, top, p1, z, limit))
        width = min(2 * width, max(16, _SERIES_ENTRIES // max(act.size, 1)))
    with np.errstate(under="ignore"):
        v = np.clip(prefactor * total, 0.0, 1.0)
    out[idx] = np.where(flip, 1.0 - v, v)
    return out.reshape(shape), terms


def _chains(a, b):
    """Links of a component table: which Beta CDFs ``_chained_cdf`` gets from ``_series_cdf``.

    Component j continues the b-chain of component j - 1 when it has the same a
    and a b one higher: I_x(a, b + 1) = I_x(a, b) + g(a, b)(x) / b (DLMF 8.17.21),
    with g(a, b)(x) = x^a (1 - x)^b / B(a, b).  The first component of a chain,
    its root, comes from the component (a - 1, b) where the table has one:
    I_x(a, b) = I_x(a - 1, b) - g(a - 1, b)(x) / (a - 1) (DLMF 8.17.20).  Only the
    remaining roots are evaluated by ``_series_cdf``.

    A link's term is exp(a log x + b log(1 - x) - log B(a, b)) over b (or over
    a - 1).  Rounding in the exponent spends a relative error of at most
    8 eps c with c = |log B(a, b)| + |log b| + 1 (|log a| for an a-link), since
    a |log x| + b |log(1 - x)| is at most the exponent's size plus |log B|.  A
    term is also never larger than min(1, g's peak / b).  So a link costs at
    most e = 16 eps c min(1, peak / b), and a component's chained CDF is
    within the sum of e over the links on its path, plus 4 eps n for the
    running sums of an n-component table, of the CDF its series root gives.
    A link is taken while its e is at most QUANTILE_TOL / (10 n), so the links
    together spend at most a tenth of the tolerance.  Each series root adds
    its own error, at most ``_series_error`` of the table.  Returns the table's
    log B(a, b) and ``_log_peak``, the chain roots, the factor 1 / b of each b-link's term (0
    before a root), the chain of every component, the a-links (roots, source
    components and factors 1 / (a - 1)), the series roots, the parent pointers
    that resolve root CDFs by pointer doubling, the error bound, the link counts
    and a series term counter.
    """
    n = a.size
    log_peak = _log_peak(a, b)
    log_norm = _log_beta(a, b, log_peak)
    peak = np.exp(log_peak)
    big = np.abs(log_norm) + 1.0
    budget = QUANTILE_TOL / (10 * n)
    cost_b = 16.0 * _EPS * (big + np.abs(np.log(b))) * np.minimum(1.0, peak / b)
    cost_a = 16.0 * _EPS * (big + np.abs(np.log(a))) * np.minimum(1.0, peak / a)
    b_link = (a[1:] == a[:-1]) & (b[1:] == b[:-1] + 1.0) & (cost_b[:-1] <= budget)
    roots = np.flatnonzero(np.concatenate([[True], ~b_link]))
    chain = np.cumsum(np.concatenate([[True], ~b_link])) - 1
    # the component (a - 1, b) of each root, if any: complex keys sort like (a, b) pairs
    key = a + 1j * b
    order = np.argsort(key)
    want = (a[roots] - 1.0) + 1j * b[roots]
    at = order[np.minimum(np.searchsorted(key[order], want), n - 1)]
    a_link = (key[at] == want) & (cost_a[at] <= budget)
    a_roots, a_from = np.flatnonzero(a_link), at[a_link]
    # pointer doubling over the roots: each a-linked root points at the root of its
    # source's chain, every other root at a sentinel past the end; each round adds
    # the value pointed at to the roots that still point at a root
    parent = np.full(roots.size + 1, roots.size)
    parent[a_roots] = chain[a_from]
    jumps = []
    while (busy := np.flatnonzero(parent != roots.size)).size:
        jumps.append((busy, parent[busy]))
        parent = parent[parent]
    series = np.flatnonzero(~a_link)
    spent = cost_b[:-1][b_link].sum() + cost_a[a_from].sum()
    bound = 4.0 * _EPS * n + spent + _series_error(a[roots[series]], b[roots[series]])
    return {
        "log_norm": log_norm, "log_peak": log_peak, "roots": roots,
        "scale": np.where(b_link, 1.0 / b[:-1], 0.0), "chain": chain, "a_roots": a_roots,
        "a_from": a_from, "a_scale": 1.0 / a[a_from],
        "series": series, "jumps": jumps, "bound": bound,
        "b_links": int(b_link.sum()), "a_links": int(a_roots.size), "terms": 0,
    }


def _series_error(a, b):
    """A bound on the absolute error of ``_series_cdf`` for the shapes a, b.

    An evaluation that is not set to 0 or 1 lies within about 9 binomial standard
    deviations s = sqrt(a b / (a + b)) of the mean, so its terms that matter
    pass through at most about 18 s ratios, each good to a few eps, and the
    prefactor's exponent is good to a few hundred eps.  Against 40-digit
    values for shapes from 0.001 to 10^7 the series stays below a quarter
    of this bound.
    """
    if a.size == 0:
        return 0.0
    return float(_EPS * (256.0 + 64.0 * np.sqrt(np.max(a * b / (a + b)))))


def _chained_cdf(a, b, chains, x):
    """Beta CDFs I_x(a, b) of every component (columns) at every x (rows), by chains.

    Also returns g = x^a (1 - x)^b / B(a, b), which is x (1 - x) times each
    component's density.  ``_series_cdf`` runs at the series roots only; every
    other component adds one term to another's CDF.
    """
    roots = chains["roots"]
    with np.errstate(divide="ignore"):
        lx, l1x = np.log(x)[:, None], np.log1p(-x)[:, None]
    g = lx * a
    g += l1x * b
    g -= chains["log_norm"]
    np.exp(g, out=g)
    # b-link terms, and at each later root minus the previous chain's terms, so that
    # one running sum along the table gives each component's distance from its root
    cdf = np.empty_like(g)
    cdf[:, 0] = 0.0
    np.multiply(g[:, :-1], chains["scale"], out=cdf[:, 1:])
    cdf[:, roots[1:]] = -np.add.reduceat(cdf, roots, axis=1)[:, :-1]
    np.cumsum(cdf, axis=1, out=cdf)
    # each root's CDF: its a-link's step from the source's place in its own chain, or
    # its series value; pointer doubling then adds the CDFs of the roots up the path
    at_root = np.zeros((x.size, roots.size + 1))
    src = chains["a_from"]
    at_root[:, chains["a_roots"]] = cdf[:, src] - g[:, src] * chains["a_scale"]
    series = roots[chains["series"]]
    at_root[:, chains["series"]], terms = _series_cdf(a[series], b[series], x[:, None],
                                                      chains["log_peak"][series])
    chains["terms"] += int(terms.sum())
    for busy, parent in chains["jumps"]:
        at_root[:, busy] += at_root[:, parent]
    cdf += at_root[:, chains["chain"]]
    cdf[:, roots] = at_root[:, :-1]
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
    z = _ndtri(q)
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
        g = _ndtri(np.clip(err + q[act], 1e-300, 1.0 - 2.0**-53))
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


def _mixture_quantiles(weights, a, b, levels):
    """Quantiles of Beta mixtures that share one component table.

    Row r of ``weights`` mixes the components Beta(a, b); entry [r, j] of the
    result is that mixture's quantile at ``levels[j]``.  All quantiles are
    solved together by a safeguarded Newton method on the exact mixture CDF F
    (on the probit scale, ndtri(F(x)) = ndtri(q)), started from the
    moment-matched normal quantile.  Each step evaluates F and the mixture
    density for every unfinished quantile, with a series evaluation at the
    table's series roots only (see ``_chains``); a step that would leave the quantile's bracket
    bisects it instead (see ``_newton_quantiles`` for the lower tail).  A
    quantile is done once the chained F is within QUANTILE_TOL minus the chains'
    error bound of q, so that |F(x) - q| <= QUANTILE_TOL for the exact F.  Where
    no double meets that (F jumps across q between two adjacent doubles) or the
    step limit ends the search, the bracket end nearer to q is returned and a
    warning counts such quantiles.  Rows are solved in batches that bound the
    CDF matrix's size.  Returns the quantiles and the table's chains.
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
    return out, chains


def mixture_quantile(mix: BetaMixture, q: float) -> float:
    """Invert the mixture CDF: x with |F(x) - q| <= QUANTILE_TOL, where a double meets it."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    out, _ = _mixture_quantiles(np.asarray(mix.weights)[None, :], mix.a, mix.b, (q,))
    return float(out[0, 0])


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
    trimmed = CpLikelihoods(indices=logs.indices[:-1], log_l=logs.log_l[:-1])
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
    grid = distinct_sorted(process.W) if grid is None else np.asarray(grid, dtype=np.int64)

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
    counts = np.zeros(5, dtype=np.int64)

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
        cuts = distinct_sorted(np.sort(np.concatenate([pairs["CL"], pairs["CR"]])))
        _, first, block = np.unique(
            np.searchsorted(cuts, t_of_grid[sel]), return_index=True, return_inverse=True
        )
        ab = pairs["comp_ab"]
        weights = _block_weights(pairs, t_of_grid[sel[first]])
        bounds, chains = _mixture_quantiles(weights, ab[:, 0], ab[:, 1], (q_lo, q_hi))
        lower[sel] = bounds[block, 0]
        upper[sel] = bounds[block, 1]
        counts += (ab.shape[0], chains["b_links"], chains["a_links"], chains["series"].size,
                   chains["terms"])

    log.debug("credible band: %d components, %d b-links, %d a-links, %d series roots, "
              "%d series terms", *counts)
    return PosteriorBand(grid=grid, lower=lower, upper=upper, point_est=point)
