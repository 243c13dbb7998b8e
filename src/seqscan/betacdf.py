"""Beta CDFs in numpy, and the special functions they need.

Log-gamma and log-beta come from Stirling's series and Loader's (2000)
Stirling differences, the normal quantile from Wichura's AS241, and Beta
CDFs from hypergeometric series (``_series_cdf``) or, across a table of
components, from recurrences that link each component to a neighbour
(``_chains`` and ``_chained_cdf``).  The credible band (``posterior``) inverts
mixtures of these CDFs.
"""

from __future__ import annotations

import math

import numpy as np

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


# a quantile x of level q is done once the mixture CDF satisfies |F(x) - q| <= this
QUANTILE_TOL = 1e-8
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
_SERIES_ENTRIES = 1 << 16


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
    log B(a, b), the chain roots (each chain runs up to the next root), the
    a-links (roots, source components and factors 1 / (a - 1)), the series
    roots and their ``_log_peak``, the parent pointers that resolve root CDFs
    by pointer doubling, the error bound and the link counts.
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
        "log_norm": log_norm, "roots": roots, "a_roots": a_roots, "a_from": a_from,
        "a_scale": 1.0 / a[a_from], "series": series, "series_peak": log_peak[roots[series]],
        "jumps": jumps, "bound": bound,
        "b_links": int(b_link.sum()), "a_links": int(a_roots.size),
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


def _chained_cdf(a, b, chains, x, at_series):
    """Beta CDFs I_x(a, b) of every component at every x (rows), by chains, in two parts.

    ``at_series`` holds the CDFs of the table's series roots (columns) at every x
    (rows), from ``_series_cdf``; every other component adds one term to another's
    CDF.  Returns each component's distance from the CDF of its chain's root
    (columns), each chain root's CDF (columns), and g = x^a (1 - x)^b / B(a, b),
    which is x (1 - x) times each component's density.  Component j's CDF is
    its distance plus the CDF of the root at or before j.
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
    np.multiply(g[:, :-1], 1.0 / b[:-1], out=cdf[:, 1:])
    cdf[:, roots] = 0.0
    cdf[:, roots[1:]] = -np.add.reduceat(cdf, roots, axis=1)[:, :-1]
    np.cumsum(cdf, axis=1, out=cdf)
    # each root's CDF: its a-link's step from the source's place in its own chain, or
    # its series value; pointer doubling then adds the CDFs of the roots up the path
    at_root = np.zeros((x.size, roots.size + 1))
    src = chains["a_from"]
    at_root[:, chains["a_roots"]] = cdf[:, src] - g[:, src] * chains["a_scale"]
    at_root[:, chains["series"]] = at_series
    for busy, parent in chains["jumps"]:
        at_root[:, busy] += at_root[:, parent]
    return cdf, at_root[:, :-1], g
