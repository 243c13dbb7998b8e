import logging
import math
import statistics

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import beta as beta_dist

from seqscan import (
    BetaMixture,
    CpLikelihoods,
    InputError,
    ci_band,
    cp_likelihoods,
    mixture_quantile,
    posterior_at,
    posterior_weights,
)
from seqscan import betacdf, posterior
from seqscan.posterior import _boundary_posterior
from seqscan.process import segment_bounds

from conftest import bernoulli_process, proc_from_z


def direct_l(Z, i, alpha, beta):
    """L at split i via direct Beta-function products (independent route)."""
    m = len(Z)
    s_i = sum(Z[:i])
    s_m = sum(Z)

    def B(a, b):
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)

    return (
        B(alpha + s_i, beta + i - s_i)
        * B(alpha + s_m - s_i, beta + m - i - s_m + s_i)
        / B(alpha, beta) ** 2
    )


class TestCpLikelihoods:
    def test_m2_example(self):
        p = proc_from_z([1, 0])
        logs = cp_likelihoods(p, 1.0, 1.0)
        L = np.exp(logs.log_l)
        assert L[0] == pytest.approx(0.25, abs=1e-12)
        assert L[1] == pytest.approx(1 / 6, abs=1e-12)
        # posterior change-point probability
        assert L[0] / L.sum() == pytest.approx(0.6, abs=1e-12)

    def test_m1_single_integral(self):
        logs = cp_likelihoods(proc_from_z([1]), 1.0, 1.0)
        assert np.exp(logs.log_l[0]) == pytest.approx(0.5, abs=1e-12)

    def test_matches_direct_beta_products(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(1, 21))
            Z = rng.integers(0, 2, m).tolist()
            alpha, beta = rng.uniform(0.5, 3.0, 2)
            logs = cp_likelihoods(proc_from_z(Z), alpha, beta)
            for k, i in enumerate(logs.indices):
                expect = direct_l(Z, int(i), alpha, beta)
                assert np.exp(logs.log_l[k]) == pytest.approx(expect, rel=1e-9)

    def test_constant_labels_maximized_at_boundary(self):
        logs = cp_likelihoods(proc_from_z([1] * 30), 1.0, 1.0)
        assert logs.tau_hat in (logs.indices[0], logs.indices[-1])

    def test_bad_prior(self):
        with pytest.raises(InputError):
            cp_likelihoods(proc_from_z([1, 0]), 0.0, 1.0)

    @pytest.mark.parametrize("alpha,beta", [(-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                                            (1.0, math.nan), (1.0, math.inf)])
    def test_prior_must_be_finite_and_positive(self, alpha, beta):
        with pytest.raises(InputError, match="finite and positive"):
            cp_likelihoods(proc_from_z([1, 0, 1]), alpha, beta)


class TestPosteriorWeights:
    def test_argmax_survives_with_unit_ratio(self):
        p = bernoulli_process(0.5, 50, seed=0)
        tw = posterior_weights(cp_likelihoods(p, 1, 1), 1e-4)
        logs = cp_likelihoods(p, 1, 1)
        assert logs.tau_hat in tw.indices
        assert tw.ratios.max() == 1.0
        assert tw.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_m2_normalized(self):
        tw = posterior_weights(cp_likelihoods(proc_from_z([1, 0]), 1, 1), 1e-4)
        assert tw.weights.tolist() == pytest.approx([0.6, 0.4], abs=1e-12)

    def test_sharp_change_point_small_support(self):
        rng = np.random.default_rng(2)
        p_vec = np.where(np.arange(1000) < 500, 0.05, 0.95)
        proc = proc_from_z((rng.random(1000) < p_vec).astype(int))
        tw = posterior_weights(cp_likelihoods(proc, 1, 1), 1e-4)
        assert tw.indices.max() - tw.indices.min() <= 50

    def test_shrinking_epsilon_weakly_enlarges_support(self):
        p = bernoulli_process(0.5, 200, seed=4)
        logs = cp_likelihoods(p, 1, 1)
        big = posterior_weights(logs, 1e-2)
        small = posterior_weights(logs, 1e-6)
        assert set(big.indices.tolist()) <= set(small.indices.tolist())

    def test_bad_epsilon(self):
        with pytest.raises(InputError):
            posterior_weights(cp_likelihoods(proc_from_z([1, 0]), 1, 1), 0.0)


class TestPosteriorAt:
    def test_single_survivor_exact_beta(self):
        p = proc_from_z([1, 1, 1, 0])
        logs = cp_likelihoods(p, 1, 1)
        tw = posterior_weights(logs, 1e-4)
        keep = tw.indices == 3
        if keep.any():
            one = type(tw)(indices=tw.indices[keep], weights=np.ones(1), ratios=np.ones(1))
            mix = posterior_at(2, one, p, 1.0, 1.0)
            # split at 3: first regime holds reads 1..3 with S_3 = 3
            assert mix.a.tolist() == [4.0] and mix.b.tolist() == [1.0]

    def test_m2_mixture(self):
        p = proc_from_z([1, 0])
        tw = posterior_weights(cp_likelihoods(p, 1, 1), 1e-4)
        mix = posterior_at(1, tw, p, 1.0, 1.0)
        assert mix.weights.tolist() == pytest.approx([0.6, 0.4])
        assert list(zip(mix.a, mix.b)) == [(2.0, 1.0), (2.0, 2.0)]

    def test_mean_convexity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = bernoulli_process(0.5, 60, seed=int(rng.integers(10**6)))
            tw = posterior_weights(cp_likelihoods(p, 1, 1), 1e-4)
            mix = posterior_at(30, tw, p, 1.0, 1.0)
            means = mix.a / (mix.a + mix.b)
            assert means.min() - 1e-12 <= mix.mean() <= means.max() + 1e-12


class TestMixtureQuantile:
    def test_uniform_median(self):
        mix = BetaMixture(weights=np.ones(1), a=np.ones(1), b=np.ones(1))
        assert mixture_quantile(mix, 0.5) == pytest.approx(0.5, abs=1e-7)

    def test_beta21_closed_form(self):
        mix = BetaMixture(weights=np.ones(1), a=np.array([2.0]), b=np.ones(1))
        assert mixture_quantile(mix, 0.25) == pytest.approx(0.5, abs=1e-7)

    def test_monotone_in_q(self):
        mix = BetaMixture(
            weights=np.array([0.3, 0.7]), a=np.array([2.0, 8.0]), b=np.array([5.0, 3.0])
        )
        qs = [mixture_quantile(mix, q) for q in (0.05, 0.25, 0.5, 0.75, 0.95)]
        assert qs == sorted(qs)
        assert mix.cdf(qs[2]) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize(
        "a,b", [(1.0, 1.0), (2.0, 1.0), (0.5, 0.5), (5.0, 40.0), (500.0, 700.0), (3000.0, 20.0),
                (1.0, 5e5)],
    )
    def test_single_component_matches_beta_ppf(self, a, b):
        mix = BetaMixture(weights=np.ones(1), a=np.array([a]), b=np.array([b]))
        for q in (0.025, 0.5, 0.975):
            x = mixture_quantile(mix, q)
            ref = beta_dist.ppf(q, a, b)
            assert abs(beta_dist.cdf(x, a, b) - q) <= 1e-8
            # |F(x) - q| <= 1e-8 pins x to within about 1e-8 / density of the exact quantile
            assert x == pytest.approx(ref, rel=0, abs=2e-8 / beta_dist.pdf(ref, a, b))

    @pytest.mark.parametrize(
        "a,b,q", [(0.05, 3.0, 0.025), (0.01, 0.01, 0.025), (0.02, 50.0, 0.5), (0.001, 1.0, 0.5)],
    )
    def test_lower_tail_quantile_matches_beta_ppf(self, a, b, q, caplog, monkeypatch):
        # quantiles from 1e-17 down to 1e-301: far below any absolute bracket width
        steps = []
        series_cdf = posterior._series_cdf

        def counted_series_cdf(*args):
            steps.append(args)
            return series_cdf(*args)

        # the solver looks the series up in the module on each step
        monkeypatch.setattr(posterior, "_series_cdf", counted_series_cdf)
        mix = BetaMixture(weights=np.ones(1), a=np.array([a]), b=np.array([b]))
        with caplog.at_level(logging.WARNING, logger="seqscan.posterior"):
            x = mixture_quantile(mix, q)
        # log-scale bisection: a few dozen steps, not one per binade below the start
        assert 0 < len(steps) <= 60
        ref = beta_dist.ppf(q, a, b)
        assert abs(beta_dist.cdf(x, a, b) - q) <= 1e-8
        assert x == pytest.approx(ref, rel=0, abs=2e-8 / beta_dist.pdf(ref, a, b))
        assert not caplog.records

    def test_quantile_between_adjacent_doubles_warns(self, caplog):
        # Beta(0.01, 0.01) at 0.975: F jumps from below 0.975 to 1 between the two
        # largest doubles in [0, 1], so no double meets the tolerance
        mix = BetaMixture(weights=np.ones(1), a=np.array([0.01]), b=np.array([0.01]))
        assert 0.975 - mix.cdf(np.nextafter(1.0, 0.0)) > 1e-8
        with caplog.at_level(logging.WARNING, logger="seqscan.posterior"):
            x = mixture_quantile(mix, 0.975)
        assert x == 1.0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and warnings[0].startswith("1 of 1 mixture quantiles")

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            BetaMixture(weights=np.array([0.5, 0.4]), a=np.ones(2), b=np.ones(2))
        with pytest.raises(ValueError):
            BetaMixture(weights=np.array([1.0]), a=np.array([0.0]), b=np.ones(1))

    @pytest.mark.parametrize("weights,a,b", [
        ([math.nan], [1.0], [1.0]), ([0.5, math.nan], [1.0, 2.0], [1.0, 2.0]),
        ([1.0], [math.nan], [1.0]), ([1.0], [1.0], [math.nan]),
        ([1.0], [math.inf], [1.0]), ([1.0], [1.0], [math.inf]),
    ])
    def test_non_finite_mixture_rejected(self, weights, a, b):
        with pytest.raises(ValueError):
            BetaMixture(weights=np.array(weights), a=np.array(a), b=np.array(b))


EPS = np.finfo(float).eps


def mp_beta_cdf(a, b, x):
    """I_x(a, b) to 40 digits.

    mpmath's betainc gives up on shapes near 10^7; there the series of DLMF 8.17.8
    below the mean, summed to 40 digits, takes over.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, b, x = mpmath.mpf(float(a)), mpmath.mpf(float(b)), mpmath.mpf(float(x))
        try:
            return float(mpmath.betainc(a, b, 0, x, regularized=True))
        except (mpmath.libmp.libhyper.NoConvergence, ValueError):
            pass
        flip = x > a / (a + b)
        if flip:
            a, b, x = b, a, 1 - x
        v = (mpmath.exp(a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(mpmath.beta(a, b)))
             / a * mpmath.hyp2f1(a + b, 1, a + 1, x, maxterms=10**6))
        return float(1 - v if flip else v)


class TestSpecialFunctions:
    def test_lgamma_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3)
        z = np.concatenate([np.exp(rng.uniform(np.log(1e-300), np.log(1e9), 400)),
                            rng.uniform(0.5, 30.0, 200), [1.0, 2.0, 14.999999, 15.0, 0.5, 1e9]])
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.loggamma(float(v))) for v in z])
        err = np.abs(betacdf._lgamma(z) - ref)
        assert (err <= 64 * EPS * np.maximum(1.0, np.abs(ref))).all(), z[err.argmax()]

    def test_log_beta_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(4)
        a = np.concatenate([np.exp(rng.uniform(np.log(1e-3), np.log(1e9), 300)),
                            [0.5, 1.0, 1e5, 1e7, 1e9, 3.0]])
        b = np.concatenate([np.exp(rng.uniform(np.log(1e-3), np.log(1e9), 300)),
                            [0.5, 1.0, 1e5, 1e7, 1.0, 1e-3]])
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.log(mpmath.beta(float(x), float(y))))
                            for x, y in zip(a, b)])
        err = np.abs(betacdf._log_beta(a, b) - ref)
        # a difference of log-gamma values would be off by about eps log Gamma(a + b)
        assert (err <= 64 * EPS * np.maximum(1.0, np.abs(ref))).all(), (a[err.argmax()],
                                                                         b[err.argmax()])

    def test_ndtri_matches_scipy_and_python(self):
        rng = np.random.default_rng(5)
        p = np.concatenate([np.exp(rng.uniform(np.log(1e-300), 0.0, 4000)),
                            rng.uniform(0.0, 1.0, 4000),
                            1.0 - np.exp(rng.uniform(np.log(2.0**-53), 0.0, 4000)),
                            [1e-300, 0.5, 0.075, 0.925, 0.025, 0.975, 1.0 - 2.0**-53]])
        p = p[(p >= 1e-300) & (p <= 1.0 - 2.0**-53)]
        ours = betacdf._ndtri(p)
        ref = scipy.special.ndtri(p)
        assert (np.abs(ours - ref) <= 8 * np.spacing(np.abs(ref))).all()
        # the same arithmetic as Python's statistics.NormalDist.inv_cdf
        normal = statistics.NormalDist()
        assert ours[::40].tolist() == [normal.inv_cdf(v) for v in p[::40].tolist()]

    @pytest.mark.parametrize("a,b,x", [
        (0.01, 0.01, 1.0 - 1e-9), (0.01, 0.01, 1.0 - 2.0**-53), (0.01, 0.01, 0.5),
        (0.001, 1.0, 1e-300), (0.5, 0.5, 1.0 - 2.0**-53), (0.5, 0.5, 1.0 - 1e-9),
        (0.5, 0.5, 1e-9), (1e7, 1e7, 0.5), (1e7, 1e7, 0.5001), (1.0, 5e5, 7e-6),
        (3000.0, 20.0, 0.99), (2.5, 0.01, 0.5), (20.5, 19.5, 0.45), (1e5 + 0.5, 3.0, 0.99997),
    ])
    def test_series_matches_mpmath(self, a, b, x):
        exact = mp_beta_cdf(a, b, x)
        got = betacdf._series_cdf(np.array([a]), np.array([b]), x)[0][0]
        assert abs(got - exact) <= betacdf._series_error(np.array([a]), np.array([b]))

    def test_series_matches_betainc_on_random_shapes(self):
        rng = np.random.default_rng(6)
        a = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 3000))
        b = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 3000))
        x = rng.uniform(0.0, 1.0, 3000)
        x[::3] = scipy.special.betaincinv(a[::3], b[::3], rng.uniform(0.0, 1.0, 1000))
        cdf = betacdf._series_cdf(a, b, x)[0]
        # where betainc disagrees by more than 1e-14, 40 digits decide
        for i in np.flatnonzero(np.abs(cdf - betainc(a, b, x)) > 1e-14):
            assert abs(cdf[i] - mp_beta_cdf(a[i], b[i], x[i])) <= (
                betacdf._series_error(a[i : i + 1], b[i : i + 1])), (a[i], b[i], x[i])


PRIOR_SHAPES = [0.01, 0.5, 1.0, 3.0]


@st.composite
def chained_tables(draw):
    """Beta(alpha + cases, beta + controls) tables with b- and a-links, runs in any order.

    A block of 1-5 consecutive case counts, each with a run of up to 150
    consecutive control counts starting near a shared one, plus up to two
    runs elsewhere.
    """
    alpha, beta = draw(st.sampled_from(PRIOR_SHAPES)), draw(st.sampled_from(PRIOR_SHAPES))
    cases0, controls0 = draw(st.integers(0, 10**5)), draw(st.integers(3, 10**5))
    runs = []
    for r in range(draw(st.integers(1, 5))):
        start = controls0 + draw(st.integers(-3, 3))
        runs.append([(cases0 + r, start + k) for k in range(draw(st.integers(1, 150)))])
    for _ in range(draw(st.integers(0, 2))):
        cases, controls = draw(st.integers(0, 10**5)), draw(st.integers(0, 10**5))
        runs.append([(cases, controls + k) for k in range(draw(st.integers(1, 40)))])
    cases, controls = np.array([pair for run in draw(st.permutations(runs)) for pair in run]).T
    return alpha + cases, beta + controls


@st.composite
def cdf_points(draw, a, b):
    """0, 1, the smallest and largest x that matter, drawn x and x near component means."""
    near = [a[j] / (a[j] + b[j]) * draw(st.floats(0.98, 1.02))
            for j in draw(st.lists(st.integers(0, a.size - 1), max_size=6))]
    drawn = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    return np.clip([0.0, 1.0, 1e-300, 1.0 - 2.0**-53, *near, *drawn], 0.0, 1.0)


def assert_within_bound(a, b, chains, x, cdf):
    """Every chained CDF is within the chains' bound of the exact one (betainc, else 40 digits)."""
    bound = chains["bound"]
    off = np.abs(cdf - betainc(a, b, x[:, None])) > bound
    for i, j in zip(*np.nonzero(off)):
        assert abs(cdf[i, j] - mp_beta_cdf(a[j], b[j], x[i])) <= bound, (a[j], b[j], x[i])


def chained_cdf(a, b, chains, x):
    """Every component's CDF at x from the parts ``_chained_cdf`` returns, and g.

    The series roots' CDFs come from ``_series_cdf``.
    """
    roots = chains["roots"][chains["series"]]
    at_series, _ = betacdf._series_cdf(a[roots], b[roots], x[:, None], chains["series_peak"])
    offsets, at_root, g = betacdf._chained_cdf(a, b, chains, x, at_series)
    chain = np.searchsorted(chains["roots"], np.arange(a.size), side="right") - 1
    return offsets + at_root[:, chain], g


class TestChainedCdf:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_chains_match_betainc_within_bound(self, data):
        a, b = data.draw(chained_tables())
        x = data.draw(cdf_points(a, b))
        chains = betacdf._chains(a, b)
        cdf, _ = chained_cdf(a, b, chains, x)
        # links whose error could exceed a tenth of the tolerance are not taken
        roots = chains["roots"][chains["series"]]
        assert chains["bound"] <= (4 * EPS * a.size + betacdf.QUANTILE_TOL / 10
                                   + betacdf._series_error(a[roots], b[roots]))
        assert chains["b_links"] + chains["a_links"] + chains["series"].size == a.size
        assert_within_bound(a, b, chains, x, cdf)

    def test_large_counts_keep_their_links(self):
        # a = b = 10^5: a log-beta as a difference of log-gamma values would be off by
        # 1e-10 here, enough to break every link; Stirling differences keep them
        cases, controls = np.meshgrid(np.arange(4), np.arange(60), indexing="ij")
        a = 1e5 + 1.0 + cases.ravel()
        b = 1e5 + 1.0 + controls.ravel() + 2 * cases.ravel()
        chains = betacdf._chains(a, b)
        assert chains["roots"].size < a.size / 2
        assert chains["series"].size == 1
        assert 0.0 < chains["bound"] < 1e-9
        x = np.array([0.4975, 0.4992, 0.5, 0.501, 0.503])
        cdf, _ = chained_cdf(a, b, chains, x)
        assert_within_bound(a, b, chains, x, cdf)
        for j in (0, 59, 130, 239):
            i = j % x.size
            assert abs(cdf[i, j] - mp_beta_cdf(a[j], b[j], x[i])) <= chains["bound"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.01, 1e5), st.floats(0.01, 1e5)), min_size=1,
                    max_size=40), st.data())
    def test_table_without_chains_is_betainc(self, shapes, data):
        # without links every CDF is the series' own, bit for bit
        a, b = np.array(shapes).T
        chains = betacdf._chains(a, b)
        assume(chains["series"].size == a.size)
        x = data.draw(cdf_points(a, b))
        cdf, _ = chained_cdf(a, b, chains, x)
        assert chains["b_links"] == chains["a_links"] == 0
        assert np.array_equal(cdf, betacdf._series_cdf(a, b, x[:, None])[0])

    @pytest.mark.parametrize("x", [1.0 - 2.0**-53, 1.0 - 1e-9, 1.0 - 1e-6, 0.75, 0.5, 1e-9,
                                   2.0**-53])
    def test_arcsine_cdf_matches_mpmath(self, x):
        # the series reflects Beta(1/2, 1/2) above x = 1/2, where 1 - x is exact: near 1
        # the CDF is good to an ulp (betainc was off by 2.8e-9 at 1 - 2**-53)
        exact = mp_beta_cdf(0.5, 0.5, x)
        tol = np.spacing(exact) if x > 1.0 - 1e-5 else 16 * EPS
        a, b = np.array([0.5, 0.5, 1.5, 2.5]), np.array([0.5, 1.5, 0.5, 0.5])
        chains = betacdf._chains(a, b)
        assert chains["series"].tolist() == [0] and chains["a_links"] == 2
        cdf, _ = chained_cdf(a, b, chains, np.array([x]))
        assert abs(cdf[0, 0] - exact) <= tol
        mix = BetaMixture(weights=np.array([1.0]), a=a[:1], b=b[:1])
        assert abs(mix.cdf(x) - exact) <= tol
        # the linked shapes, from one b-link and two a-links
        for j in (1, 2, 3):
            assert abs(cdf[0, j] - mp_beta_cdf(a[j], b[j], x)) <= chains["bound"]


class TestCiBand:
    def test_k0_exact_beta_and_constant(self):
        proc = bernoulli_process(0.5, 200, seed=3)
        band = ci_band(proc, [], level=0.95)
        a = 1 + proc.m1
        b = 1 + proc.m2
        assert np.allclose(band.lower, band.lower[0])
        assert band.lower[0] == pytest.approx(beta_dist.ppf(0.025, a, b), abs=1e-6)
        assert band.upper[0] == pytest.approx(beta_dist.ppf(0.975, a, b), abs=1e-6)
        assert np.allclose(band.point_est, proc.m1 / proc.m)

    def test_wider_near_change_point(self):
        rng = np.random.default_rng(1)
        p_vec = np.where(np.arange(1000) < 500, 0.2, 0.8)
        proc = proc_from_z((rng.random(1000) < p_vec).astype(int))
        band = ci_band(proc, [501], level=0.95)
        width = band.upper - band.lower
        # positions 5 reads from the boundary vs segment midpoints
        assert width[495] > width[250]
        assert width[505] > width[750]

    def test_lower_le_upper_everywhere(self):
        for seed in range(5):
            proc = bernoulli_process(0.6, 400, seed)
            taus = [150, 300] if seed % 2 else []
            band = ci_band(proc, taus, level=0.9)
            assert (band.lower <= band.upper).all()
            assert (band.lower >= 0).all() and (band.upper <= 1).all()

    def test_custom_grid(self):
        proc = bernoulli_process(0.5, 100, seed=9)
        grid = np.array([proc.W[0], proc.W[49], proc.W[-1]])
        band = ci_band(proc, [], grid=grid)
        assert band.grid.tolist() == grid.tolist()
        assert band.lower.size == 3
        assert ci_band(proc, [], grid=grid[:0]).lower.size == 0

    def test_grid_order_does_not_change_values(self):
        # blocks are inverted in position order whatever order the grid lists them in
        rng = np.random.default_rng(4)
        p_vec = np.where((np.arange(1000) >= 300) & (np.arange(1000) < 650), 0.8, 0.3)
        proc = proc_from_z((rng.random(1000) < p_vec).astype(int))
        grid = np.unique(proc.W)
        fwd = ci_band(proc, [301, 651], grid=grid)
        for order in (np.arange(grid.size)[::-1], rng.permutation(grid.size)):
            band = ci_band(proc, [301, 651], grid=grid[order])
            assert band.grid.tolist() == grid[order].tolist()
            for name in ("lower", "upper", "point_est"):
                assert np.allclose(getattr(band, name), getattr(fwd, name)[order], rtol=0,
                                   atol=1e-6)

    def test_level_validated(self):
        with pytest.raises(InputError):
            ci_band(bernoulli_process(0.5, 50, 0), [], level=1.5)

    @pytest.mark.parametrize("params", [
        {"alpha": 0.0}, {"alpha": -2.0}, {"alpha": math.inf}, {"beta": math.nan},
        {"beta": 0.0}, {"epsilon": 5.0}, {"epsilon": 0.0}, {"epsilon": 1.0},
        {"epsilon": math.nan},
    ])
    def test_band_parameters_validated(self, params):
        # checked before any boundary posterior: none is built without change points
        with pytest.raises(InputError):
            ci_band(bernoulli_process(0.5, 50, 0), [], **params)

    def test_one_debug_line_counts_the_links(self, caplog):
        rng = np.random.default_rng(8)
        p_vec = np.where((np.arange(3000) >= 1000) & (np.arange(3000) < 2000), 0.6, 0.4)
        proc = proc_from_z((rng.random(3000) < p_vec).astype(int))
        with caplog.at_level(logging.DEBUG, logger="seqscan.posterior"):
            ci_band(proc, [1001, 2001])
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("credible band:")]
        assert len(lines) == 1
        comps, b_links, a_links, series, terms = (int(w) for w in lines[0].split()
                                                  if w.isdigit())
        # every component is a link's or a series root's, and most are links
        assert comps == b_links + a_links + series
        assert a_links > 0 and series < comps / 10 and terms > 0


    def test_truncation_line_reports_the_dropped_mass(self, caplog):
        # the cap keeps each boundary's 100 heaviest candidates; the line reports the
        # largest and the summed share of epsilon-truncated posterior mass it cut
        rng = np.random.default_rng(11)
        p_vec = np.full(4000, 0.45)
        p_vec[1300:2600] = 0.55
        p_vec[2600:] = 0.48
        proc = proc_from_z((rng.random(4000) < p_vec).astype(int))
        taus = [1301, 2601]
        with caplog.at_level(logging.DEBUG, logger="seqscan.posterior"):
            ci_band(proc, taus, level=0.9)
        lines = [r.getMessage() for r in caplog.records
                 if "boundary posteriors" in r.getMessage()]
        assert len(lines) == 1
        segs = segment_bounds(taus, proc.m)
        dropped = []
        for (lo, _), (_, hi) in zip(segs, segs[1:]):
            idx, _, _, cut = _boundary_posterior(proc, lo, hi, 1.0, 1.0, 1e-4)
            logs = cp_likelihoods(proc, 1.0, 1.0, lo=lo, hi=hi)
            full = posterior_weights(CpLikelihoods(logs.indices[:-1], logs.log_l[:-1]), 1e-4)
            assert full.indices.size > idx.size == posterior.MAX_BOUNDARY_CANDIDATES
            dropped.append(full.weights[~np.isin(full.indices, idx)].sum())
            assert cut == pytest.approx(dropped[-1], rel=0, abs=1e-12)
        assert min(dropped) > 0
        assert lines[0].endswith(f"truncated 2 of 2 boundary posteriors, dropping at most "
                                 f"{max(dropped):.3g} of one posterior's mass and "
                                 f"{sum(dropped):.3g} summed over all")

    def test_solver_debug_line_matches_an_outside_count(self, caplog, monkeypatch):
        # the solver's own counts against wrappers of the two CDF routines it calls
        seen = dict.fromkeys(("series calls", "series evaluations", "chained passes",
                              "CDF entries"), 0)
        series_cdf, chained = posterior._series_cdf, posterior._chained_cdf

        def counted_series_cdf(a, b, x, peak=None):
            seen["series calls"] += 1
            seen["series evaluations"] += np.broadcast(a, b, x).size
            return series_cdf(a, b, x, peak)

        def counted_chained_cdf(a, b, chains, x, at_series):
            seen["chained passes"] += 1
            seen["CDF entries"] += x.size * a.size
            return chained(a, b, chains, x, at_series)

        monkeypatch.setattr(posterior, "_series_cdf", counted_series_cdf)
        monkeypatch.setattr(posterior, "_chained_cdf", counted_chained_cdf)
        rng = np.random.default_rng(8)
        p_vec = np.where((np.arange(3000) >= 1000) & (np.arange(3000) < 2000), 0.6, 0.4)
        proc = proc_from_z((rng.random(3000) < p_vec).astype(int))
        with caplog.at_level(logging.DEBUG, logger="seqscan.posterior"):
            band = ci_band(proc, [1001, 2001])
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("band solver:")]
        assert len(lines) == 1
        counts = {name: int(n) for n, name in
                  (part.split(" ", 1) for part in lines[0][len("band solver: "):].split(", "))}
        assert counts["steps"] == seen["series calls"] > 0
        for key in ("series evaluations", "chained passes", "CDF entries"):
            assert counts[key] == seen[key], key
        # two levels per block, each evaluated at least once
        blocks = np.unique(np.stack([band.lower, band.upper]), axis=1).shape[1]
        assert counts["quantile evaluations"] >= 2 * blocks
        assert 0 <= counts["bisections"] <= counts["quantile evaluations"]
        assert counts["missed quantiles"] == 0


def solver_tables():
    """Component tables of different kinds and sizes, as (weights, a, b)."""
    rng = np.random.default_rng(17)
    cases, controls = (v.ravel() for v in np.meshgrid(np.arange(6), np.arange(40),
                                                      indexing="ij"))
    lattice = (20.5 + cases, 30.5 + controls)  # half-prior shapes: non-integer, linked
    return [
        (np.ones((1, 1)), np.array([3.0]), np.array([40.0])),  # one component
        (rng.dirichlet(np.ones(cases.size), 5), *lattice),
        # without links: random non-integer shapes far apart, a bimodal mixture
        (rng.dirichlet(np.ones(12), 3), rng.uniform(0.5, 300.0, 12), rng.uniform(0.5, 300.0, 12)),
        # an integer lattice at larger counts, one row
        (rng.dirichlet(np.ones(200), 1), 400.0 + np.repeat(np.arange(5), 40),
         900.0 + np.tile(np.arange(40), 5)),
    ]


def solve_tables(tables, levels):
    built = [posterior._table(w, a, b) for w, a, b in tables]
    bounds, counts = posterior._quantiles(built, levels)
    return built, bounds, counts


def missed_by_scalar_cdf(built, bounds, levels):
    """Quantiles whose |F - q| exceeds 1e-8 by ``BetaMixture.cdf`` of their row."""
    missed = 0
    for table, bd in zip(built, bounds):
        for row, xs in zip(table["weights"], bd):
            keep = row > 0
            mix = BetaMixture(weights=row[keep] / row[keep].sum(), a=table["a"][keep],
                              b=table["b"][keep])
            missed += sum(abs(mix.cdf(x) - q) > 1e-8 for q, x in zip(levels, xs))
    return missed


def test_one_solve_meets_the_tolerance_on_every_table(monkeypatch):
    levels = (1e-6, 0.025, 0.5, 0.975)
    built, bounds, counts = solve_tables(solver_tables(), levels)
    assert [bd.shape for bd in bounds] == [(1, 4), (5, 4), (3, 4), (1, 4)]
    assert counts["steps"] > 0 and counts["chained passes"] >= counts["steps"]
    assert missed_by_scalar_cdf(built, bounds, levels) == counts["missed quantiles"] == 0
    # one point per chained pass and the narrowest series chunks change only the
    # rounding of F, so every quantile still meets the tolerance
    monkeypatch.setattr(posterior, "_BATCH_ENTRIES", 1)
    monkeypatch.setattr(betacdf, "_SERIES_ENTRIES", 1)
    built, again, counts_again = solve_tables(solver_tables(), levels)
    assert counts_again["chained passes"] > counts["chained passes"]
    assert missed_by_scalar_cdf(built, again, levels) == counts_again["missed quantiles"] == 0
    for bd, bd_again in zip(bounds, again):
        assert bd.shape == bd_again.shape


@st.composite
def labeled_reads(draw):
    """Labels, read positions with ties and up to three change points."""
    z = draw(st.lists(st.integers(0, 1), min_size=4, max_size=40))
    m = len(z)
    taus = sorted(draw(st.sets(st.integers(2, m - 1), max_size=3)))
    gaps = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    return proc_from_z(z, W=np.cumsum(gaps) + 1), taus


@settings(max_examples=40, deadline=None)
@given(labeled_reads(), st.sampled_from([0.5, 0.9, 0.95]))
def test_band_rows_ascend_within_unit_interval(case, level):
    # the point estimate is the segment's case fraction, not a posterior
    # quantity, so it may fall outside the band (all-control segment: 0 < lower)
    proc, taus = case
    band = ci_band(proc, taus, level=level)
    assert (np.diff(band.grid) > 0).all()
    assert ((0.0 <= band.lower) & (band.lower <= band.upper) & (band.upper <= 1.0)).all()
    assert ((0.0 <= band.point_est) & (band.point_est <= 1.0)).all()


def reference_pairs(reads, left, right, epsilon):
    """A segment's flanking boundary pairs, listed one by one: splits and weights.

    Every left split cl and right split cr of the boundary posteriors with
    cl < cr and joint likelihood ratio above epsilon, weighted by the product
    of their weights; the called boundaries alone if no pair qualifies.
    """
    _, start, end, _ = reads
    pairs = [(c_l, c_r, w_l * w_r)
             for c_l, w_l, r_l in zip(*left[:3]) for c_r, w_r, r_r in zip(*right[:3])
             if c_l < c_r and r_l * r_r > epsilon]
    cl, cr, w = (np.array(v) for v in zip(*(pairs or [(start - 1, end, 1.0)])))
    return cl, cr, w / w.sum()


def pair_shapes(proc, reads, pairs, alpha, beta):
    """Each pair's Beta shapes for the reads left of, inside and right of the segment.

    Returns (a, b), each with rows left, inside and right and one column per pair.
    """
    prev_start, _, _, next_end = reads
    cl, cr, _ = pairs
    lo = np.stack([np.full_like(cl, prev_start - 1), cl, cr])
    hi = np.stack([cl, cr, np.full_like(cr, next_end)])
    cases = proc.S[hi] - proc.S[lo]
    return alpha + cases, beta + (hi - lo - cases)


def reference_block_mixture(pairs, shapes, t):
    """Mixture at read t: each pair's component left of, inside or right of the segment."""
    cl, cr, w = pairs
    side = (t > cl).astype(int) + (t > cr)
    cols = np.arange(cl.size)
    ab, comp = np.unique(np.stack([shapes[0][side, cols], shapes[1][side, cols]], axis=1),
                         axis=0, return_inverse=True)
    return BetaMixture(weights=np.bincount(comp.ravel(), w), a=ab[:, 0], b=ab[:, 1])


def assert_band_bounds_meet_cdf_tolerance(proc, taus, level, epsilon, alpha, beta):
    """Check every band bound against its block's mixture with the scalar CDF.

    Returns the block count, the boundary posteriors and each segment's Beta
    shapes (see ``pair_shapes``).
    """
    band = ci_band(proc, taus, level=level, epsilon=epsilon, alpha=alpha, beta=beta)
    segs = segment_bounds(taus, proc.m)
    inner = [
        _boundary_posterior(proc, segs[k - 1][0], segs[k][1], alpha, beta, epsilon)
        for k in range(1, len(segs))
    ]
    # the chromosome ends: one certain candidate each
    ends = [(np.array([split]), np.ones(1), np.ones(1), False) for split in (0, proc.m)]
    boundaries = [ends[0], *inner, ends[1]]
    q_lo = (1.0 - level) / 2.0
    q_hi = 1.0 - q_lo
    blocks = 0
    segment_shapes = []
    for k, (start, end) in enumerate(segs):
        prev_start = segs[k - 1][0] if k else 1
        next_end = segs[k + 1][1] if k + 1 < len(segs) else proc.m
        reads = (prev_start, start, end, next_end)
        pairs = reference_pairs(reads, boundaries[k], boundaries[k + 1], epsilon)
        shapes = pair_shapes(proc, reads, pairs, alpha, beta)
        segment_shapes.append(shapes)
        seen = set()
        for t in range(start, end + 1):
            # the mixture depends on t only through which pairs t falls left or right of
            key = (int((pairs[0] >= t).sum()), int((pairs[1] < t).sum()))
            if key in seen:
                # rows of one block carry the block's bounds
                assert band.lower[t - 1] == band.lower[t - 2]
                assert band.upper[t - 1] == band.upper[t - 2]
                continue
            seen.add(key)
            mix = reference_block_mixture(pairs, shapes, t)
            assert abs(mix.cdf(band.lower[t - 1]) - q_lo) <= 1e-8, (k, t)
            assert abs(mix.cdf(band.upper[t - 1]) - q_hi) <= 1e-8, (k, t)
        assert len(seen) > 1
        blocks += len(seen)
    return blocks, inner, segment_shapes


def test_every_band_bound_meets_cdf_tolerance(caplog):
    # weak shifts leave every boundary posterior wider than the candidate cap
    rng = np.random.default_rng(11)
    p_vec = np.full(4000, 0.45)
    p_vec[1300:2600] = 0.55
    p_vec[2600:] = 0.48
    proc = proc_from_z((rng.random(4000) < p_vec).astype(int))
    with caplog.at_level(logging.DEBUG, logger="seqscan.posterior"):
        blocks, inner, _ = assert_band_bounds_meet_cdf_tolerance(
            proc, [1301, 2601], level=0.9, epsilon=1e-4, alpha=1.0, beta=1.0)
    assert all(truncated for *_, truncated in inner)
    assert "truncated 2 of 2 boundary posteriors" in caplog.text
    assert blocks > 50, blocks


def test_band_bounds_meet_cdf_tolerance_under_half_prior():
    # Beta(0.5, 0.5) priors give non-integer shapes, and the chains of each
    # segment's component table run through the band solver
    rng = np.random.default_rng(23)
    p_vec = np.full(5000, 0.4)
    p_vec[1000:2200] = 0.55
    p_vec[2200:3500] = 0.35
    p_vec[3500:] = 0.5
    proc = proc_from_z((rng.random(5000) < p_vec).astype(int))
    blocks, _, segment_shapes = assert_band_bounds_meet_cdf_tolerance(
        proc, [1001, 2201, 3501], level=0.95, epsilon=1e-4, alpha=0.5, beta=0.5)
    assert blocks > 50, blocks
    for a, b in segment_shapes:
        # the segment's distinct components
        ab = np.unique(np.stack([a.ravel(), b.ravel()], axis=1), axis=0)
        assert (ab % 1.0 == 0.5).all()
        chains = posterior._chains(ab[:, 0], ab[:, 1])
        # most components come from a link, not from betainc
        assert chains["roots"].size < ab.shape[0] / 2
        assert 0.0 < chains["bound"] < 1e-9


def test_inconsistent_boundary_posteriors_give_the_called_boundaries():
    # every left split lies at or right of every right split, so no pair is a
    # segment: the table falls back to the called boundaries, reads 20 and 40
    proc = bernoulli_process(0.4, 60, seed=5)
    S = proc.S
    left = (np.array([41, 45]), np.array([0.7, 0.3]), np.array([1.0, 0.4]))
    right = (np.array([30, 41]), np.array([0.5, 0.5]), np.array([1.0, 1.0]))
    t = np.arange(60, 0, -1)  # every read, in descending order
    rows, table = posterior._segment_table(S, (1, 21, 40, 60), left, right, 1.0, 2.0, 1e-4, t)
    assert rows.tolist() == ((t > 20).astype(int) + (t > 40)).tolist()
    # row r: one Beta posterior, of reads 1..20, 21..40 or 41..60
    for r, (lo, hi) in enumerate(((0, 20), (20, 40), (40, 60))):
        on = table["weights"][r] != 0
        assert table["weights"][r][on].tolist() == [1.0]
        cases = S[hi] - S[lo]
        assert (table["a"][on][0], table["b"][on][0]) == (1.0 + cases, 2.0 + hi - lo - cases)
