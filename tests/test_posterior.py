import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import beta as beta_dist

from seqscan import (
    BetaMixture,
    InputError,
    ci_band,
    cp_likelihoods,
    mixture_quantile,
    posterior_at,
    posterior_weights,
)
from seqscan import posterior
from seqscan.posterior import _boundary_posterior, _segment_mixture_pairs
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

        def counted_betainc(*args):
            steps.append(args)
            return betainc(*args)

        monkeypatch.setattr(posterior, "betainc", counted_betainc)
        mix = BetaMixture(weights=np.ones(1), a=np.array([a]), b=np.array([b]))
        with caplog.at_level(logging.WARNING, logger="seqscan.posterior"):
            x = mixture_quantile(mix, q)
        # log-scale bisection: a few dozen steps, not one per binade below the start
        assert len(steps) <= 60
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


PRIOR_SHAPES = [0.01, 0.5, 1.0, 3.0]


@st.composite
def chained_tables(draw):
    """Beta(alpha + cases, beta + controls) tables made of 1-4 runs of 1-300 links each."""
    alpha, beta = draw(st.sampled_from(PRIOR_SHAPES)), draw(st.sampled_from(PRIOR_SHAPES))
    a, b = [], []
    for _ in range(draw(st.integers(1, 4))):
        cases, controls = draw(st.integers(0, 10**5)), draw(st.integers(0, 10**5))
        length = draw(st.integers(1, 300))
        a += [alpha + cases] * length
        b += [beta + controls + k for k in range(length)]
    return np.array(a), np.array(b)


@st.composite
def cdf_points(draw, a, b):
    """0, 1, the smallest and largest x that matter, drawn x and x near component means."""
    near = [a[j] / (a[j] + b[j]) * draw(st.floats(0.98, 1.02))
            for j in draw(st.lists(st.integers(0, a.size - 1), max_size=6))]
    drawn = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    return np.clip([0.0, 1.0, 1e-300, 1.0 - 2.0**-53, *near, *drawn], 0.0, 1.0)


class TestChainedCdf:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_chains_match_betainc_within_bound(self, data):
        a, b = data.draw(chained_tables())
        x = data.draw(cdf_points(a, b))
        chains = posterior._chains(a, b)
        cdf, _ = posterior._chained_cdf(a, b, chains, x)
        bound = chains["bound"]
        # links whose error could exceed a tenth of the tolerance are not taken
        assert bound <= 4 * np.finfo(float).eps * a.size + posterior.QUANTILE_TOL / 10
        off = np.abs(cdf - betainc(a, b, x[:, None])) > bound
        # betainc is itself off by up to 3e-9 in places (Beta(0.5, 0.5) at 1 - 2**-53),
        # and a chain starts from its root's CDF.  Where the chain and betainc disagree
        # by more than the bound, 40 digits decide, allowing the root CDF's error
        if off.any():
            mpmath = pytest.importorskip("mpmath")

            def exact(j, i):
                with mpmath.workdps(40):
                    return float(mpmath.betainc(a[j], b[j], 0, x[i], regularized=True))

            roots = chains["roots"]
            for i, j in zip(*np.nonzero(off)):
                r = roots[np.searchsorted(roots, j, side="right") - 1]
                root_err = abs(posterior._beta_cdf(a[r], b[r], x[i]) - exact(r, i))
                assert abs(cdf[i, j] - exact(j, i)) <= bound + root_err, (a[j], b[j], x[i])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.01, 1e5), st.floats(0.01, 1e5)), min_size=1,
                    max_size=40), st.data())
    def test_table_without_chains_is_betainc(self, shapes, data):
        a, b = np.array(shapes).T
        chains = posterior._chains(a, b)
        assume(chains["roots"].size == a.size)
        x = data.draw(cdf_points(a, b))
        cdf, _ = posterior._chained_cdf(a, b, chains, x)
        assert chains["bound"] == 0.0
        assert np.array_equal(cdf, posterior._beta_cdf(a, b, x[:, None]))

    @pytest.mark.parametrize("x", [1.0 - 2.0**-53, 1.0 - 1e-9, 1.0 - 1e-6, 0.75, 0.5, 1e-9,
                                   2.0**-53])
    def test_arcsine_cdf_matches_mpmath(self, x):
        # betainc(0.5, 0.5, x) is off by 2.8e-9 at x = 1 - 2**-53 and 1.1e-12 at 1 - 1e-9
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = float(mpmath.betainc(0.5, 0.5, 0, x, regularized=True))
        a, b = np.array([0.5, 0.5, 1.5, 2.5]), np.array([0.5, 1.5, 0.5, 0.5])
        cdf, _ = posterior._chained_cdf(a, b, posterior._chains(a, b), np.array([x]))
        assert abs(cdf[0, 0] - exact) <= np.spacing(exact)
        mix = BetaMixture(weights=np.array([1.0]), a=a[:1], b=b[:1])
        assert abs(mix.cdf(x) - exact) <= np.spacing(exact)
        # every other shape is betainc's, bit for bit
        assert np.array_equal(posterior._beta_cdf(a[1:], b[1:], x), betainc(a[1:], b[1:], x))


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

    def test_grid_order_does_not_change_values(self):
        # blocks are inverted in position order whatever order the grid lists them in
        rng = np.random.default_rng(4)
        p_vec = np.where((np.arange(1000) >= 300) & (np.arange(1000) < 650), 0.8, 0.3)
        proc = proc_from_z((rng.random(1000) < p_vec).astype(int))
        grid = np.unique(proc.W)
        fwd = ci_band(proc, [301, 651], grid=grid)
        rev = ci_band(proc, [301, 651], grid=grid[::-1])
        assert rev.grid.tolist() == grid[::-1].tolist()
        for name in ("lower", "upper", "point_est"):
            assert np.allclose(getattr(rev, name), getattr(fwd, name)[::-1], rtol=0, atol=1e-6)

    def test_level_validated(self):
        with pytest.raises(InputError):
            ci_band(bernoulli_process(0.5, 50, 0), [], level=1.5)


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


def reference_block_mixture(pairs, t):
    """Mixture at read t assembled pair by pair: left of, inside or right of the segment."""
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
    return BetaMixture(weights=w[keep] / w[keep].sum(), a=ab[:, 0], b=ab[:, 1])


def assert_band_bounds_meet_cdf_tolerance(proc, taus, level, epsilon, alpha, beta):
    """Check every band bound against its block's mixture with the scalar CDF.

    Returns the block count, the boundary posteriors and each segment's pairs.
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
    tables = []
    for k, (start, end) in enumerate(segs):
        prev_start = segs[k - 1][0] if k else 1
        next_end = segs[k + 1][1] if k + 1 < len(segs) else proc.m
        pairs = _segment_mixture_pairs(
            proc, (prev_start, start, end, next_end), boundaries[k], boundaries[k + 1],
            alpha, beta, epsilon,
        )
        tables.append(pairs)
        seen = set()
        for t in range(start, end + 1):
            # the mixture depends on t only through which pairs t falls left or right of
            key = (int((pairs["CL"] >= t).sum()), int((pairs["CR"] < t).sum()))
            if key in seen:
                # rows of one block carry the block's bounds
                assert band.lower[t - 1] == band.lower[t - 2]
                assert band.upper[t - 1] == band.upper[t - 2]
                continue
            seen.add(key)
            mix = reference_block_mixture(pairs, t)
            assert abs(mix.cdf(band.lower[t - 1]) - q_lo) <= 1e-8, (k, t)
            assert abs(mix.cdf(band.upper[t - 1]) - q_hi) <= 1e-8, (k, t)
        assert len(seen) > 1
        blocks += len(seen)
    return blocks, inner, tables


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
    blocks, _, tables = assert_band_bounds_meet_cdf_tolerance(
        proc, [1001, 2201, 3501], level=0.95, epsilon=1e-4, alpha=0.5, beta=0.5)
    assert blocks > 50, blocks
    for pairs in tables:
        ab = pairs["comp_ab"]
        assert (ab % 1.0 == 0.5).all()
        chains = posterior._chains(ab[:, 0], ab[:, 1])
        # most components come from a link, not from betainc
        assert chains["roots"].size < ab.shape[0] / 2
        assert 0.0 < chains["bound"] < 1e-9
