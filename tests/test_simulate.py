import numpy as np
import pytest
from scipy.stats import chisquare

from seqscan import (
    GAIN,
    LOSS,
    InputError,
    IntensityFunction,
    ReadSet,
    estimate_baseline,
    merge_reads,
    sample_nhpp,
    sine_baseline,
    spike_in,
)


def flat_intensity(n_bins=10_000, rate=10.0, bin_width=1000):
    return IntensityFunction(origin=0, bin_width=bin_width, values=np.full(n_bins, rate))


class TestEstimateBaseline:
    def test_flat_rate_recovered_on_interior(self):
        rng = np.random.default_rng(0)
        reads = ReadSet(np.sort(rng.integers(0, 10_000_000, 100_000)), "chr1")
        base = estimate_baseline(reads, bin_width=1000, bandwidth=100.0)
        flat = 100_000 / 10_000
        interior = base.values[400:-400]
        assert np.abs(interior / flat - 1).max() < 0.10

    def test_total_mass_preserved(self):
        rng = np.random.default_rng(1)
        reads = ReadSet(np.sort(rng.integers(0, 10**6, 5000)), "chr1")
        base = estimate_baseline(reads, bin_width=1000, bandwidth=10.0)
        assert abs(base.total - 5000) / 5000 < 1e-3

    def test_single_read_bump(self):
        base = estimate_baseline(ReadSet(np.array([5000]), "chr1"), 1000, 10.0)
        assert base.total == pytest.approx(1.0)
        assert (base.values >= 0).all()

    def test_shift_covariance(self):
        rng = np.random.default_rng(2)
        pos = np.sort(rng.integers(0, 10**6, 20_000))
        a = estimate_baseline(ReadSet(pos, "chr1"), 1000, 20.0)
        b = estimate_baseline(ReadSet(pos + 7000, "chr1"), 1000, 20.0)
        assert b.origin - a.origin == 7000
        assert np.allclose(a.values, b.values)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            estimate_baseline(ReadSet(np.array([], dtype=np.int64), "chr1"), 1000, 10.0)

    @pytest.mark.parametrize("bandwidth", [200.0, 1e4, 1e9])
    def test_kernel_longer_than_counts_keeps_bin_count(self, bandwidth):
        # two reads per kb over 1 Mb: 1,000 bins; the 4-sigma kernel has 1,601 to
        # 8e9 + 1 taps, and from 1e4 on its half-width is capped at the 999 bins it reaches
        pos = np.arange(0, 1_000_000, 500)
        base = estimate_baseline(ReadSet(pos, "chr1"), 1000, bandwidth)
        assert base.values.size == 1000
        assert base.total == pytest.approx(2_000, rel=1e-12)
        assert (base.values > 0).all()


class TestSpikeIn:
    def test_multiplier_applied_inside_only(self):
        base = flat_intensity()
        spiked, truth = spike_in(base, 5, length_law=(2e5, 5e5), seed=1)
        ratio = spiked.values / base.values
        centers = base.origin + base.bin_width * (np.arange(base.values.size) + 0.5)
        inside = np.zeros(base.values.size, dtype=bool)
        for (s, e), mu in zip(truth.segments, truth.multipliers):
            sel = (centers >= s) & (centers < e)
            inside |= sel
            assert np.allclose(ratio[sel], mu)
        assert np.allclose(ratio[~inside], 1.0)

    def test_expected_probability_inside_gain(self):
        base = flat_intensity()
        spiked, truth = spike_in(base, 1, length_law=(3e6, 3e6), effects=[GAIN], seed=2)
        s, e = truth.segments[0]
        centers = base.origin + base.bin_width * (np.arange(base.values.size) + 0.5)
        sel = (centers >= s) & (centers < e)
        p_inside = spiked.values[sel] / (spiked.values[sel] + base.values[sel])
        assert np.allclose(p_inside, 1.5 / 2.5)

    def test_breakpoint_count(self):
        _, truth = spike_in(flat_intensity(), 7, length_law=(1e5, 2e5), seed=3)
        assert truth.breakpoints.size == 14
        assert truth.n_segments == 7

    def test_segments_disjoint_with_gap(self):
        _, truth = spike_in(
            flat_intensity(), 10, length_law=(1e5, 3e5), seed=4, min_gap_bp=50_000
        )
        segs = sorted(truth.segments)
        for (s1, e1), (s2, e2) in zip(segs, segs[1:]):
            assert s2 - e1 >= 50_000

    def test_multipliers_from_declared_set(self):
        _, truth = spike_in(flat_intensity(), 20, length_law=(1e5, 2e5), seed=5)
        assert set(truth.multipliers.tolist()) <= {GAIN, LOSS}

    def test_explicit_effects_and_laws(self):
        effects = [GAIN, LOSS, LOSS]
        laws = [(4e5, 4e5), (1e5, 1e5), (2e5, 2e5)]
        _, truth = spike_in(flat_intensity(), 3, effects=effects, length_laws=laws, seed=6)
        by_len = sorted(zip((e - s for s, e in truth.segments), truth.multipliers))
        assert [mu for _, mu in by_len] == [LOSS, LOSS, GAIN]

    def test_impossible_placement_raises(self):
        with pytest.raises(InputError):
            spike_in(flat_intensity(100), 50, length_law=(9e4, 9e4), seed=7)

    def test_layout_rejected_before_drawing_when_shortest_lengths_do_not_fit(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("spike_in drew random numbers for a layout that cannot fit")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(InputError, match="at least 10000000 bp in total"):
            spike_in(flat_intensity(), 100, length_law=(1e5, 2e5), min_gap_bp=1)

    def test_drawn_lengths_that_do_not_fit_raise(self):
        # the shortest lengths fit the 10 Mb span, lengths near the top of the range do not
        with pytest.raises(InputError, match="do not fit the span of 10000000 bp"):
            spike_in(flat_intensity(), 40, length_law=(1e5, 1e7), seed=1)

    def test_layout_without_slack_is_placed(self):
        # four 1 Mb segments and five 1.2 Mb gaps fill the 10 Mb span exactly
        _, truth = spike_in(flat_intensity(), 4, length_law=(1e6, 1e6), min_gap_bp=1_200_000)
        assert truth.segments == [(1_200_000 + k * 2_200_000, 2_200_000 + k * 2_200_000)
                                  for k in range(4)]

    def test_c7_geometry_is_placed(self):
        # the spike-in experiment of the acceptance suite: 3 gains and 47 losses
        # with 1.88 Mb around every segment, chromosome ends included, on 150 Mb
        span, gap = 150_000_000, 1_880_000
        effects = np.array([GAIN] * 3 + [LOSS] * 47)
        np.random.default_rng(0).shuffle(effects)
        law_of = {GAIN: (1.6e6, 1.9e6), LOSS: (8.8e5, 9.8e5)}
        laws = [law_of[mu] for mu in effects]
        base = sine_baseline(span_bp=span, bin_width=1000, depth=0.12)
        for seed in range(3):
            _, truth = spike_in(base, 50, effects=effects, length_laws=laws, seed=seed,
                                min_gap_bp=gap)
            assert truth.n_segments == 50
            assert sorted(truth.multipliers.tolist()) == sorted(effects.tolist())
            edges = [0] + truth.breakpoints.tolist() + [span]
            assert np.all(np.diff(edges)[::2] >= gap)
            for (s, e), mu in zip(truth.segments, truth.multipliers):
                lo, hi = law_of[mu]
                assert round(lo) <= e - s <= round(hi)

    def test_single_segment_start_fills_every_decile(self):
        # bound stated before counting: the start of a 300 kb segment on a 1 Mb span is
        # uniform over the 700,001 starts that fit, so each tenth of that range holds
        # 200 of 2,000 seeds on average (sd 13.4); every decile must hold 140 to 260
        base = flat_intensity(n_bins=1000)
        starts = [spike_in(base, 1, length_law=(3e5, 3e5), seed=seed)[1].segments[0][0]
                  for seed in range(2000)]
        assert min(starts) >= 0 and max(starts) <= 700_000
        counts = np.bincount(np.minimum(np.array(starts) * 10 // 700_001, 9), minlength=10)
        assert counts.min() >= 140 and counts.max() <= 260, counts

    def test_segments_sorted_and_breakpoints_aligned(self):
        _, truth = spike_in(flat_intensity(), 12, length_law=(1e5, 4e5), seed=9,
                            min_gap_bp=10_000)
        assert truth.breakpoints.tolist() == [b for seg in truth.segments for b in seg]
        assert np.all(np.diff(truth.breakpoints) > 0)


class TestSampleNhpp:
    def test_zero_intensity_empty(self):
        reads = sample_nhpp(IntensityFunction(0, 1000, np.zeros(10)), 100, seed=1)
        assert len(reads) == 0

    def test_total_count_concentration(self):
        reads = sample_nhpp(flat_intensity(), 100_000, seed=2)
        assert abs(len(reads) - 100_000) < 4 * np.sqrt(100_000)

    def test_chi_square_goodness_of_fit(self):
        base = flat_intensity(n_bins=4000, rate=25.0)
        reads = sample_nhpp(base, 100_000, seed=3)
        counts = np.bincount(reads.positions // 40_000, minlength=100)[:100]
        _, p = chisquare(counts)
        assert p > 0.001

    def test_deterministic(self):
        base = sine_baseline(span_bp=10**6, bin_width=1000)
        a = sample_nhpp(base, 5000, seed=11)
        b = sample_nhpp(base, 5000, seed=11)
        c = sample_nhpp(base, 5000, seed=12)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)

    def test_positions_sorted_within_domain(self):
        base = sine_baseline(span_bp=10**6, bin_width=500)
        reads = sample_nhpp(base, 3000, seed=4)
        assert np.all(np.diff(reads.positions) >= 0)
        assert reads.positions.min() >= base.origin
        assert reads.positions.max() < base.end


class TestModelConsistency:
    def test_thinning_gain_fraction(self):
        # equal case/control totals, balanced gain/loss mass: p inside a gain -> 0.6
        base = sine_baseline(span_bp=int(6e7), bin_width=1000, depth=0.2)
        effects = [GAIN, LOSS] * 5
        spiked, truth = spike_in(
            base, 10, length_law=(2e6, 2e6), effects=effects, seed=8, min_gap_bp=10**6
        )
        case = sample_nhpp(spiked, 200_000, seed=9)
        ctrl = sample_nhpp(base, 200_000, seed=10)
        proc = merge_reads(case, ctrl)
        for (s, e), mu in zip(truth.segments, truth.multipliers):
            if mu != GAIN:
                continue
            lo = np.searchsorted(proc.W, s)
            hi = np.searchsorted(proc.W, e)
            assert hi - lo >= 5000
            p_hat = proc.Z[lo:hi].mean()
            assert abs(p_hat - 0.6) < 0.03

    def test_inhomogeneity_cancels_outside_spikes(self):
        base = sine_baseline(span_bp=int(2e7), bin_width=1000, depth=0.5)
        case = sample_nhpp(base, 80_000, seed=20)
        ctrl = sample_nhpp(base, 80_000, seed=21)
        proc = merge_reads(case, ctrl)
        overall = proc.m1 / proc.m
        # windowed case fraction stays near the global fraction despite the sine
        for lo in range(0, proc.m - 20_000, 20_000):
            assert abs(proc.Z[lo : lo + 20_000].mean() - overall) < 0.025
