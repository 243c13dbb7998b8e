"""Spike-in simulation: baseline intensity estimation, gain/loss insertion,
and Poisson read sampling.

The control read density is estimated by kernel-smoothed binned counts; a
case intensity is built by multiplying the baseline inside randomly placed
disjoint segments (1.5 for a single-copy gain, 0.5 for a single-copy loss on
a diploid background); reads are drawn bin-by-bin as Poisson counts with
uniform positions inside each bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import InputError, ReadSet

GAIN = 1.5
LOSS = 0.5
# baselines hold one float per bin: more bins than this are refused before allocation
MAX_BINS = 10**8


@dataclass(frozen=True)
class IntensityFunction:
    """Piecewise-constant read intensity over fixed-width genomic bins."""

    origin: int
    bin_width: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if np.any(v < 0):
            raise ValueError("intensity values must be non-negative")
        object.__setattr__(self, "values", v)

    @property
    def total(self) -> float:
        return float(self.values.sum())

    @property
    def end(self) -> int:
        return self.origin + self.bin_width * self.values.size


@dataclass(frozen=True)
class SpikeInTruth:
    """True breakpoints and effects of the spiked segments."""

    breakpoints: np.ndarray  # sorted bp coordinates, two per segment
    segments: list[tuple[int, int]]  # [start_bp, end_bp) of each spiked segment
    multipliers: np.ndarray  # aligned with segments

    @property
    def n_segments(self) -> int:
        return len(self.segments)


def _gaussian_kernel(bandwidth: float, n_bins: int) -> np.ndarray:
    # truncated at 4 sigma, or where it would reach past every one of n_bins bins,
    # and renormalized so interior mass is preserved
    half = min(int(np.ceil(4.0 * bandwidth)), n_bins - 1)
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / bandwidth) ** 2)
    return k / k.sum()


def _check_bins(n_bins: int) -> int:
    if n_bins > MAX_BINS:
        raise InputError(f"the baseline would need {n_bins} bins, more than {MAX_BINS}")
    return n_bins


def estimate_baseline(control: ReadSet, bin_width: int = 1000, bandwidth: float = 10.0) -> IntensityFunction:
    """Kernel-smoothed binned read counts as a baseline intensity.

    ``bandwidth`` is the Gaussian standard deviation in bins.  The output is
    rescaled so its total mass equals the read count exactly.
    """
    if len(control) == 0:
        raise InputError("cannot estimate a baseline from an empty read set")
    if bin_width < 1:
        raise InputError("bin_width must be >= 1")
    if bandwidth <= 0:
        raise InputError("bandwidth must be positive")
    pos = control.positions
    origin = int(pos[0] // bin_width) * bin_width
    n_bins = _check_bins(int((pos[-1] - origin) // bin_width) + 1)
    counts = np.bincount((pos - origin) // bin_width, minlength=n_bins).astype(np.float64)
    kernel = _gaussian_kernel(bandwidth, n_bins)
    # the centered n_bins of the full convolution: mode="same" would return the
    # kernel's length when the kernel is the longer of the two
    half = kernel.size // 2
    smooth = np.convolve(counts, kernel)[half : half + n_bins]
    smooth *= counts.sum() / smooth.sum()
    return IntensityFunction(origin=origin, bin_width=bin_width, values=smooth)


def spike_in(
    baseline: IntensityFunction,
    n_segments: int,
    length_law: tuple[float, float] = (2e5, 5e5),
    multipliers=(GAIN, LOSS),
    seed: int = 0,
    effects=None,
    length_laws=None,
    min_gap_bp: int = 0,
):
    """Multiply the baseline inside disjoint random segments.

    Segment lengths are log-uniform over ``length_law`` (bp, rounded), or over
    one (lo, hi) per segment from ``length_laws``; effects are sampled from
    ``multipliers`` unless ``effects`` lists one per segment.  The segments
    are laid out in random order, and the span left beyond their lengths and
    ``min_gap_bp`` before, between and after them is split into those n + 1
    gaps by uniform spacings: every layout that fits can be drawn, none is
    retried.  A layout that does not fit raises ``InputError``, before any
    draw when even the shortest lengths do not.  Returns the case intensity
    and the ground truth.
    """
    if n_segments < 1:
        raise InputError("n_segments must be >= 1")
    if effects is not None and len(effects) != n_segments:
        raise InputError(f"effects must list {n_segments} multipliers")
    if length_laws is not None and len(length_laws) != n_segments:
        raise InputError(f"length_laws must list {n_segments} ranges")
    laws = np.asarray(length_law if length_laws is None else length_laws, dtype=np.float64)
    lo, hi = np.broadcast_to(laws, (n_segments, 2)).T
    if not np.all((1 <= lo) & (lo <= hi)):
        raise InputError(f"segment length ranges must satisfy 1 <= lo <= hi, got {laws.tolist()}")
    span = baseline.end - baseline.origin
    gap = int(min_gap_bp)

    def check_fits(total, qualifier=""):
        if total + (n_segments + 1) * gap > span:
            raise InputError(
                f"{n_segments} segments of {qualifier}{total:.0f} bp in total with "
                f"{n_segments + 1} gaps of {gap} bp do not fit the span of {span} bp"
            )

    check_fits(np.floor(lo).sum(), "at least ")
    rng = np.random.default_rng(seed)
    lengths = np.rint(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    check_fits(lengths.sum())
    lengths = lengths.astype(np.int64)
    mults = (np.asarray(effects, dtype=np.float64) if effects is not None
             else rng.choice(np.asarray(multipliers, dtype=np.float64), size=n_segments))
    order = rng.permutation(n_segments)
    lengths, mults = lengths[order], mults[order]
    # uniform spacings: normalized exponential draws split the slack into n + 1 gaps
    slack = span - int(lengths.sum()) - (n_segments + 1) * gap
    spacing = rng.standard_exponential(n_segments + 1).cumsum()
    before = np.floor(slack * (spacing[:-1] / spacing[-1])).astype(np.int64)
    starts = (baseline.origin + before + gap * np.arange(1, n_segments + 1)
              + np.cumsum(lengths) - lengths)
    ends = starts + lengths

    # every bin whose center lies in a segment takes that segment's effect
    values = baseline.values.copy()
    edges = baseline.origin + baseline.bin_width * np.arange(values.size + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    seg = np.searchsorted(starts, centers, side="right") - 1
    inside = (seg >= 0) & (centers < ends[seg])
    values[inside] *= mults[seg[inside]]

    segments = list(zip(starts.tolist(), ends.tolist()))
    breakpoints = np.stack([starts, ends], axis=1).ravel()
    truth = SpikeInTruth(breakpoints=breakpoints, segments=segments, multipliers=mults)
    return IntensityFunction(baseline.origin, baseline.bin_width, values), truth


def sample_nhpp(
    intensity: IntensityFunction, target_reads: int, seed: int = 0, chromosome: str = "chr1"
) -> ReadSet:
    """Draw read positions from the intensity, scaled to ``target_reads`` mass.

    Per-bin counts are independent Poisson draws; positions are uniform
    integers within their bin.  Identical seeds give identical reads.
    """
    if target_reads < 0:
        raise InputError("target_reads must be >= 0")
    rng = np.random.default_rng(seed)
    total = intensity.total
    if total == 0 or target_reads == 0:
        return ReadSet(positions=np.empty(0, dtype=np.int64), chromosome=chromosome)
    mass = intensity.values * (target_reads / total)
    counts = rng.poisson(mass)
    n = int(counts.sum())
    starts = np.repeat(
        intensity.origin + intensity.bin_width * np.arange(counts.size, dtype=np.int64), counts
    )
    offsets = rng.integers(0, intensity.bin_width, size=n)
    return ReadSet(positions=np.sort(starts + offsets), chromosome=chromosome)


def sine_baseline(
    span_bp: int = int(5e7),
    bin_width: int = 1000,
    period_bp: float = 2e6,
    depth: float = 0.5,
    origin: int = 0,
) -> IntensityFunction:
    """Synthetic inhomogeneous baseline: a sinusoid-modulated flat rate."""
    if not (0 <= depth < 1):
        raise InputError("modulation depth must be in [0, 1)")
    n_bins = _check_bins(span_bp // bin_width)
    centers = origin + bin_width * (np.arange(n_bins) + 0.5)
    values = 1.0 + depth * np.sin(2.0 * np.pi * centers / period_bp)
    return IntensityFunction(origin=origin, bin_width=bin_width, values=values)
