"""Change-point detection and credible bands for case/control read streams."""

import os

# OpenBLAS starts a thread per core when numpy loads, about 0.07 s of CPU per
# run on a 2-vCPU machine, and the package's matrix products are too small to
# gain from threads.  Set before numpy is first imported; a user's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .evaluate import MatchReport, match_changepoints, nearest_read_index
from .mbic import MbicCurve, log_glr_full, mbic, select_k
from .posterior import (
    BetaMixture,
    CpLikelihoods,
    PosteriorBand,
    TruncatedWeights,
    ci_band,
    cp_likelihoods,
    mixture_quantile,
    posterior_at,
    posterior_weights,
)
from .process import (
    CombinedProcess,
    GenomicSegment,
    InputError,
    ReadSet,
    merge_reads,
    relative_copy_number,
    to_genomic,
)
from .segment import (
    ChangePointSequence,
    ScanResult,
    ScanStep,
    cbs_segment,
    exhaustive_scan,
    iterative_grid_scan,
)
from .simulate import (
    GAIN,
    LOSS,
    IntensityFunction,
    SpikeInTruth,
    estimate_baseline,
    sample_nhpp,
    sine_baseline,
    spike_in,
)
from .stats import IntervalStat, StatKernel, glr, score

__version__ = "0.1.0"

__all__ = [
    "BetaMixture",
    "ChangePointSequence",
    "CombinedProcess",
    "CpLikelihoods",
    "GAIN",
    "GenomicSegment",
    "InputError",
    "IntensityFunction",
    "IntervalStat",
    "LOSS",
    "MatchReport",
    "MbicCurve",
    "PosteriorBand",
    "ReadSet",
    "ScanResult",
    "ScanStep",
    "SpikeInTruth",
    "StatKernel",
    "TruncatedWeights",
    "cbs_segment",
    "ci_band",
    "cp_likelihoods",
    "estimate_baseline",
    "exhaustive_scan",
    "glr",
    "iterative_grid_scan",
    "log_glr_full",
    "match_changepoints",
    "mbic",
    "merge_reads",
    "mixture_quantile",
    "nearest_read_index",
    "posterior_at",
    "posterior_weights",
    "relative_copy_number",
    "sample_nhpp",
    "score",
    "select_k",
    "sine_baseline",
    "spike_in",
    "to_genomic",
]
