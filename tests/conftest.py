import os
import warnings

import numpy as np
import pytest
from hypothesis import settings

from seqscan import CombinedProcess, ReadSet, merge_reads

# Hypothesis draws the same examples on every run by default, so two versions of
# the code meet the same inputs and a failure replays from its printed blob.
# HYPOTHESIS_PROFILE=explore searches fresh random examples instead.
settings.register_profile("default", derandomize=True, print_blob=True)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# On a failure hypothesis's pytest plugin imports its patch writer, whose libcst
# import raises a DeprecationWarning; under filterwarnings = error that aborts
# the whole session.  Importing it here first, quietly, keeps failures reportable.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def proc_from_z(Z, W=None, chromosome="chr1"):
    """CombinedProcess with the given labels at unit-spaced positions."""
    Z = np.asarray(Z, dtype=np.int8)
    if W is None:
        W = np.arange(1, Z.size + 1, dtype=np.int64)
    return CombinedProcess(W=np.asarray(W, dtype=np.int64), Z=Z, chromosome=chromosome)


def bernoulli_process(p, m, seed, W=None):
    """Labels drawn Bernoulli(p) per index; p may be a scalar or length-m array."""
    rng = np.random.default_rng(seed)
    Z = (rng.random(m) < np.broadcast_to(p, (m,))).astype(np.int8)
    return proc_from_z(Z, W=W)


@pytest.fixture
def small_block_process():
    """m=6 with a pure case block in the middle: Z = 0,0,1,1,0,0."""
    return proc_from_z([0, 0, 1, 1, 0, 0])
