"""End-to-end acceptance gate.

Each test exercises one contract of the pipeline at its stated tolerance and
prints a single pass/fail line.  The spike-in study (criterion 7) uses a
fixed desk-scale experiment: a sinusoid-modulated baseline over 150 Mb,
100k reads per sample, and 50 gain/loss segments placed with spacing floors
so that separate segments stay resolvable at this coverage.
"""

import functools
import math
import time

import numpy as np

import seqscan as sq

from conftest import bernoulli_process, proc_from_z
from test_mbic import mbic_reference


def report(name):
    """Print one pass/fail line for a criterion body."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{name}: FAIL")
                raise
            print(f"{name}: PASS")

        return run

    return wrap


@report("criterion 1 (statistic correctness)")
def test_c1_statistic_correctness():
    proc = proc_from_z([1, 1, 0, 0])
    assert abs(sq.glr(proc, 1, 2).lambda_ij - 4 * math.log(2)) <= 1e-10
    assert sq.score(proc, 1, 2).t_ij == 2.0


@report("criterion 2 (oracle equivalence, IGS G=2 vs exhaustive)")
def test_c2_oracle_equivalence():
    t0 = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(20, 301))
        Z = rng.integers(0, 2, m)
        if Z.sum() == 0:
            Z[0] = 1
        proc = proc_from_z(Z)
        for stat in ("score", "glr"):
            ex = sq.exhaustive_scan(proc, stat, 1, m)
            ig = sq.iterative_grid_scan(proc, stat, 1, m, grid_step=2)
            assert (ex.best.i, ex.best.j) == (ig.best.i, ig.best.j), (seed, stat)
    assert time.perf_counter() - t0 < 60.0


@report("criterion 3 (monotone-transform equivariance)")
def test_c3_equivariance():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = 400
        W = np.sort(rng.integers(1, 2_000_000, m)).astype(np.int64)
        p_vec = np.full(m, 0.4)
        s = int(rng.integers(50, 250))
        p_vec[s : s + 100] = 0.85
        Z = (rng.random(m) < p_vec).astype(np.int8)
        p1 = proc_from_z(Z, W=W)
        p2 = proc_from_z(Z, W=W**3 + 7)  # monotone strictly increasing
        seq1 = sq.cbs_segment(p1, "glr", 10, max_k=10)
        seq2 = sq.cbs_segment(p2, "glr", 10, max_k=10)
        assert seq1.insertion_order() == seq2.insertion_order()
        k1, curve1, taus1 = sq.select_k(p1, seq1)
        k2, curve2, taus2 = sq.select_k(p2, seq2)
        assert k1 == k2
        assert taus1 == taus2
        assert np.array_equal(curve1.values, curve2.values)


@report("criterion 4 (mBIC formula agreement)")
def test_c4_mbic_formula():
    proc100 = bernoulli_process(0.5, 100, seed=0)
    assert abs(sq.mbic(proc100, []) - 0.5 * math.log(100 / 99)) <= 1e-12
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(10, 300))
        Z = rng.integers(0, 2, m)
        k = int(rng.integers(0, min(8, m - 2)))
        taus = sorted(rng.choice(np.arange(2, m), size=k, replace=False).tolist())
        proc = proc_from_z(Z)
        assert abs(sq.mbic(proc, taus) - mbic_reference(Z, taus)) <= 1e-10


@report("criterion 5 (model-selection behavior)")
def test_c5_model_selection():
    zeros = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        Z = (rng.random(2000) < 0.5).astype(np.int8)
        proc = proc_from_z(Z)
        k_hat, _, _ = sq.select_k(proc, sq.cbs_segment(proc, "glr", 10, max_k=20))
        zeros += k_hat == 0
    assert zeros >= 90, f"noise K_hat=0 in only {zeros}/100"

    tens = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = 12_000
        p_vec = np.full(m, 0.5)
        for k in range(5):
            s = 1500 + k * 2200
            p_vec[s : s + 450] = 0.75
        Z = (rng.random(m) < p_vec).astype(np.int8)
        proc = proc_from_z(Z)
        k_hat, _, _ = sq.select_k(proc, sq.cbs_segment(proc, "glr", 10, max_k=20))
        tens += k_hat == 10
    assert tens >= 80, f"spiked K_hat=10 in only {tens}/100"


@report("criterion 6 (posterior correctness and band coverage)")
def test_c6_posterior():
    t0 = time.perf_counter()
    proc = proc_from_z([1, 0])
    L = np.exp(sq.cp_likelihoods(proc, 1.0, 1.0).log_l)
    assert abs(L[0] - 0.25) <= 1e-12
    assert abs(L[1] - 1 / 6) <= 1e-12
    assert abs(L[0] / L.sum() - 0.6) <= 1e-12

    cover = total = 0
    for stream in np.random.SeedSequence(0).spawn(200):
        rng = np.random.default_rng(stream)
        Z = (rng.random(2000) < 0.5).astype(np.int8)
        p = proc_from_z(Z)
        k_hat, _, taus = sq.select_k(p, sq.cbs_segment(p, "glr", 10, max_k=20))
        checks = np.arange(51, 1951, 100)
        keep = np.ones(checks.size, dtype=bool)
        for t in taus:
            keep &= np.abs(checks - t) >= 50
        checks = checks[keep]
        band = sq.ci_band(p, taus, level=0.95, grid=p.W[checks - 1])
        cover += int(((band.lower <= 0.5) & (0.5 <= band.upper)).sum())
        total += checks.size
    coverage = cover / total
    assert 0.92 <= coverage <= 0.98, f"coverage {coverage:.4f}"
    assert time.perf_counter() - t0 < 300.0


def _spaced_segments(rng, span, lens, gap_floor):
    """Disjoint segments with at least gap_floor bp between them."""
    slack = span - sum(lens) - (len(lens) + 1) * gap_floor
    assert slack > 0, "experiment geometry infeasible"
    w = rng.gamma(8.0, 1.0, len(lens) + 1)
    gaps = gap_floor + w / w.sum() * slack
    segs, pos = [], 0.0
    for k, length in enumerate(lens):
        pos += gaps[k]
        segs.append((int(pos), int(pos + length)))
        pos += length
    return segs


def _spike_in_replicate(seed, stat):
    """One desk-scale spike-in run; returns (recall, precision, min seg reads)."""
    span = int(1.5e8)
    streams = np.random.SeedSequence(seed).spawn(4)
    rng = np.random.default_rng(streams[0])
    baseline = sq.sine_baseline(span_bp=span, bin_width=1000, period_bp=2e6, depth=0.12)
    effects = np.array([sq.GAIN] * 3 + [sq.LOSS] * 47)
    rng.shuffle(effects)
    lens = [
        int(np.exp(rng.uniform(np.log(1.6e6), np.log(1.9e6))))
        if mu > 1
        else int(np.exp(rng.uniform(np.log(8.8e5), np.log(9.8e5))))
        for mu in effects
    ]
    segs = _spaced_segments(rng, span, lens, gap_floor=1.88e6)
    values = baseline.values.copy()
    centers = baseline.origin + baseline.bin_width * (np.arange(values.size) + 0.5)
    for (s, e), mu in zip(segs, effects):
        values[(centers >= s) & (centers < e)] *= mu
    case_intensity = sq.IntensityFunction(baseline.origin, baseline.bin_width, values)

    case = sq.sample_nhpp(case_intensity, 100_000, seed=streams[1])
    control = sq.sample_nhpp(baseline, 100_000, seed=streams[2])
    proc = sq.merge_reads(case, control)
    sequence = sq.cbs_segment(proc, stat, grid_step=10, max_k=170)
    _, _, taus = sq.select_k(proc, sequence)

    truth_idx = [sq.nearest_read_index(proc, bp) for bp in sorted(b for s in segs for b in s)]
    rep = sq.match_changepoints(taus, truth_idx, tolerance_reads=100)
    min_reads = min(
        sq.nearest_read_index(proc, e) - sq.nearest_read_index(proc, s) for s, e in segs
    )
    return rep.recall, rep.precision, min_reads


@report("criterion 7 (spike-in recall/precision)")
def test_c7_spike_in_end_to_end():
    t0 = time.perf_counter()
    for stat in ("glr", "score"):
        recalls, precisions = [], []
        for seed in range(10):
            r, p, min_reads = _spike_in_replicate(seed, stat)
            assert min_reads >= 500
            recalls.append(r)
            precisions.append(p)
        mean_r = float(np.mean(recalls))
        mean_p = float(np.mean(precisions))
        assert mean_r >= 0.90, f"{stat}: mean recall {mean_r:.3f}"
        assert mean_p >= 0.90, f"{stat}: mean precision {mean_p:.3f}"
    assert time.perf_counter() - t0 < 600.0


_SCALING_BENCH = """
import time
import numpy as np
import seqscan as sq

def build(m):
    # alternating strong gain/loss blocks: the greedy recursion splits the
    # same relative geometry at every size, so trajectories are comparable
    rng = np.random.default_rng(0)
    p_vec = np.full(m, 0.5)
    width = m // 40
    for k in range(8):
        s = int((k + 0.5) * m / 8)
        p_vec[s : s + width] = 0.8 if k % 2 == 0 else 0.2
    Z = (rng.random(m) < p_vec).astype(np.int8)
    return sq.CombinedProcess(W=np.arange(1, m + 1), Z=Z)

sizes = (100_000, 200_000, 400_000)
procs = {m: build(m) for m in sizes}
sq.cbs_segment(build(50_000), "glr", grid_step=10, max_k=10)  # warm-up
# ratios are formed within each repetition so clock/load drift cancels;
# CPU time rather than wall time ignores scheduler stalls
r1s, r2s = [], []
for _ in range(3):
    t = {}
    for m in sizes:
        t0 = time.process_time()
        sq.cbs_segment(procs[m], "glr", grid_step=10, max_k=10)
        t[m] = time.process_time() - t0
    r1s.append(t[200_000] / t[100_000])
    r2s.append(t[400_000] / t[200_000])
print(sorted(r1s)[1], sorted(r2s)[1])
"""


@report("criterion 8 (sub-quadratic scaling)")
def test_c8_scaling():
    import os
    import subprocess
    import sys

    # the child imports the same seqscan as this process, installed or not
    src = os.path.dirname(os.path.dirname(sq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # fresh interpreter: timing must not inherit this process's heap state
    out = subprocess.run(
        [sys.executable, "-c", _SCALING_BENCH], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    r1, r2 = map(float, out.stdout.split())
    assert r1 <= 2.5 and r2 <= 2.5, f"ratios {r1:.2f}, {r2:.2f}"


@report("criterion 9 (byte-identical determinism)")
def test_c9_determinism(tmp_path):
    import seqscan.cli as cli

    def run_all(root):
        sim = root / "sim"
        rc = cli.main([
            "simulate", "--out-dir", str(sim), "--span-bp", "4000000",
            "--reads", "3000", "--n-segments", "4",
            "--min-seg-bp", "300000", "--max-seg-bp", "500000", "--seed", "9",
        ])
        assert rc == 0
        seg = root / "seg"
        rc = cli.main([
            "segment", "--case", str(sim / "case.tsv"), "--control", str(sim / "control.tsv"),
            "--out-dir", str(seg), "--seed", "9", "--max-k", "12", "--band-grid-step", "10",
        ])
        assert rc == 0
        ev = root / "ev"
        rc = cli.main([
            "evaluate", "--case", str(sim / "case.tsv"), "--control", str(sim / "control.tsv"),
            "--truth", str(sim / "truth.tsv"), "--calls", str(seg / "segments.tsv"),
            "--out-dir", str(ev), "--seed", "9",
        ])
        assert rc == 0
        mb = root / "mb"
        rc = cli.main([
            "mbic-curve", "--case", str(sim / "case.tsv"), "--control", str(sim / "control.tsv"),
            "--out-dir", str(mb), "--seed", "9", "--max-k", "12",
        ])
        assert rc == 0
        out = {}
        for sub in ("sim", "seg", "ev", "mb"):
            for f in sorted((root / sub).iterdir()):
                out[f"{sub}/{f.name}"] = f.read_bytes()
        return out

    a = run_all(tmp_path / "a")
    b = run_all(tmp_path / "b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between runs"
