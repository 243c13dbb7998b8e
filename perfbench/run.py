"""Benchmark of the ``seqscan`` CLI on seeded inputs.

    python3 perfbench/run.py --workload band-full --seed 1 --seconds 28 --trace 0

Run it from the root of a source checkout: the CLI is started in a fresh
interpreter with ``src`` on its path.  For ``--seconds`` seconds the command
is run again and again on inputs generated from ``--seed``; every run's
outputs are checked (see check.py), and the medians are reported.  With
``--trace 1`` the second half of the window runs the command under the
span tracer (tracer.py) and the per-layer metrics are reported instead.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
SETUP_REPEATS = 7  # at least this many set-ups, and at least SETUP_MIN_S of them
SETUP_MIN_S = 2.0
CHILD_TIMEOUT_S = 150.0
TOLERANCE_READS = 100
CLI_ENTRY = "import sys; from seqscan.cli import main; sys.exit(main())"

END_TO_END_UNITS = {
    "wall_s": "s",
    "reads_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "recall": "ratio",
    "precision": "ratio",
}
SUMMARY_UNITS = {**END_TO_END_UNITS, "fail_rate": "ratio", "m": "count",
                 "untraced_runs": "count", "traced_runs": "count"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_written":
        return "B"
    if name in ("posterior.cdf_per_quantile", "stats.intervals_per_read", "cli.chrom_overlap"):
        return "ratio"
    return "count"


def child_env(src_dir: str) -> dict:
    """Environment of the measured command: the checkout's sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict, log_path: str) -> dict:
    """Run one command through launch.py; its exit code, wall, CPU time and peak RSS."""
    launcher = [sys.executable, os.path.join(HERE, "launch.py"), str(CHILD_TIMEOUT_S),
                log_path, "--", *cmd]
    done = subprocess.run(launcher, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, check=True, timeout=CHILD_TIMEOUT_S + 30)
    return json.loads(done.stdout)


def _bytes_written(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def check_outputs(wl, inputs, out_dir: str, reference_dir: str | None):
    """Check one run's outputs; return its called change points (None without
    a segments file) and its criterion curves, per chromosome."""
    if wl.command == "segment":
        called = check.check_segments(os.path.join(out_dir, "segments.tsv"), inputs.processes)
        band = check.check_band(os.path.join(out_dir, "band.tsv"), inputs.processes,
                                wl.band_step)
    else:
        called, band = None, None
    curves = check.check_curves(out_dir, inputs.processes, wl.max_k)
    if reference_dir is not None:
        check.compare_reference(out_dir, reference_dir, band)
    return called, curves


def library_calls(wl, inputs, curves: dict) -> dict:
    """Change points the library selects; the CLI's curves must agree with it.

    The criterion-curve command writes no change points, so its calls come
    from the same library functions with the CLI's default statistic (glr)
    and grid step (10), outside the timed region.
    """
    import numpy as np

    import seqscan as sq

    called = {}
    for chrom, proc in inputs.processes.items():
        _, curve, taus = sq.select_k(proc, sq.cbs_segment(proc, "glr", 10, wl.max_k))
        if curves[chrom].shape != curve.values.shape or not np.allclose(
            curves[chrom], curve.values, rtol=1e-9, atol=1e-9
        ):
            raise check.CheckError(f"mbic_{chrom}.tsv disagrees with the library's curve")
        called[chrom] = taus
    return called


def score(inputs, called: dict) -> tuple[float, float]:
    """Recall and precision of called change points against the generator's truth."""
    import seqscan as sq

    n_true = n_called = n_matched = 0
    for chrom, proc in inputs.processes.items():
        truth = [sq.nearest_read_index(proc, bp) for bp in inputs.truth_bp[chrom]]
        report = sq.match_changepoints(called[chrom], truth, tolerance_reads=TOLERANCE_READS)
        n_true += len(truth)
        n_called += len(called[chrom])
        n_matched += report.n_matched
    # with nothing to find, finding nothing is perfect (match_changepoints' convention)
    recall = n_matched / n_true if n_true else 1.0
    precision = n_matched / n_called if n_called else (1.0 if n_true == 0 else 0.0)
    return recall, precision


def run_workload(wl, seed: int, seconds: float, trace: bool, work_dir: str, src_dir: str,
                 reference_dir: str | None = None) -> dict:
    """Set up, run and check one workload; the result object of the JSON line."""
    import workloads

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        start = time.perf_counter()
        inputs = workloads.generate(wl, seed, os.path.join(work_dir, "in"))
        setup_times.append(time.perf_counter() - start)

    env = child_env(src_dir)
    out_dir = os.path.join(work_dir, "out")
    args = workloads.cli_args(wl, inputs, out_dir)
    spans_path = os.path.join(work_dir, "spans.json")
    log_path = os.path.join(work_dir, "child.log")

    plain, traced = [], []
    failures: dict[int, str] = {}  # run number -> first failed check
    called, first_ok = None, None

    def one_run(do_trace: bool) -> None:
        nonlocal called, first_ok
        shutil.rmtree(out_dir, ignore_errors=True)
        if do_trace:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--", *args]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        rep = run_child(cmd, env, log_path)
        number = len(plain) + len(traced)
        (traced if do_trace else plain).append(rep)
        try:
            if rep["exit"] != 0:
                with open(log_path) as fh:
                    raise check.CheckError(f"exit code {rep['exit']}: {fh.read()[-500:]}")
            rep_called, curves = check_outputs(wl, inputs, out_dir, reference_dir)
            if first_ok is None:
                called, first_ok = rep_called, (number, curves)
            if do_trace:
                with open(spans_path) as fh:
                    spans = json.load(fh)
                rep["layers"] = tracer.layer_metrics(spans, inputs.m, _bytes_written(out_dir))
        except (check.CheckError, OSError, ValueError) as exc:
            failures[number] = str(exc)

    window_start = time.perf_counter()

    def room(reps, until: float) -> bool:
        # run again while the next run should end mostly inside the window
        elapsed = time.perf_counter() - window_start
        return not reps or elapsed + reps[-1]["wall_s"] / 2 < until

    while room(plain, seconds / 2 if trace else seconds):
        one_run(do_trace=False)
    while trace and room(traced, seconds):
        one_run(do_trace=True)

    if called is None and first_ok is not None:
        number, curves = first_ok
        try:
            called = library_calls(wl, inputs, curves)
        except check.CheckError as exc:
            failures[number] = str(exc)

    def med(reps, key):
        return statistics.median(r[key] for r in reps)

    attempted = len(plain) + len(traced)
    recall, precision = score(inputs, called) if called is not None else (0.0, 0.0)
    wall = med(plain, "wall_s")
    end_to_end = {
        "wall_s": wall,
        "reads_per_s": inputs.m / wall,
        "cpu_s": med(plain, "cpu_s"),
        "peak_rss_mb": med(plain, "peak_rss_mb"),
        "setup_s": statistics.median(setup_times),
        "recall": recall,
        "precision": precision,
    }
    if trace:
        layered = [r["layers"] for r in traced if "layers" in r]
        metrics = {
            name: {"value": statistics.median(l[name] for l in layered), "unit": layer_unit(name)}
            for name in (layered[0] if layered else {})
        }
        metrics["trace.wall_s"] = {"value": med(traced, "wall_s"), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": med(traced, "wall_s") - wall, "unit": "s"}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "summary": {**end_to_end, "fail_rate": len(failures) / attempted, "m": inputs.m,
                    "untraced_runs": len(plain), "traced_runs": len(traced)},
        "failures": list(failures.values()),
        "reps": plain + traced,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src_dir, "seqscan", "cli.py")):
        print("run.py: no seqscan sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src_dir)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference_dir = None
    if args.seed == DEFAULT_SEED:
        reference_dir = os.path.join(HERE, "reference", args.workload)
    work_dir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        result = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work_dir, src_dir, reference_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    summary = result.pop("summary")
    for failure in result.pop("failures"):
        print(f"check failed: {failure}")
    for name, value in summary.items():
        print(f"{args.workload}\t{name}\t{value:.6g}\t{SUMMARY_UNITS[name]}")
    for rep in result.pop("reps"):
        fields = (f"{k}={rep[k]:.4g}" for k in ("exit", "wall_s", "cpu_s", "peak_rss_mb"))
        print(f"{args.workload}\trun\t" + "\t".join(fields))
    for name, metric in result["metrics"].items():
        if name not in END_TO_END_UNITS:
            print(f"{args.workload}\t{name}\t{metric['value']:.6g}\t{metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
