"""Self-test of the benchmark harness at a tiny size; takes under a minute.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that every workload, untraced and
traced, emits every metric BENCHMARK.json names; that the output check
rejects a band file with one corrupted row and a band off the reference; and
that the benchmark fails without printing a result where there are no
sources to run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import check
import run

TINY = dict(span_bp=3_000_000, reads=1_500, seg_bp=(3e5, 5e5), gap_bp=5e5, max_k=6)


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: FAILED: {what}")


def _rejects(band_path: str, processes, step: int, corrupt, what: str) -> None:
    with open(band_path) as fh:
        lines = fh.read().splitlines(keepends=True)
    bad_path = band_path + ".bad"
    with open(bad_path, "w") as fh:
        fh.writelines(corrupt(lines))
    try:
        check.check_band(bad_path, processes, step)
    except check.CheckError:
        return
    expect(False, f"band check accepted {what}")


def _row_edit(lines, k: int, edit):
    fields = lines[k].rstrip("\n").split("\t")
    return lines[:k] + ["\t".join(edit(fields)) + "\n"] + lines[k + 1:]


def check_band_rejections(band_path: str, processes, step: int, scratch: str) -> None:
    band = check.check_band(band_path, processes, step)
    k = len(next(iter(band.values()))) // 2 + 1  # a data row in the middle
    _rejects(band_path, processes, step,
             lambda ls: _row_edit(ls, k, lambda f: f[:2] + [f[4], f[3], f[2]] + f[5:]),
             "a row with p_lower > p_upper")
    _rejects(band_path, processes, step,
             lambda ls: _row_edit(ls, k, lambda f: f[:4] + ["1.5"] + f[5:]),
             "a row with p_upper > 1")
    _rejects(band_path, processes, step, lambda ls: _row_edit(ls, k, lambda f: f[:7]),
             "a row with a missing column")
    _rejects(band_path, processes, step, lambda ls: ls[:k] + [ls[k + 1], ls[k]] + ls[k + 2:],
             "two rows out of position order")

    ref_dir = os.path.join(scratch, "ref")
    os.makedirs(ref_dir)
    with open(os.path.join(ref_dir, "band_runs.json"), "w") as fh:
        json.dump(check.band_runs(band), fh)
    for shift, accepted in ((1e-9, True), (1e-5, False)):
        moved = {c: v.copy() for c, v in band.items()}
        chrom = next(iter(moved))
        moved[chrom][k - 1, 0] += shift
        try:
            check.compare_reference(scratch, ref_dir, moved)
            ok = accepted
        except check.CheckError:
            ok = not accepted
        expect(ok, f"reference comparison of a band bound moved by {shift:g}")


def main() -> int:
    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    sys.path.insert(0, src_dir)
    import workloads

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads of workloads.py")

    scratch = os.path.join(root, ".bench_work", f"selftest-{os.getpid()}")
    try:
        for name, wl in workloads.WORKLOADS.items():
            tiny = dataclasses.replace(wl, n_segments=min(wl.n_segments, 2), **TINY)
            for trace in (False, True):
                work_dir = os.path.join(scratch, f"{name}-{int(trace)}")
                res = run.run_workload(tiny, 3, 0.0, trace, work_dir, src_dir)
                expect(res["correct"], f"{name} passes its output check: {res['failures']}")
                want = per_layer if trace else end_to_end
                expect(set(res["metrics"]) == want,
                       f"{name} trace={int(trace)} emits {sorted(want ^ set(res['metrics']))}")
                expect(all(units[k] == v["unit"] for k, v in res["metrics"].items()),
                       f"{name} trace={int(trace)} units match BENCHMARK.json")
                expect("fail_rate" in res["summary"], f"{name} reports fail_rate")
            if wl.command == "segment":
                inputs = workloads.generate(tiny, 3, os.path.join(work_dir, "in"))
                check_band_rejections(os.path.join(work_dir, "out", "band.tsv"),
                                      inputs.processes, tiny.band_step, work_dir)

        bare = os.path.join(scratch, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "band-full",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        expect(done.returncode != 0 and not done.stdout.strip(),
               "without sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
