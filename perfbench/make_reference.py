"""Write the committed reference outputs of the default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the repository root, and only when the expected outputs change on
purpose: a workload's inputs changed, or a change to the CLI's output was
accepted.  Each workload's outputs pass the invariant checks before they are
stored; segment and curve files are kept as written, the band in run-length
form (check.band_runs).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(argv: list[str]) -> int:
    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    sys.path.insert(0, src_dir)
    import check
    import workloads

    for name in argv or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        work_dir = os.path.join(root, ".bench_work", f"reference-{name}")
        try:
            inputs = workloads.generate(wl, run.DEFAULT_SEED, os.path.join(work_dir, "in"))
            out_dir = os.path.join(work_dir, "out")
            cmd = [sys.executable, "-c", run.CLI_ENTRY, *workloads.cli_args(wl, inputs, out_dir)]
            rep = run.run_child(cmd, run.child_env(src_dir), os.path.join(work_dir, "child.log"))
            if rep["exit"] != 0:
                print(f"{name}: seqscan exited with {rep['exit']}", file=sys.stderr)
                return 1
            run.check_outputs(wl, inputs, out_dir, None)
            ref_dir = os.path.join(run.HERE, "reference", name)
            shutil.rmtree(ref_dir, ignore_errors=True)
            os.makedirs(ref_dir)
            for f in sorted(os.listdir(out_dir)):
                if f == "segments.tsv" or f.startswith("mbic_"):
                    shutil.copy(os.path.join(out_dir, f), ref_dir)
            if wl.command == "segment":
                band = check.check_band(os.path.join(out_dir, "band.tsv"), inputs.processes,
                                        wl.band_step)
                with open(os.path.join(ref_dir, "band_runs.json"), "w") as fh:
                    json.dump(check.band_runs(band), fh)
            print(f"{name}: reference written to {os.path.relpath(ref_dir, root)}")
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
