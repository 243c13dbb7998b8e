"""Run one command; print its exit code, wall time, CPU time and peak RSS as JSON.

    python3 perfbench/launch.py TIMEOUT_S LOG_PATH -- command ...

The benchmark starts every measured command through this small process.  On
Linux a child's peak RSS also counts the memory of the process it was forked
from, so forking straight from the benchmark, which holds parsed outputs,
would inflate ``peak_rss_mb``.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print("usage: launch.py TIMEOUT_S LOG_PATH -- command ...", file=sys.stderr)
        return 2
    timeout, log_path, cmd = float(argv[0]), argv[1], argv[3:]
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=log)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, timeout)
        # wait4 gives this child's own rusage, unlike RUSAGE_CHILDREN's maximum
        _, status, usage = os.wait4(proc.pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
