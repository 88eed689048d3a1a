"""Starts the CLI steps of benchmark jobs from a small process.

On Linux a child's ru_maxrss starts from the resident size of the process it
was forked from, because the high-water mark is kept across fork and exec.
bench/run.py holds the generated inputs and the imported package, so a CLI
child started from it would report at least that size.  This process imports
nothing heavy and starts every CLI child instead.

Protocol: one JSON request per line on stdin,
``{"cwd": dir, "out": dir, "steps": [[arg, ...], ...]}``, answered by one JSON
line on stdout, ``{"wall": s, "maxrss_kib": n, "failed_step": k or null,
"code": exit code}``.  The steps run one after another as
``python -m diarscore.cli <args>``, with stdout and stderr in
``<out>/step<k>.out`` and ``.err``, and stop at the first that fails.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def run_job(request: dict) -> dict:
    peak_kib = 0
    start = time.perf_counter()
    for k, argv in enumerate(request["steps"]):
        out = os.path.join(request["out"], f"step{k}")
        with open(out + ".out", "wb") as stdout, open(out + ".err", "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "diarscore.cli", *argv],
                cwd=request["cwd"],
                stdout=stdout,
                stderr=stderr,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        peak_kib = max(peak_kib, usage.ru_maxrss)
        if proc.returncode != 0:
            return {
                "wall": time.perf_counter() - start,
                "maxrss_kib": peak_kib,
                "failed_step": k,
                "code": proc.returncode,
            }
    wall = time.perf_counter() - start
    return {"wall": wall, "maxrss_kib": peak_kib, "failed_step": None, "code": 0}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        print(json.dumps(run_job(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
