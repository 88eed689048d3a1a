"""The benchmark harness runs end to end at tiny sizes and its checks pass.

``bench/run.py --smoke`` runs every workload once untraced and once traced,
checks each job's output against the generator's ledger and checks that
every metric named in BENCHMARK.json is produced.  No timing is asserted.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
