"""Smoke run of the benchmark harness: every workload, untraced and traced,
at toy size, with every output check of the workloads.  No timing gate."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
    assert json.loads(out.stdout.strip().splitlines()[-1]) == {"smoke": "pass"}
