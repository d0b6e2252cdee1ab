"""Smoke run of the benchmark harness: every workload, untraced and traced,
at toy size, with every output check of the workloads.  No timing gate.
The harness runs in a copy of the sources, so its run and span files land
there and the checkout is left untouched."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
    assert json.loads(out.stdout.strip().splitlines()[-1]) == {"smoke": "pass"}
