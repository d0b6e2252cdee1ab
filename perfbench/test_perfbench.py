"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They use the smoke mode (toy sizes, no timing gate), so they finish in
seconds.  The repository's Tier-1 suite does not collect them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _python(args, cwd, timeout):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke():
    return _python(["perfbench/run.py", "--smoke"], ROOT, timeout=300)


def test_smoke_runs_every_workload_untraced_and_traced(smoke):
    out = smoke
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
    assert json.loads(out.stdout.strip().splitlines()[-1]) == {"smoke": "pass"}
    assert "problem:" not in out.stdout
    for w in _spec()["workloads"]:
        for trace in (0, 1):
            assert f"perfbench {w['name']} seed=1 trace={trace} smoke" in out.stdout


def test_smoke_counters_and_traced_layers(smoke):
    out = smoke
    assert out.returncode == 0
    assert '"entries": 5' in out.stdout                  # census_report(5)
    assert '"calls": 11, "embeds": 3' in out.stdout      # n <= 20
    assert '"samples_tested": 100' in out.stdout         # refute(3, 5, 100, s)
    record = json.loads((ROOT / ".perfbench-out" /
                         "run-witness-sweep-s1-t1-smoke.json").read_text())
    layers = record["values"]
    assert layers["witness.verify_candidate.calls"] == 22   # once per construct, once more
    assert layers["wreath.embed.calls"] == 3
    assert layers["kernels.compose.calls"] > 0
    assert layers["group.lattice.calls"] == 0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _python(["perfbench/run.py", "--workload", "census-7", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], tmp_path, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50)
    value, pct = run.tail([float(i) for i in range(1, 201)])
    assert pct == 95 and 189 < value < 191
    assert run.tail([float(i) for i in range(1, 41)])[1] == 75
