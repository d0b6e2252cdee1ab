#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of permwit.

    python3 perfbench/run.py --workload census-7 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload census-7 --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --smoke

Run from any directory; the checkout root is the parent of this file's
directory, and permwit is imported from its `src/`.  Every pass runs in a
fresh interpreter (`worker.py`), one at a time, so a run pays the full
cost of a CLI invocation per pass and no in-process cache survives from
one pass to the next.  Passes start until the next one would end after
`--seconds`, or until a workload with a fixed corpus of inputs has run
each of them once; every timing is the median over the run's passes.

The host's speed can drift by a factor of two under load from other
tenants, so each pass also times a fixed reference loop before and after
its operations.  Every reported time is multiplied by REFERENCE_S over
the median of those loop times in the run, which gives it at the speed
where the loop takes REFERENCE_S.  The unscaled values are printed next
to the scaled ones and kept in the run record.

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics, from
traced passes paired with untraced passes of the same inputs.  Run
records and spans go to `.perfbench-out/` in the checkout.

`--smoke` runs every workload, untraced and traced, at toy size and
checks outputs and metric names, with no timing gate.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from worker import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
SMOKE_SEED = 1


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or f"unknown ({out.stderr.strip()})"


def tail(values: List[float]):
    """(value, percentile) at the highest percentile up to p95 that has at
    least ten values beyond it; the median when there are fewer than 20."""
    n = len(values)
    if n < 20:
        return median(values), 50
    pct = min(95, 100 * (n - 10) // n)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct


class Run:
    """One benchmark run: passes of one workload, then its metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.deadline = started + RUN_LIMIT_S
        self.passes: List[dict] = []
        self.problems: List[str] = []
        self.notes: Dict[str, str] = {}

    def _spawn(self, index: int, traced: bool) -> dict:
        spans = OUT / f"spans-{self.workload}-s{self.seed}-p{index}.json"
        cmd = [sys.executable, str(WORKER), self.workload, str(self.seed), str(index),
               str(int(traced)), str(int(self.smoke)), str(spans)]
        env = dict(os.environ, PYTHONHASHSEED=str(self.seed % 2 ** 32))
        record = {"index": index, "traced": traced}
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            record["error"] = "pass timed out"
            return record
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            last = err.strip().splitlines()[-1:] or ["no output"]
            record["error"] = f"worker exit {proc.returncode}: {last[0]}"
            return record
        record.update(json.loads(lines[-1]))
        record["setup_s"] = record["ready"] - spawned
        record["wall_s"] = record["done"] - record["begin"]
        return record

    def execute(self) -> None:
        OUT.mkdir(exist_ok=True)
        warm = subprocess.run([sys.executable, str(WORKER), "--warmup"], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if warm.returncode != 0:
            last = warm.stderr.strip().splitlines()[-1:] or ["no output"]
            raise SystemExit(f"perfbench: cannot import permwit: {last[0]}")
        start = time.monotonic()
        longest = 0.0
        index = 0
        while True:
            # traced runs pair each untraced pass with a traced pass of the
            # same inputs, alternating which goes first
            order = [False] if not self.trace else [index % 2 == 1, index % 2 == 0]
            began = time.monotonic()
            for traced in order:
                self.passes.append(self._spawn(index, traced))
            longest = max(longest, time.monotonic() - began)
            index += 1
            now = time.monotonic()
            if (self.smoke or self.passes[-1].get("last")
                    or now - start + longest > self.seconds
                    or now + longest > self.deadline):
                break

    # -- checks -----------------------------------------------------------

    def counts(self):
        attempted = failed = 0
        for p in self.passes:
            if "error" in p:
                attempted += 1
                failed += 1
                self.problems.append(f"pass {p['index']}: {p['error']}")
                continue
            attempted += len(p["ops"])
            for label, _, error in p["ops"]:
                if error is not None:
                    failed += 1
                    self.problems.append(f"{label}: {error.strip().splitlines()[-1]}")
        return attempted, failed

    def check_repeats(self, src: str) -> None:
        """Equal inputs must give equal outputs and counters: across the
        passes of this run, and against earlier runs in this checkout."""
        ledger_path = OUT / "ledger.json"
        ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
        for p in self.passes:
            if "error" in p:
                continue
            key = f"{src[:16]} {'smoke ' if self.smoke else ''}{p['key']}"
            seen = {"digest": p["digest"], "counters": p["counters"]}
            earlier = ledger.setdefault(key, seen)
            if earlier != seen:
                self.problems.append(f"{p['key']}: output or counters differ from an "
                                     f"earlier pass with the same inputs")
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, sort_keys=True))
        os.replace(tmp, ledger_path)

    # -- metrics ----------------------------------------------------------

    def _ok(self, traced: bool) -> List[dict]:
        return [p for p in self.passes if "error" not in p and p["traced"] == traced]

    def scale(self) -> float:
        """REFERENCE_S over the median reference-loop time of the run."""
        refs = [t for p in self.passes if "error" not in p for t in p["ref_s"]]
        return REFERENCE_S / median(refs)

    def end_to_end(self) -> Dict[str, float]:
        """Medians over the untraced passes; times at the reference speed,
        with the unscaled values in the notes."""
        plain = self._ok(False)
        if not plain:
            return {}
        latencies = [ms for p in plain for _, ms, _ in p["ops"]]
        op_tail, pct = tail(latencies)
        raw = {
            "setup_s": median([p["setup_s"] for p in plain]),
            "wall_s": median([p["wall_s"] for p in plain]),
            "op_p50_ms": median(latencies),
            "op_tail_ms": op_tail,
        }
        self.notes = {
            "setup_s": f"{len(plain)} set-ups",
            "wall_s": f"{len(plain)} passes",
            "op_p50_ms": f"p50 of {len(latencies)} ops",
            "op_tail_ms": f"p{pct} of {len(latencies)} ops",
        }
        for n in raw:
            self.notes[n] += f", unscaled {raw[n]:.6g}"
        values = {n: v * self.scale() for n, v in raw.items()}
        values["peak_rss_mib"] = median([p["rss_kib"] / 1024.0 for p in plain])
        self.notes["peak_rss_mib"] = f"{len(plain)} passes"
        return values

    def per_layer(self) -> Dict[str, float]:
        traced = self._ok(True)
        if not traced:
            return {}
        out = {n: median([p["layers"][n] for p in traced]) for n in traced[0]["layers"]}
        plain = {p["index"]: p["wall_s"] for p in self._ok(False)}
        deltas = [p["wall_s"] - plain[p["index"]] for p in traced if p["index"] in plain]
        if deltas:
            out["trace.overhead_s"] = median(deltas)
        out["trace.wall_s"] = median([p["wall_s"] for p in traced])
        scale = self.scale()
        return {n: v * scale if n.endswith("_s") else v for n, v in out.items()}


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
             smoke: bool, started: float) -> dict:
    run = Run(workload, seed, seconds, trace, smoke, started)
    run.execute()
    src = source_digest()
    attempted, failed = run.counts()
    run.check_repeats(src)

    group = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    values = run.per_layer() if trace else run.end_to_end()
    missing = [n for n in units if n not in values]
    if missing:
        run.problems.append(f"metrics not measured: {', '.join(missing)}")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units if n in values}

    ok = [p for p in run.passes if "error" not in p]
    meta = {
        "workload": workload, "seed": seed, "trace": int(trace), "smoke": smoke,
        "seconds": seconds, "git_sha": git_sha(), "src_sha256": src,
        "backend": sorted({p["backend"] for p in ok}),
        "python": sorted({p["python"] for p in ok}),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(run.passes),
    }
    work = {}
    for p in ok:
        work.setdefault(p["key"], {"counters": p["counters"], "digest": p["digest"]})
    result = {
        "correct": failed == 0 and not run.problems and bool(ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"meta": meta, "work": work, "problems": run.problems,
              "values": values, "passes": run.passes, "result": result}
    name = f"run-{workload}-s{seed}-t{int(trace)}{'-smoke' if smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    print(f"perfbench {workload} seed={seed} trace={int(trace)} "
          f"{'smoke ' if smoke else ''}passes={len(run.passes)}")
    print("meta: " + json.dumps(meta, sort_keys=True))
    for key, w in work.items():
        print(f"work: {key}: {json.dumps(w['counters'], sort_keys=True)} "
              f"sha256:{w['digest']}")
    for problem in run.problems:
        print(f"problem: {problem}")
    for n, m in metrics.items():
        print(f"  {n:38} {m['value']:14.6f} {m['unit']:6} {run.notes.get(n, '')}")
    if not trace:
        rate = failed / attempted
        print(f"  {'error_rate':38} {rate:14.6f} ratio ({failed} failed of "
              f"{attempted} attempted)")
    return result


def smoke(spec: dict) -> int:
    good = True
    for w in spec["workloads"]:
        for trace in (False, True):
            result = run_once(spec, w["name"], SMOKE_SEED, 1, trace, True, time.monotonic())
            group = "per_layer" if trace else "end_to_end"
            names_ok = sorted(result["metrics"]) == sorted(m["name"] for m in spec[group])
            good &= result["correct"] and result["failed"] == 0 and names_ok
            if not names_ok:
                print(f"problem: {w['name']} trace={int(trace)} metric names differ "
                      f"from BENCHMARK.json")
    print(json.dumps({"smoke": "pass" if good else "FAIL"}))
    return 0 if good else 1


def main(argv: Optional[List[str]] = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="permwit end-to-end and per-layer benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, untraced and traced, at toy size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "permwit" / "__init__.py").is_file():
        print(f"perfbench: no permwit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = run_once(spec, args.workload, args.seed, seconds, bool(args.trace),
                      False, started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
