"""One pass of a perfbench workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED INDEX TRACE SMOKE SPANS_FILE
    python3 perfbench/worker.py --warmup

Imports permwit from the checkout's `src/`, builds the inputs of pass
INDEX, runs every operation with its output check, and prints one JSON
line: the monotonic times at which set-up ended, the operations began and
the last result was checked, per-operation latencies and failures, the
summed work counters, a digest of the sorted-key JSON outputs, the peak
resident memory, and the time of a reference loop run before and after
the operations.  With TRACE=1 the tracer is installed first and
the line also carries the per-layer metrics; the spans go to SPANS_FILE.

`run.py` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_permwit() -> None:
    sys.path.insert(0, str(SRC))
    import permwit
    if Path(permwit.__file__).resolve().parent != SRC / "permwit":
        raise SystemExit(f"permwit imported from {permwit.__file__}, not from {SRC}")


# The reference loop's time at the reference speed.  Reported times are
# scaled by REFERENCE_S over the median time of the loop in the run (see
# run.py), so that a host whose speed drifts under load from other tenants
# still gives comparable numbers.
REFERENCE_S = 0.040


def reference_samples(count: int = 3) -> list:
    """Times of a fixed pure-Python loop that calls nothing in permwit."""
    table = bytes(range(1, 256)) + b"\0"
    times = []
    for _ in range(count):
        start = time.perf_counter()
        x = bytes(range(64))
        seen = set()
        total = 0
        for i in range(100_000):
            x = x.translate(table)
            seen.add(x[:4])
            total += i * i
        times.append(time.perf_counter() - start)
    return times


def main(argv) -> int:
    if argv[1:] == ["--warmup"]:
        _import_permwit()
        import workloads  # noqa: F401  (compiles the bytecode of every module)
        return 0
    name, seed, index, trace, smoke, spans_file = argv[1:7]
    _import_permwit()
    from permwit import kernels
    import workloads

    bench_pass = workloads.make_pass(name, int(seed), int(index), smoke == "1")
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    ready = time.monotonic()
    ref_before = reference_samples()
    begin = time.monotonic()
    ops = []
    outputs = []
    counters: Counter = Counter()
    for i, op in enumerate(bench_pass.ops):
        if tracer is not None:
            tracer.request = i + 1
        start = time.perf_counter()
        try:
            output, op_counters = op.run()
        except Exception:  # a failed operation is counted, not fatal
            ops.append([op.label, (time.perf_counter() - start) * 1000.0,
                        traceback.format_exc()])
            continue
        ops.append([op.label, (time.perf_counter() - start) * 1000.0, None])
        outputs.append((op.label, output))
        counters.update(op_counters)
    done = time.monotonic()
    ref_after = reference_samples()

    outputs.sort(key=lambda item: item[0])
    digest = hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    result = {
        "key": bench_pass.key,
        "last": bench_pass.last,
        "ready": ready,
        "begin": begin,
        "done": done,
        "ops": ops,
        "counters": dict(sorted(counters.items())),
        "digest": digest,
        "ref_s": ref_before + ref_after,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": kernels.BACKEND,
        "python": sys.version.split()[0],
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(counters)
        with open(spans_file, "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
