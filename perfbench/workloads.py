"""The three perfbench workloads: inputs from a seed, operations, output checks.

An operation is one top-level public call of permwit, exactly as the CLI
makes it, followed by a check of its output against known facts.  A check
that fails raises CheckFailed; the worker counts that operation as failed.

    refute-15      refute(3, 5, samples=S, seed=s)      `permwit refute 3 5`
                   for the refute seeds s in REFUTE_SEEDS, one per pass, in an
                   order the workload seed shuffles
    census-7       census_report(7)                     `permwit census 7`
    witness-sweep  construct_witness + verify_witness   `permwit witness n --prime p`
                   for every valid (n, p) with n <= 255, plus embed() where
                   n = p*q with p < q prime

Each operation returns (output, counters): the JSON-ready output that goes
into the pass digest, and the work counters read from public return values.
"""

from __future__ import annotations

from random import Random
from typing import Callable, List, NamedTuple, Tuple

# calls go through module attributes, so that a tracer installed after this
# import sees them
import permwit.census
import permwit.refute
import permwit.witness
import permwit.wreath
from permwit.numthy import is_prime

REFUTE_SAMPLES = 2000
# A fixed corpus of refute seeds.  The cost of refute(3, 5, 2000, s) varies
# by about 20% from one refute seed to the next, because a few expensive
# within-budget groups take most of the time.  A run cannot hold enough
# samples to average that out, so every run covers the same corpus.
REFUTE_SEEDS = (1, 2, 3, 4, 5, 6)
SMOKE_REFUTE_SAMPLES = 100
CENSUS_Q = 7
SMOKE_CENSUS_Q = 5
SWEEP_MAX_N = 255  # permutation tables are bytes, so degree 255 is the cap
SMOKE_SWEEP_MAX_N = 20

CENSUS_ORDERS = {
    5: [5, 10, 20, 60, 120],
    7: [7, 14, 21, 42, 168, 2520, 5040],
}

REFUTE_COUNTERS = ("samples_tested", "transitive_found", "skipped_large",
                   "small_groups_tested", "pairs_tested", "counterexamples_found")


class CheckFailed(Exception):
    """An operation returned an output that contradicts a known fact."""


class Op(NamedTuple):
    label: str
    run: Callable[[], Tuple[dict, dict]]


class Pass(NamedTuple):
    key: str        # names the pass inputs; equal keys must give equal outputs
    ops: List[Op]
    last: bool      # no later pass of the run has new inputs


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _refute(p: int, q: int, samples: int, seed: int) -> Tuple[dict, dict]:
    report = permwit.refute.refute(p, q, samples=samples, seed=seed)
    _check(report.verdict == "consistent", f"verdict {report.verdict}")
    _check(report.counterexamples_found == 0 and not report.counterexamples,
           "counterexamples reported")
    _check(report.samples_tested == samples,
           f"samples_tested {report.samples_tested} != {samples}")
    counters = {name: getattr(report, name) for name in REFUTE_COUNTERS}
    return report.to_json_dict(), counters


def _census(q: int) -> Tuple[dict, dict]:
    report = permwit.census.census_report(q)
    _check(report["orders"] == CENSUS_ORDERS[q], f"orders {report['orders']}")
    _check(report.get("passed") is True, "census verdicts did not all pass")
    return report, {"entries": report["entry_count"]}


def _embeds(n: int, p: int) -> bool:
    q = n // p
    return n == p * q and p < q and is_prime(q)


def _witness(n: int, p: int) -> Tuple[dict, dict]:
    w = permwit.witness.construct_witness(n, p)
    report = permwit.witness.verify_witness(w)
    _check(report.passed, f"witness n={n} p={p} failed verification")
    _check(w.G.order() == n * p, f"|G| = {w.G.order()}, expected {n * p}")
    _check(w.N1.order() == n and w.N2.order() == n,
           f"|N1| = {w.N1.order()}, |N2| = {w.N2.order()}, expected {n}")
    out = w.to_json_dict(report)
    embedded = _embeds(n, p)
    if embedded:
        e = permwit.wreath.embed(w.G, w.N1, w.N2)
        _check(e.conditions.all_hold, f"embed conditions fail at n={n}")
        _check((e.p, e.q) == (p, n // p), f"embed gave p={e.p} q={e.q}")
        out["embed"] = e.to_json_dict()
    return out, {"calls": 1, "embeds": int(embedded)}


def sweep_pairs(max_n: int) -> List[Tuple[int, int]]:
    return [(n, p) for n in range(2, max_n + 1) for p in permwit.witness.valid_primes(n)]


def make_pass(name: str, seed: int, index: int, smoke: bool) -> Pass:
    """Inputs of pass `index` of a run with workload seed `seed`."""
    if name == "refute-15":
        samples = SMOKE_REFUTE_SAMPLES if smoke else REFUTE_SAMPLES
        corpus = list(REFUTE_SEEDS)
        Random(seed).shuffle(corpus)
        s = corpus[index % len(corpus)]
        label = f"refute 3 5 {samples} {s}"
        return Pass(label, [Op(label, lambda: _refute(3, 5, samples, s))],
                    index + 1 >= len(corpus))
    if name == "census-7":
        q = SMOKE_CENSUS_Q if smoke else CENSUS_Q
        return Pass(f"census {q}", [Op(f"census {q}", lambda: _census(q))], False)
    if name == "witness-sweep":
        max_n = SMOKE_SWEEP_MAX_N if smoke else SWEEP_MAX_N
        pairs = sweep_pairs(max_n)
        Random(seed).shuffle(pairs)
        ops = [Op(f"witness {n} {p}", lambda n=n, p=p: _witness(n, p))
               for n, p in pairs]
        return Pass(f"witness-sweep {max_n}", ops, False)
    raise ValueError(f"unknown workload {name!r}")
