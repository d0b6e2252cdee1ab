"""Nonexistence pipeline for degree p*q (p < q primes, p not dividing q-1).

No transitive group of such a degree can carry a transitive normal
subgroup and a non-transitive normal subgroup with isomorphic quotients.
The machine evidence is the exact census of degree-q transitive groups
together with the divisibility sweep over all their normal subgroups
(plus the normalizer and dichotomy checks those rest on); exhausting
degree-pq groups themselves is far beyond desk scale.  As corroboration,
a seeded randomized search draws generator sets biased toward the
imprimitive groups any counterexample would have to live in.  It analyses
only the transitive samples within ENUMERATION_BUDGET, and only their
equal-index (transitive, intransitive) normal subgroup pairs reach the
witness clause checker; at the seeds the tests and the benchmark run,
none does (pairs_tested is 0).  ROADMAP items 2, 3 and 9 plan to change
that.

The search runs in four phases, the first three on one batch of _BATCH
samples at a time, so that memory does not grow with the sample count:

1. Draw: the batch's generator tables, in sample order, from one
   Random(seed) stream, in this process.
2. Screen: each sample is intransitive, over ENUMERATION_BUDGET, or small
   with its order; in worker processes, many samples per task.
3. Dedupe: in this process, in sample order.  A small sample whose order
   equals that of a group already listed, and whose generators all lie
   in that group's stabilizer chain, is the same group; otherwise its
   group is listed.  Chains are built only for small samples.
4. Analyse: each listed group once, in worker processes, one group per
   task, since their costs are very uneven; then each small sample adds
   its group's outcome to the report, in sample order.  A counterexample
   entry lists the generators of the first sample that produced its
   group.

There is one worker process per CPU this process may run on, forked; with
one CPU, no fork or no sample, the same functions run in process.  Every
worker function depends on its input alone, results come back in input
order, and all that depends on order (the draw, the dedupe and the sums)
runs in this process, so the report cannot depend on the number of
workers or on which finishes first.  Reports are byte-for-byte
deterministic given (p, q, samples, seed); the command line times the
run and prints the time and the worker count on stderr only.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from random import Random
from typing import Callable, Dict, Iterator, List, Optional

from permwit.errors import BudgetExceeded, HypothesisError
from permwit.group import ENUMERATION_BUDGET, PermGroup
from permwit.numthy import pq_hypothesis_failure
from permwit.perm import MAX_DEGREE, Permutation
from permwit.census import EXACT_LIMIT, census_report
from permwit.witness import verify_candidate
from permwit.wreath import wreath_table

METHOD = (
    "evidence: exact transitive census at degree q plus the zero-violation "
    "divisibility sweep over every (group, normal subgroup) pair; the "
    "degree-pq random sampling below is seeded corroboration only, not an "
    "exhaustive enumeration"
)


@dataclass
class RefutationReport:
    p: int
    q: int
    degree: int
    hypothesis_ok: bool
    method: str
    seed: int
    samples_requested: int
    census_orders: List[int]
    census_verdicts: Dict[str, bool]
    samples_tested: int = 0
    transitive_found: int = 0
    skipped_large: int = 0
    small_groups_tested: int = 0
    pairs_tested: int = 0
    counterexamples: List[dict] = field(default_factory=list)

    @property
    def counterexamples_found(self) -> int:
        return len(self.counterexamples)

    @property
    def passed(self) -> bool:
        return (self.hypothesis_ok
                and all(self.census_verdicts.values())
                and self.counterexamples_found == 0)

    @property
    def verdict(self) -> str:
        return "consistent" if self.passed else "THEOREM-VIOLATION"

    def to_json_dict(self) -> dict:
        return {**asdict(self), "counterexamples_found": self.counterexamples_found,
                "verdict": self.verdict}


def _check_hypothesis(p: int, q: int) -> None:
    if max(p, q) > MAX_DEGREE:  # before is_prime's trial division
        raise HypothesisError(
            f"p and q must be at most {MAX_DEGREE}, got p={p}, q={q}")
    failure = pq_hypothesis_failure(p, q)
    if failure is not None:
        raise HypothesisError(failure)
    if q > EXACT_LIMIT:
        raise BudgetExceeded(
            f"refutation needs the exact census, available for q <= {EXACT_LIMIT}")


def _shuffled(k: int, rng: Random) -> bytes:
    """The table of a uniform random permutation of degree k."""
    values = list(range(k))
    rng.shuffle(values)
    return bytes(values)


def _draw_generators(p: int, q: int, rng: Random) -> List[bytes]:
    """The generator tables of one sample at degree pq.

    Most generators are wreath elements; uniform base tuples almost surely
    generate enormous groups, which the order budget would just skip, so
    pure-top, diagonal and single-block bases keep a useful fraction of
    samples inside the budget.  About 15% are uniform on all pq points,
    an unbiased control."""
    count = rng.choice((2, 2, 3, 4))
    ident_q = bytes(range(q))
    tables = []
    for _ in range(count):
        r = rng.random()
        if r < 0.15:
            tables.append(_shuffled(p * q, rng))
            continue
        top = _shuffled(p, rng) if r < 0.55 else bytes(range(p))
        style = rng.random()
        if style < 0.2:
            base = [ident_q] * p
        elif style < 0.5:
            base = [_shuffled(q, rng)] * p
        elif style < 0.75:
            # the stream gives the block's table before the block
            block_table = _shuffled(q, rng)
            base = [ident_q] * p
            base[rng.randrange(p)] = block_table
        else:
            base = [_shuffled(q, rng) for _ in range(p)]
        tables.append(wreath_table(top, base))
    return tables


def _group(tables: List[bytes]) -> PermGroup:
    return PermGroup([Permutation._from_table(t) for t in tables], degree=len(tables[0]))


def _screen(tables: List[bytes]) -> Optional[int]:
    """None if the sample's group is intransitive; else its order if that
    is within ENUMERATION_BUDGET, and 0 if it is larger."""
    group = _group(tables)
    if not group.is_transitive():
        return None
    if group.order_exceeds(ENUMERATION_BUDGET):
        return 0
    return group.order()


@dataclass
class _SampleOutcome:
    pairs: int = 0
    counterexamples: List[dict] = field(default_factory=list)


def _analyze_sample(group: PermGroup) -> _SampleOutcome:
    """Compare every (transitive, intransitive) pair of normal subgroups of
    a transitive group within ENUMERATION_BUDGET."""
    outcome = _SampleOutcome()
    normals = group.all_normal_subgroups()
    transitive_subs, other_subs = [], []
    for sub in normals:
        (transitive_subs if sub.group.is_transitive() else other_subs).append(sub)
    for n1 in transitive_subs:
        for n2 in other_subs:
            if n1.index != n2.index:
                continue
            outcome.pairs += 1
            # G is transitive and N1, N2 are normal of equal index, so the
            # clause checker passes iff G/N1 and G/N2 are isomorphic
            if verify_candidate(group, n1.group, n2.group).passed:
                outcome.counterexamples.append({
                    "G": [g.cycle_string() for g in group.generators],
                    "N1": [g.cycle_string() for g in n1.group.generators],
                    "N2": [g.cycle_string() for g in n2.group.generators],
                    "index": n1.index,
                    "order": group.order(),
                })
    return outcome


# samples drawn, screened and deduped together
_BATCH = 10_000

# samples per screening task: a sample takes microseconds to screen, so a
# task carries many, but few enough that the workers finish together (at
# refute-15's 2000 samples, Pool.map's default of 250 per task left one
# worker idle for about 15 ms of a 60 ms screen)
_SCREEN_CHUNK = 50


def _cpus() -> List[int]:
    """The CPUs this process may run on."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return list(range(os.cpu_count() or 1))


def worker_processes(samples: int) -> int:
    """The number of worker processes `refute` starts for `samples`
    samples: one per CPU this process may run on, or none when there is
    no sample, one CPU or no fork, and the work then runs in process."""
    if samples == 0 or not hasattr(os, "fork"):
        return 0
    cpus = len(_cpus())
    return cpus if cpus > 1 else 0


def _pin_worker(cpus: List[int]) -> None:
    """Keep this pool worker on one CPU of `cpus`.

    A forked process starts on its parent's CPU, and the kernel may leave
    it there for longer than a pool lives, so that the workers take turns
    on one CPU.  Pool workers are numbered consecutively, so the workers
    of a pool of len(cpus) processes take distinct CPUs."""
    import multiprocessing

    number = multiprocessing.current_process()._identity[-1]
    try:
        os.sched_setaffinity(0, {cpus[number % len(cpus)]})
    except OSError:
        # never raise: the pool would start a worker whose initializer
        # failed again, without end
        pass


@contextmanager
def _worker_map(processes: int) -> Iterator[Callable[[Callable, list, int], list]]:
    """Yield a map(func, items, chunksize) that returns func of each item
    in item order, over a fork-context pool of `processes` workers, one
    per CPU; with no processes it is the builtin map, in process.  The
    pool is closed and joined on exit."""
    if processes == 0:
        yield lambda func, items, chunksize: list(map(func, items))
        return
    import multiprocessing  # only here: the import costs time and memory

    # fork, not spawn: a spawned worker starts a new interpreter and imports
    # permwit, about 0.13 s on a 2-core VM, more than the workers save on a
    # 2000-sample run.  A forked worker flushes the standard streams it
    # inherits when it exits, but the fork start method flushes both before
    # each fork, so nothing written earlier is written twice.
    pin = _pin_worker if hasattr(os, "sched_setaffinity") else None
    pool = multiprocessing.get_context("fork").Pool(processes, pin, (_cpus(),))
    try:
        yield pool.map
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()


def refute(p: int, q: int, samples: int, seed: int) -> RefutationReport:
    """Run the census evidence plus the seeded randomized search."""
    _check_hypothesis(p, q)
    if samples < 0:
        raise HypothesisError(f"sample count must be non-negative, got {samples}")
    # under the hypothesis, p is the only prime the report's sweeps cover
    evidence = census_report(q)
    verdicts = {
        "wielandt": all(w["passed"] for w in evidence["wielandt"]),
        "burnside": all(b["passed"] for b in evidence["burnside"]),
        "containment": evidence["containment"]["passed"],
        "index_divisibility": evidence["index_divisibility"][str(p)]["passed"],
    }
    report = RefutationReport(
        p=p, q=q, degree=p * q,
        hypothesis_ok=True,
        method=METHOD,
        seed=seed,
        samples_requested=samples,
        census_orders=evidence["orders"],
        census_verdicts=verdicts,
    )

    rng = Random(seed)
    report.samples_tested = samples
    # the distinct small transitive groups, first seen first, and for each
    # order the indices of the listed groups of that order; a sample of
    # equal order whose generators lie in a listed group's chain is that
    # group
    groups: List[PermGroup] = []
    same_order: Dict[int, List[int]] = {}
    group_of: List[int] = []  # per small sample, its index in `groups`
    with _worker_map(worker_processes(samples)) as map_in_order:
        for start in range(0, samples, _BATCH):
            drawn = [_draw_generators(p, q, rng)
                     for _ in range(min(_BATCH, samples - start))]
            screened = map_in_order(_screen, drawn, _SCREEN_CHUNK)
            for tables, order in zip(drawn, screened):
                if order is None:
                    continue
                report.transitive_found += 1
                if order == 0:
                    report.skipped_large += 1
                    continue
                listed = same_order.setdefault(order, [])
                k = next((k for k in listed
                          if all(groups[k].chain.contains(t) for t in tables)), None)
                if k is None:
                    k = len(groups)
                    groups.append(_group(tables))
                    listed.append(k)
                group_of.append(k)
        outcomes = map_in_order(_analyze_sample, groups, 1)
    report.small_groups_tested = len(group_of)
    for k in group_of:
        report.pairs_tested += outcomes[k].pairs
        report.counterexamples.extend(outcomes[k].counterexamples)
    return report
