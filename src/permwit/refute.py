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
   with its order; spread over the workers, many samples per chunk.
3. Dedupe: in this process, in sample order.  A small sample whose order
   equals that of a group already listed, and whose generators all lie
   in that group's stabilizer chain, is the same group; otherwise its
   group is listed.  Chains are built only for small samples.
4. Analyse: each listed group once, spread over the workers, one group
   per chunk, since their costs are very uneven; then each small sample
   adds its group's outcome to the report, in sample order.  A worker
   builds the group again from its generator tables, so the elements and
   lattice of an analysed group live only as long as its analysis.  A
   counterexample entry lists the generators of the first sample that
   produced its group.

The screen and the analysis go through `workers.map_in_order`: this
process and one forked child per further CPU it may run on, each on its
own CPU; with one CPU, no fork or too little work, the same functions run
in process.  Every worker function depends on its input alone, results
come back in input order, and all that depends on order (the draw, the
dedupe and the sums) runs in this process, so the report cannot depend on
the number of workers or on which finishes first.  Reports are
byte-for-byte deterministic given (p, q, samples, seed); the command line
times the run and prints the time and the worker count on stderr only.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, NamedTuple, Optional, Tuple

from permwit.errors import BudgetExceeded, HypothesisError
from permwit.group import ENUMERATION_BUDGET, PermGroup
from permwit.numthy import pq_hypothesis_failure
from permwit.perm import MAX_DEGREE, Permutation
from permwit.census import EXACT_LIMIT, census_report
from permwit.witness import verify_candidate
from permwit.workers import map_in_order, worker_processes
from permwit.wreath import wreath_table

METHOD = (
    "evidence: exact transitive census at degree q plus the zero-violation "
    "divisibility sweep over every (group, normal subgroup) pair; the "
    "degree-pq random sampling below is seeded corroboration only, not an "
    "exhaustive enumeration"
)


class RefutationReport(NamedTuple):
    p: int
    q: int
    degree: int
    hypothesis_ok: bool
    method: str
    seed: int
    samples_requested: int
    census_orders: List[int]
    census_verdicts: Dict[str, bool]
    samples_tested: int
    transitive_found: int
    skipped_large: int
    small_groups_tested: int
    pairs_tested: int
    counterexamples: List[dict]

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
        return {**self._asdict(), "counterexamples_found": self.counterexamples_found,
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


def _analyze_sample(tables: List[bytes]) -> Tuple[int, List[dict]]:
    """The number of equal-index (transitive, intransitive) pairs of normal
    subgroups of the group generated by `tables`, which must be transitive
    and within ENUMERATION_BUDGET, and the counterexamples among them."""
    group = _group(tables)
    pairs = 0
    counterexamples = []
    normals = group.all_normal_subgroups()
    transitive_subs, other_subs = [], []
    for sub in normals:
        (transitive_subs if sub.group.is_transitive() else other_subs).append(sub)
    for n1 in transitive_subs:
        for n2 in other_subs:
            if n1.index != n2.index:
                continue
            pairs += 1
            # G is transitive and N1, N2 are normal of equal index, so the
            # clause checker passes iff G/N1 and G/N2 are isomorphic
            if verify_candidate(group, n1.group, n2.group).passed:
                counterexamples.append({
                    "G": [g.cycle_string() for g in group.generators],
                    "N1": [g.cycle_string() for g in n1.group.generators],
                    "N2": [g.cycle_string() for g in n2.group.generators],
                    "index": n1.index,
                    "order": group.order(),
                })
    return pairs, counterexamples


# samples drawn, screened and deduped together
_BATCH = 10_000

# samples per screening chunk: a sample takes microseconds to screen, so a
# chunk carries many, but few enough that the workers finish together (at
# refute-15's 2000 samples, tasks of 250 left one worker idle for about
# 15 ms of a 60 ms screen)
_SCREEN_CHUNK = 50


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

    rng = Random(seed)
    transitive_found = skipped_large = 0
    # the distinct small transitive groups, first seen first, and for each
    # order the indices of the listed groups of that order; a sample of
    # equal order whose generators lie in a listed group's chain is that
    # group
    groups: List[PermGroup] = []
    listed_tables: List[List[bytes]] = []  # per listed group, its first sample's tables
    same_order: Dict[int, List[int]] = {}
    group_of: List[int] = []  # per small sample, its index in `groups`
    processes = worker_processes(samples)
    for start in range(0, samples, _BATCH):
        drawn = [_draw_generators(p, q, rng)
                 for _ in range(min(_BATCH, samples - start))]
        screened = map_in_order(processes, _screen, drawn, _SCREEN_CHUNK)
        for tables, order in zip(drawn, screened):
            if order is None:
                continue
            transitive_found += 1
            if order == 0:
                skipped_large += 1
                continue
            listed = same_order.setdefault(order, [])
            k = next((k for k in listed
                      if all(groups[k].chain.contains(t) for t in tables)), None)
            if k is None:
                k = len(groups)
                groups.append(_group(tables))
                listed_tables.append(tables)
                listed.append(k)
            group_of.append(k)
    outcomes = map_in_order(processes, _analyze_sample, listed_tables, 1)
    # each small sample adds its group's outcome, in sample order
    return RefutationReport(
        p=p, q=q, degree=p * q,
        hypothesis_ok=True,
        method=METHOD,
        seed=seed,
        samples_requested=samples,
        census_orders=evidence["orders"],
        census_verdicts=verdicts,
        samples_tested=samples,
        transitive_found=transitive_found,
        skipped_large=skipped_large,
        small_groups_tested=len(group_of),
        pairs_tested=sum(outcomes[k][0] for k in group_of),
        counterexamples=[c for k in group_of for c in outcomes[k][1]],
    )
