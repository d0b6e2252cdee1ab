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

The search runs in three phases on one batch of _BATCH samples at a
time, so that memory does not grow with the sample count:

1. Draw: the batch's generator tables, in sample order, from one
   Random(seed) stream, in this process.
2. Outcome: each sample in one worker call (`_sample_outcome`), spread
   over the workers.  Its group is intransitive, over
   ENUMERATION_BUDGET, or small; a small group is analysed on the
   stabilizer chain its screen built, unless the worker has already
   analysed a group of its order whose chain holds every generator of
   the sample, which is then the same group.  That memo keeps only each
   group's chain and pair count, and only for a group without
   counterexamples, so the elements and lattice of an analysed group
   live only as long as its analysis, and a counterexample entry lists
   the generators of the sample that produced it.
3. Sum: the outcomes, in sample order, in this process.

The outcomes go through `workers.map_in_order`: one worker per chunk, up
to one per CPU, each on its own CPU; with one chunk, one CPU or no fork,
the same function runs in process.  Each outcome depends only on its
sample; the memo only skips an analysis whose result it already holds.
Results come back in input order, and all that depends on order (the
draw and the sums) runs in this process, so the report cannot depend on
the number of workers or on which finishes first.  Reports are
byte-for-byte deterministic given (p, q, samples, seed); the command line
times the run and prints the time and the CPU count on stderr only.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, NamedTuple, Optional, Tuple

from permwit.errors import BudgetExceeded, HypothesisError
from permwit.group import ENUMERATION_BUDGET, PermGroup, StabilizerChain
from permwit.numthy import pq_hypothesis_failure
from permwit.perm import MAX_DEGREE, Permutation
from permwit.census import EXACT_LIMIT, census_report
from permwit.witness import verify_candidate
from permwit.workers import map_in_order
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


def _analyze_sample(group: PermGroup) -> Tuple[int, List[dict]]:
    """The number of equal-index (transitive, intransitive) pairs of normal
    subgroups of `group`, which must be transitive and within
    ENUMERATION_BUDGET, and the counterexamples among them."""
    pairs = 0
    counterexamples = []
    transitive_subs, other_subs = [], []
    for sub in group.all_normal_subgroups():
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


def _sample_outcome(tables: List[bytes], memo: Dict[int, List[Tuple[StabilizerChain, int]]]
                    ) -> Optional[Tuple[Optional[int], List[dict]]]:
    """One sample from start to finish: None if its group is intransitive,
    (None, []) if the group is over ENUMERATION_BUDGET, and otherwise the
    group's (pairs, counterexamples) from `_analyze_sample`.  `memo` maps
    an order to the (chain, pairs) of each group of that order analysed
    with this memo and found to have no counterexample."""
    group = PermGroup([Permutation._from_table(t) for t in tables], degree=len(tables[0]))
    if not group.is_transitive():
        return None
    if group.order_exceeds(ENUMERATION_BUDGET):
        return None, []
    order = group.order()
    for chain, pairs in memo.get(order, ()):
        # equal order and every generator inside: the sample's group
        if all(chain.contains(t) for t in tables):
            return pairs, []
    pairs, counterexamples = _analyze_sample(group)
    if not counterexamples:
        memo.setdefault(order, []).append((group.chain, pairs))
    return pairs, counterexamples


# samples drawn together, whose tables and outcomes are held at once
_BATCH = 10_000

# samples per chunk: most samples are screened out in microseconds, while
# an analysis takes up to tens of milliseconds, so a chunk carries many
# samples, but few enough that the workers, which claim chunks in order,
# finish together
_CHUNK = 50


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
    memo: Dict[int, List[Tuple[StabilizerChain, int]]] = {}
    transitive_found = 0
    small: List[Tuple[int, List[dict]]] = []  # the outcomes of the small samples
    for start in range(0, samples, _BATCH):
        drawn = [_draw_generators(p, q, rng)
                 for _ in range(min(_BATCH, samples - start))]
        outcomes = map_in_order(lambda tables: _sample_outcome(tables, memo), drawn, _CHUNK)
        transitive = [outcome for outcome in outcomes if outcome is not None]
        transitive_found += len(transitive)
        small += [outcome for outcome in transitive if outcome[0] is not None]
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
        skipped_large=transitive_found - len(small),
        small_groups_tested=len(small),
        pairs_tested=sum(pairs for pairs, _ in small),
        counterexamples=[c for _, found in small for c in found],
    )
