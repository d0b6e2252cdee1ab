"""Nonexistence pipeline for degree p*q (p < q primes, p not dividing q-1).

No transitive group of such a degree can carry a transitive normal
subgroup and a non-transitive normal subgroup with isomorphic quotients.
The machine evidence is the exact census of degree-q transitive groups
together with the divisibility sweep over all their normal subgroups
(plus the normalizer and dichotomy checks those rest on); exhausting
degree-pq groups themselves is far beyond desk scale.  As corroboration,
a seeded randomized search draws generator sets biased toward the
imprimitive groups any counterexample would have to live in, and feeds
every transitive sample through the full witness clause checker.

Each group within ENUMERATION_BUDGET is analysed once per run.  A sample
whose order equals that of a group already analysed, and whose generators
all lie in that group's stabilizer chain, is the same group and reuses its
outcome, so a counterexample entry lists the generators of the first
sample that produced its group.

Reports are byte-for-byte deterministic given (p, q, samples, seed);
the command line times the run and prints the time on stderr only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from random import Random
from typing import Dict, List, Tuple

from permwit.errors import BudgetExceeded, HypothesisError
from permwit.group import ENUMERATION_BUDGET, PermGroup, StabilizerChain
from permwit.numthy import pq_hypothesis_failure
from permwit.perm import MAX_DEGREE, Permutation, random_permutation
from permwit.census import EXACT_LIMIT, census_report
from permwit.witness import verify_candidate
from permwit.wreath import WreathElement

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


def _random_wreath_perm(p: int, q: int, rng: Random, mix_blocks: bool) -> Permutation:
    top = random_permutation(p, rng) if mix_blocks else Permutation.identity(p)
    # uniform base tuples almost surely generate enormous groups, which the
    # order budget would just skip; pure-top, diagonal and single-block
    # styles keep a useful fraction of samples inside the budget
    style = rng.random()
    if style < 0.2:
        base = tuple(Permutation.identity(q) for _ in range(p))
    elif style < 0.5:
        shared = random_permutation(q, rng)
        base = tuple(shared for _ in range(p))
    elif style < 0.75:
        entries = [Permutation.identity(q)] * p
        entries[rng.randrange(p)] = random_permutation(q, rng)
        base = tuple(entries)
    else:
        base = tuple(random_permutation(q, rng) for _ in range(p))
    return WreathElement(top=top, base=base).as_permutation()


def _draw_generators(p: int, q: int, rng: Random) -> List[Permutation]:
    degree = p * q
    count = rng.choice((2, 2, 3, 4))
    gens = []
    for _ in range(count):
        r = rng.random()
        if r < 0.15:
            gens.append(random_permutation(degree, rng))  # unbiased control
        elif r < 0.55:
            gens.append(_random_wreath_perm(p, q, rng, mix_blocks=True))
        else:
            gens.append(_random_wreath_perm(p, q, rng, mix_blocks=False))
    return gens


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
    degree = p * q
    # order -> (chain, outcome) of each small transitive group analysed so
    # far; a sample of equal order whose generators lie in a listed chain
    # is that group
    analysed: Dict[int, List[Tuple[StabilizerChain, _SampleOutcome]]] = {}
    for _ in range(samples):
        gens = _draw_generators(p, q, rng)
        report.samples_tested += 1
        group = PermGroup(gens, degree=degree)
        if not group.is_transitive():
            continue
        report.transitive_found += 1
        if group.order_exceeds(ENUMERATION_BUDGET):
            report.skipped_large += 1
            continue
        report.small_groups_tested += 1
        same_order = analysed.setdefault(group.order(), [])
        outcome = next((known for chain, known in same_order
                        if all(chain.contains(g.table) for g in gens)), None)
        if outcome is None:
            outcome = _analyze_sample(group)
            same_order.append((group.chain, outcome))
        report.pairs_tested += outcome.pairs
        report.counterexamples.extend(outcome.counterexamples)
    return report
