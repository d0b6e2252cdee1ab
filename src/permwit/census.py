"""Census of transitive subgroups of S_q for small prime q, with machine
checks of the classical structure results the refutation pipeline rests on.

Every transitive group of prime degree q contains a q-cycle, so up to
conjugacy it contains the standard cycle C = <(1 2 ... q)>.  Two
overgroups of C that are conjugate in S_q are already conjugate by an
element normalizing C, and that normalizer is the affine group AGL(1,q).
The census therefore enumerates overgroups of C by iterated one-element
extensions (double-coset sweeps make each extension pass exact) and
dedupes up to AGL(1,q)-conjugacy.  Two independent dedupe routes are run
and must agree: a sweep over canonical class representatives, and a
complete element-set enumeration partitioned into classes afterwards.
Both routes run one breadth-first driver, `_overgroups`, over the sorted
element list of S_q, each with its own start group, canonical form and
sweeps; they share no sweep or closure, so the cross-check compares two
independent dedupes.  At q = 7, with more than one CPU, the two routes run
side by side, one in this process and one in a forked child
(`workers.map_in_order`); at q <= 5 each route takes about as long as a
fork round trip, and both run in process.  The census is the same either
way.

Each census fact is computed once: the sorted element list of S_q is
closed once per q and shared by the census and the containment check, an
entry keeps its lattice, its simple transitive normal subgroups and, when
simple, its normalizer in S_q.  Entries are built once, smallest order
first, and a normal subgroup that is itself an entry takes its simplicity
from that entry, so no group's lattice is computed twice.
`census_report` runs the four checks, and the refutation pipeline reads
its verdicts from that report.  A failed check is a verdict in the
report, not an error: an entry that is neither affine nor doubly
transitive is listed, and `verify_burnside` reports it as failed.  Only
the internal cross-checks and sanity checks that no report covers raise.

The sweeps work on the subgroup A they start from, whose elements are
known.  A `PermGroup` on A's generators and g gives the order of <A, g>
before any element is listed; `order_exceeds` stops its chain build once
the order passes |S_q| - 1, and a closure of the order of S_q is S_q.
A closure of the same order as one the same `_overgroups` call already
listed, and whose generators that one holds, is that closure; each call
keeps its own record, so the routes still share no closure.  Only the
rest are listed, as A extended by whole left cosets
(`kernels.extend_elements`), and the count must equal the group's order.
One element g is swept per double coset A g A, and since <A, g> =
<A, g^k> for k prime to the order of g, handling g covers the double
cosets of all those powers too, and no chain is built for them.  The
double coset A g A is a union of left cosets of A, AGL-conjugates are
taken with one conjugator per left coset of A & AGL, and the normalizer
in S_q and the centralizer of C are tested one left coset at a time.

`in_affine` is a subset test: C is the only Sylow q-subgroup of AGL(1,q),
so an entry with a conjugate inside AGL(1,q) lies inside it.

Exact for q in {2, 3, 5, 7}; larger degrees are out of budget.
"""

from __future__ import annotations

import functools
import math
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from permwit import kernels
from permwit.errors import BudgetExceeded, HypothesisError, PermwitError
from permwit.group import NormalSubgroup, PermGroup, group_from_elements
from permwit.numthy import is_prime, pq_hypothesis_failure, primitive_root
from permwit.perm import MAX_DEGREE, Permutation
from permwit.quotient import is_cyclic, quotient
from permwit.witness import build_sigma, standard_cycle
from permwit.workers import map_in_order, worker_processes

EXACT_LIMIT = 7
# the size of S_q from which the two census routes run side by side: a fork
# round trip costs about 2.5 ms, and each route about 1 ms at q = 5 (120
# elements) and 25 ms at q = 7 (5040 elements), on a 2-core VM
_SIDE_BY_SIDE_FROM = 1000

Fingerprint = Tuple[bytes, ...]
# closures listed by one `_overgroups` call: order -> (member set, sorted tuple)
Listed = Dict[int, List[Tuple[Set[bytes], Fingerprint]]]


def affine_group(q: int) -> PermGroup:
    """AGL(1,q) on points 1..q (point k is the field element k-1):
    generated by x -> x+1 and x -> g*x for g the smallest primitive root."""
    if not is_prime(q):
        raise HypothesisError(f"{q} is not prime")
    translation = standard_cycle(q)
    if q == 2:
        return PermGroup([translation])
    return PermGroup([translation, build_sigma(q, primitive_root(q))])


class CensusEntry(NamedTuple):
    """A transitive group of degree q.  `normalizer`, its normalizer in S_q,
    is kept for simple entries and is None otherwise.
    `simple_transitive_normals` lists its nontrivial normal subgroups that
    are transitive and simple, in lattice order."""

    q: int
    group: PermGroup
    order: int
    normal_subgroups: Tuple[NormalSubgroup, ...]
    is_simple: bool
    is_2transitive: bool
    in_affine: bool
    normalizer: Optional[PermGroup]
    simple_transitive_normals: Tuple[NormalSubgroup, ...]

    @property
    def normalizer_index(self) -> Optional[int]:
        return None if self.normalizer is None else self.normalizer.order() // self.order

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "generators": [g.cycle_string() for g in self.group.generators],
            "normal_subgroup_orders": [sub.order for sub in self.normal_subgroups],
            "is_simple": self.is_simple,
            "is_2transitive": self.is_2transitive,
            "in_affine": self.in_affine,
            "normalizer_index": self.normalizer_index,
        }


@functools.cache
def _symmetric_elements(q: int) -> Tuple[bytes, ...]:
    """The sorted element tables of S_q, closed once per q."""
    gens = [standard_cycle(q).table]
    if q > 1:
        swap = list(range(q))
        swap[0], swap[1] = 1, 0
        gens.append(bytes(swap))
    return tuple(sorted(kernels.close_elements(q, gens, math.factorial(q))))


def _conjugate_set(tables: Sequence[bytes], u: bytes) -> Fingerprint:
    return tuple(sorted(kernels.conjugate(t, u) for t in tables))


def _coset_reps(xs: Iterable[bytes], h_elements: Sequence[bytes],
                covered: Set[bytes]) -> List[bytes]:
    """The x in `xs` outside `covered`, each of which then adds its whole
    left coset x*H (H listed by `h_elements`) to `covered`."""
    reps = []
    for x in xs:
        if x not in covered:
            covered.update(kernels.left_coset(x, h_elements))
            reps.append(x)
    return reps


def _agl_conjugates(exact: Fingerprint, agl_elements: Sequence[bytes]) -> Set[Fingerprint]:
    """Every AGL(1,q)-conjugate of the subgroup H with sorted element tuple
    `exact`.  Conjugation by u and by u*k gives the same group for k in
    K = H & AGL, so one conjugator per left coset u*K is used; a u inside
    H gives H itself."""
    members = set(exact)
    k_elements = [u for u in agl_elements if u in members]
    return {exact if u in members else _conjugate_set(exact, u)
            for u in _coset_reps(agl_elements, k_elements, set())}


def _double_coset(a_elements: Sequence[bytes], g: bytes) -> Set[bytes]:
    """A g A for the group A listed by `a_elements`: the union of the left
    cosets (a*g)*A for a in A."""
    covered: Set[bytes] = set()
    _coset_reps((kernels.compose(a, g) for a in a_elements), a_elements, covered)
    return covered


def _generating_powers(g: bytes, limit: int) -> List[bytes]:
    """The powers g^k with k prime to the order of g, g itself first: the
    elements that generate the same cyclic group as g.  They are read from
    `kernels.close_elements`, whose list of <g> is [1, g, g^2, ...]; the
    order of g must be at most `limit`."""
    powers = kernels.close_elements(len(g), [g], limit)
    return [x for k, x in enumerate(powers) if math.gcd(k, len(powers)) == 1]


def _extensions(start: Fingerprint, ambient: Sequence[bytes],
                listed: Listed) -> Iterator[Fingerprint]:
    """The sorted element tuple of <A, g>, for A the subgroup with element
    tuple `start` and one g per class of double cosets of the ambient
    group, whose element list `ambient` must be sorted.  <A, g> = <A, a g b>
    for a, b in A, and <A, g> = <A, g^k> for k prime to the order of g, so
    once g is handled the double cosets A g^k A of all those powers are
    covered.

    The order of <A, g> comes from a `PermGroup` on A's generators and g.
    When `order_exceeds(|ambient| - 1)`, whose chain build stops at that
    limit, <A, g> is the ambient group, yielded as `tuple(ambient)`.
    `listed` maps an order to the member sets and sorted tuples of the
    closures of that order listed so far; one of them that holds every
    generator is <A, g>, since it has the same order.  Any other closure is
    listed coset by coset, must have exactly the group's order, and is
    added to `listed`."""
    if len(start) == len(ambient):
        return  # A is the ambient group, so no g lies outside it
    degree = len(start[0])
    a_gens = group_from_elements(start, degree).generators
    gens = [p.table for p in a_gens]
    covered = set(start)
    for g in ambient:
        if g in covered:
            continue
        tables = gens + [g]  # distinct and non-identity, as g lies outside A
        group = PermGroup(a_gens + (Permutation._from_table(g),), degree=degree)
        if group.order_exceeds(len(ambient) - 1):
            yield tuple(ambient)
        else:
            order = group.order()
            same_order = listed.setdefault(order, [])
            exact = next((known for members, known in same_order
                          if members.issuperset(tables)), None)
            if exact is None:
                closure = kernels.extend_elements(start, tables, order)
                if closure is None or len(closure) != order:
                    raise PermwitError(
                        f"coset enumeration disagrees with the stabilizer chain "
                        f"order {order}")
                exact = tuple(sorted(closure))
                same_order.append((set(closure), exact))
            yield exact
        for power in _generating_powers(g, len(ambient)):
            if power not in covered:
                covered |= _double_coset(start, power)


def _overgroups(start: Fingerprint, ambient: Sequence[bytes],
                canon: Callable[[Fingerprint], Fingerprint]) -> Set[Fingerprint]:
    """`start` and every `canon(closure)` reached from it by breadth-first
    one-element extensions inside the sorted `ambient`; `start` must be its
    own canonical form.  Each closure is listed at most once per call."""
    found = {start}
    work = [start]
    listed: Listed = {}
    for sub in work:  # `work` grows while it is read
        for closure in _extensions(sub, ambient, listed):
            key = canon(closure)
            if key not in found:
                found.add(key)
                work.append(key)
    return found


def _cycle_group(q: int) -> Fingerprint:
    """The sorted element tuple of the standard cycle group C."""
    return tuple(sorted(kernels.close_elements(q, [standard_cycle(q).table], q)))


def _enumerate_class_reps(q: int, sq_elements: Sequence[bytes],
                          agl_elements: Sequence[bytes]) -> Set[Fingerprint]:
    """Route A: sweep canonical class representatives only.  A subgroup's
    canonical key is the lexicographically least sorted element tuple over
    its AGL conjugates, computed once per subgroup."""
    @functools.cache
    def key(exact: Fingerprint) -> Fingerprint:
        return min(_agl_conjugates(exact, agl_elements))

    return _overgroups(key(_cycle_group(q)), sq_elements, key)


def _enumerate_all_overgroups(q: int, sq_elements: Sequence[bytes]) -> Set[Fingerprint]:
    """Route B: every overgroup of the standard cycle group, by exact
    element-set fingerprint."""
    return _overgroups(_cycle_group(q), sq_elements, lambda exact: exact)


def _partition_into_classes(overgroups: Set[Fingerprint], agl_elements: Sequence[bytes]
                            ) -> List[Fingerprint]:
    """Partition route B's collection into AGL-conjugacy classes and return
    each class's canonical (lex-least) member.  Every conjugate of a
    collected overgroup must itself have been collected."""
    remaining = set(overgroups)
    canon: List[Fingerprint] = []
    while remaining:
        # an AGL orbit is closed under conjugation, so checking that the
        # whole orbit was collected checks every conjugate of its members
        orbit = _agl_conjugates(min(remaining), agl_elements)
        if not orbit <= overgroups:
            raise PermwitError(
                "census completeness cross-check failed: an AGL "
                "conjugate of a collected overgroup is missing")
        remaining -= orbit
        canon.append(min(orbit))
    return sorted(canon)


def _normalizer_tables(group: PermGroup, sq_elements: Sequence[bytes]) -> List[bytes]:
    """The normalizer of the group in S_q, as sorted tables.  It is a union
    of left cosets x*G, so one x per coset is tested, by membership of its
    generator conjugates in G's element set."""
    elements = group.element_tables()
    members = set(elements)
    gen_tables = [g.table for g in group.generators]
    out: List[bytes] = []
    for x in _coset_reps(sq_elements, elements, set()):
        if all(kernels.conjugate(t, x) in members for t in gen_tables):
            out.extend(kernels.left_coset(x, elements))
    return sorted(out)


def census(q: int) -> List[CensusEntry]:
    """All transitive subgroups of S_q up to conjugacy, smallest order first.

    Exact, with the two dedupe routes cross-checked, for q <= 7; larger
    q raises BudgetExceeded.
    """
    if q > MAX_DEGREE:  # before is_prime's trial division
        raise HypothesisError(f"degree must be at most {MAX_DEGREE}, got {q}")
    if not is_prime(q):
        raise HypothesisError(f"{q} is not prime")
    if q > EXACT_LIMIT:
        raise BudgetExceeded(f"census is exact only for q <= {EXACT_LIMIT}")

    sq_elements = _symmetric_elements(q)
    agl_elements = affine_group(q).element_tables()
    agl_set = set(agl_elements)
    routes = (
        lambda: sorted(_enumerate_class_reps(q, sq_elements, agl_elements)),
        lambda: _partition_into_classes(_enumerate_all_overgroups(q, sq_elements),
                                        agl_elements),
    )
    processes = worker_processes(len(routes)) if len(sq_elements) >= _SIDE_BY_SIDE_FROM else 0
    route_a, route_b = map_in_order(processes, lambda route: route(), routes, 1)
    if route_a != route_b:
        raise PermwitError(
            f"census cross-check failed for q={q}: AGL-dedupe found "
            f"{len(route_a)} classes, element-fingerprint dedupe {len(route_b)}")

    cycle_table = standard_cycle(q).table
    entries: List[CensusEntry] = []
    # a stable sort of the sorted classes, so entries of equal order keep
    # their fingerprint order
    for exact in sorted(route_a, key=len):
        group = group_from_elements(exact, q)
        order = group.order()
        if not group.is_transitive():
            raise PermwitError("census produced a non-transitive group")
        if order % q != 0:
            raise PermwitError("census entry order is not divisible by q")
        if cycle_table not in set(exact):
            raise PermwitError("census entry lost the standard q-cycle")
        normals = group.all_normal_subgroups()
        simple = len(normals) == 2
        two_transitive = group.is_2_transitive()
        # C is the only Sylow q-subgroup of AGL(1,q), so if u H u^-1 <= AGL
        # then u C u^-1 = C, u normalizes C and lies in AGL, and H <= AGL
        in_aff = agl_set.issuperset(exact)
        # a normal subgroup of the entry's own order is the entry; every
        # entry of a smaller order is already listed
        simple_normals = tuple(
            sub for sub in normals
            if sub.order > 1 and sub.group.is_transitive()
            and (simple if sub.order == order else _is_simple(sub, entries)))
        entries.append(CensusEntry(
            q=q, group=group, order=order, normal_subgroups=normals,
            is_simple=simple, is_2transitive=two_transitive, in_affine=in_aff,
            normalizer=group_from_elements(_normalizer_tables(group, sq_elements), q)
            if simple else None,
            simple_transitive_normals=simple_normals))
    return entries


def _is_simple(sub: NormalSubgroup, entries: List[CensusEntry]) -> bool:
    """Whether a normal subgroup of a census entry is simple.  An entry of
    the subgroup's order that holds its generators is the same group, whose
    simplicity is known, so only a subgroup that is no entry has its
    lattice computed."""
    for entry in entries:
        if entry.order == sub.order and all(map(entry.group.contains, sub.group.generators)):
            return entry.is_simple
    return len(sub.group.all_normal_subgroups()) == 2


class WielandtReport(NamedTuple):
    order: int
    applicable: bool
    normalizer_order: Optional[int] = None
    normalizer_index: Optional[int] = None
    index_divides_q_minus_1: Optional[bool] = None
    quotient_cyclic: Optional[bool] = None

    @property
    def passed(self) -> bool:
        if not self.applicable:
            return True
        return bool(self.index_divides_q_minus_1 and self.quotient_cyclic)

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed}


def verify_wielandt(entry: CensusEntry) -> WielandtReport:
    """For a simple transitive entry: the normalizer quotient in S_q is
    cyclic of order dividing q-1.  Non-simple entries are not applicable.
    Reads the normalizer stored on the entry."""
    if not entry.is_simple:
        return WielandtReport(order=entry.order, applicable=False)
    normalizer = entry.normalizer
    index = entry.normalizer_index
    table = quotient(normalizer, entry.group)
    return WielandtReport(
        order=entry.order,
        applicable=True,
        normalizer_order=normalizer.order(),
        normalizer_index=index,
        index_divides_q_minus_1=(entry.q - 1) % index == 0,
        quotient_cyclic=is_cyclic(table),
    )


class BurnsideReport(NamedTuple):
    order: int
    in_affine: bool
    doubly_transitive: bool
    simple_normal_order: Optional[int]

    @property
    def passed(self) -> bool:
        return self.in_affine or (
            self.doubly_transitive and self.simple_normal_order is not None)

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed}


def verify_burnside(entry: CensusEntry) -> BurnsideReport:
    """Dichotomy: the entry embeds in AGL(1,q), or it is doubly transitive
    with a nonabelian simple transitive normal subgroup."""
    witness_order = next(
        (sub.order for sub in entry.simple_transitive_normals
         if any(g * h != h * g
                for g in sub.group.generators for h in sub.group.generators)),
        None)
    return BurnsideReport(
        order=entry.order,
        in_affine=entry.in_affine,
        doubly_transitive=entry.is_2transitive,
        simple_normal_order=witness_order,
    )


class LemmaPqReport(NamedTuple):
    q: int
    p: int
    pairs_checked: int
    violations: List[dict]
    strong_violations: List[dict]

    @property
    def passed(self) -> bool:
        return not self.violations and not self.strong_violations

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed}


def verify_lemma_pq(q: int, p: int, entries: List[CensusEntry]) -> LemmaPqReport:
    """Exhaustive divisibility sweep over the census: for every transitive A
    of degree q and every normal B of A, p | [A:B] forces q | [A:B]; the
    stronger form additionally forces B trivial.  Requires p < q primes
    with p not dividing q-1."""
    failure = pq_hypothesis_failure(p, q)
    if failure is not None:
        raise HypothesisError(failure)
    pairs = 0
    violations = []
    strong = []
    for entry in entries:
        for sub in entry.normal_subgroups:
            pairs += 1
            if sub.index % p != 0:
                continue
            record = {"A_order": entry.order, "B_order": sub.order,
                      "index": sub.index}
            if sub.index % q != 0:
                violations.append(record)
            if sub.order != 1:
                strong.append(record)
    return LemmaPqReport(q=q, p=p, pairs_checked=pairs,
                         violations=violations, strong_violations=strong)


class ContainReport(NamedTuple):
    q: int
    groups_with_simple_transitive_normal: int
    containment_failures: List[dict]
    centralizer_of_cycle_order: int

    @property
    def centralizer_ok(self) -> bool:
        return self.centralizer_of_cycle_order == self.q

    @property
    def passed(self) -> bool:
        return not self.containment_failures and self.centralizer_ok

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "centralizer_ok": self.centralizer_ok,
                "passed": self.passed}


def verify_contain(q: int, entries: List[CensusEntry]) -> ContainReport:
    """Whenever a census entry G has a transitive simple normal subgroup H,
    every nontrivial normal subgroup of G must contain H.  Also checks
    directly that the centralizer of the standard q-cycle c in S_q is the
    cycle's own group (order exactly q).  If x commutes with c, so does
    every element of the left coset x<c>, so one x per coset is tested
    and counts q."""
    sq_elements = _symmetric_elements(q)
    checked = 0
    failures = []
    for entry in entries:
        if not entry.simple_transitive_normals:
            continue
        checked += 1
        for h_sub in entry.simple_transitive_normals:
            for n_sub in entry.normal_subgroups:
                if n_sub.order == 1:
                    continue
                if h_sub.mask & ~n_sub.mask:
                    failures.append({
                        "G_order": entry.order,
                        "H_order": h_sub.order,
                        "N_order": n_sub.order,
                    })
    cycle_table = standard_cycle(q).table
    # x commutes with the cycle c iff x c x^-1 = c
    commuting = sum(kernels.conjugate(cycle_table, x) == cycle_table
                    for x in _coset_reps(sq_elements, _cycle_group(q), set()))
    return ContainReport(q=q, groups_with_simple_transitive_normal=checked,
                         containment_failures=failures,
                         centralizer_of_cycle_order=q * commuting)


def applicable_primes(q: int) -> List[int]:
    """Primes p < q with p not dividing q-1 (the divisibility sweep's scope)."""
    return [p for p in range(2, q) if pq_hypothesis_failure(p, q) is None]


def census_report(q: int) -> dict:
    """JSON-ready full census report: entries, flags, and all verdicts."""
    entries = census(q)
    wielandt = [verify_wielandt(e).to_json_dict() for e in entries]
    burnside = [verify_burnside(e).to_json_dict() for e in entries]
    contain = verify_contain(q, entries).to_json_dict()
    sweeps = {
        str(p): verify_lemma_pq(q, p, entries).to_json_dict()
        for p in applicable_primes(q)
    }
    return {
        "q": q,
        "method": "exact",
        "complete": True,
        "entry_count": len(entries),
        "orders": [e.order for e in entries],
        "entries": [e.to_json_dict() for e in entries],
        "wielandt": wielandt,
        "burnside": burnside,
        "containment": contain,
        "index_divisibility": sweeps,
        "passed": (
            all(w["passed"] for w in wielandt)
            and all(b["passed"] for b in burnside)
            and contain["passed"]
            and all(s["passed"] for s in sweeps.values())
        ),
    }
