"""Quotient groups as explicit Cayley tables, plus small-group isomorphism.

Quotients are materialized as multiplication tables on coset indices (the
orders here are tiny), which keeps isomorphism testing exact: a greedy
generating set, order-profile pruning, and a backtracking search that
self-checks any mapping it returns.

A quotient is built from one breadth-first walk over the left cosets xN
that G's generators reach from N.  `quotient` walks once the index
|G|/|N| is known to be at most QUOTIENT_BUDGET; a walk made before the
index is known (`walk_cosets`) stops past QUOTIENT_BUDGET cosets.  Each
coset is identified by a canonical key, the element of xN whose images of
N's base points are least in base order, which is looked up in a dict, so
a walk is linear in the index.  A finished walk that finds c cosets
proves |G| <= c |N| with no chain of G.  The isomorphism search gives up
after ISO_NODE_BUDGET nodes.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from permwit import kernels
from permwit.errors import BudgetExceeded, IsomorphismUndecided, NotNormal, PermwitError
from permwit.group import PermGroup, StabilizerChain, is_normal
from permwit.perm import Permutation

QUOTIENT_BUDGET = 1000  # largest index quotient() will tabulate
ISO_NODE_BUDGET = 10_000_000  # search nodes before find_isomorphism gives up


class CayleyTable(NamedTuple):
    """Multiplication table of a finite group on indices 0..m-1; 0 is the identity."""

    reps: Tuple[Permutation, ...]
    table: Tuple[Tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def element_order(self, i: int) -> int:
        k = 1
        x = i
        while x != 0:
            x = self.table[x][i]
            k += 1
        return k

    def validate(self) -> None:
        """Check the Latin-square, identity and associativity invariants."""
        m = self.order
        idx = set(range(m))
        for row in self.table:
            if set(row) != idx:
                raise PermwitError("Cayley table row is not a permutation of indices")
        for j in range(m):
            if {row[j] for row in self.table} != idx:
                raise PermwitError("Cayley table column is not a permutation of indices")
        if any(self.table[0][j] != j or self.table[j][0] != j for j in range(m)):
            raise PermwitError("index 0 is not the identity of the Cayley table")
        # Light's test: the elements s with (x*s)*y == x*(s*y) for all x, y
        # are closed under products, so checking a generating set suffices.
        # The checks above make element orders, hence the generators, finite.
        t = self.table
        for s in _greedy_generators(self):
            row_s = t[s]
            for row_x in t:
                row_xs = t[row_x[s]]
                if any(row_xs[y] != row_x[row_s[y]] for y in range(m)):
                    raise PermwitError("Cayley table is not associative")


def quotient(g_group: PermGroup, n_group: PermGroup) -> CayleyTable:
    """The factor group G/N as a Cayley table on coset representatives.

    Requires N normal in G and [G:N] = |G|/|N| at most QUOTIENT_BUDGET,
    checked before any coset is sought.  One breadth-first walk over the
    cosets (`walk_cosets`) finds the representatives and how each
    generator permutes the cosets; row a of the table is the row of a's
    parent coset followed by the generator that found a.
    """
    if not is_normal(n_group, g_group):
        raise NotNormal("the subgroup is not normal, so the quotient is undefined")
    return _coset_table(g_group, n_group)


class CosetWalk(NamedTuple):
    """The left cosets xN reached from N by G's generators, breadth first.

    reps[c] represents coset c as a 256-byte padded table, and reps[0] is
    the identity; parents[c - 1] is the (generator, source coset) pair that
    found coset c; action[gi][c] is the coset of generator gi times
    reps[c].  A walk that stopped past QUOTIENT_BUDGET cosets is not
    `finished`, and its lists are cut short.
    """

    reps: List[bytes]
    parents: List[Tuple[int, int]]
    action: List[List[int]]
    finished: bool


def _coset_key(chain: StabilizerChain) -> Callable[[bytes], bytes]:
    """The canonical key of a left coset xH, for H given by its complete
    chain and x padded to 256 bytes: the element of xH whose images of the
    base points are least, taken in base order, padded.

    Level k's orbit points are H^(k)'s images of base[k], so the elements
    of x H^(k) send base[k] to x's images of those points; x is multiplied
    by the representative of the point with the least image, which fixes
    the earlier base points, and the next level refines the result.
    """
    pad = kernels.PADDED_IDENTITY[chain.degree:]
    levels = []
    for trans in chain.transversals:
        points = bytes(trans)
        levels.append((points, [trans[y] + pad for y in points]))

    def key(x: bytes) -> bytes:
        for points, reps in levels:
            images = points.translate(x)
            x = reps[images.index(min(images))].translate(x)
        return x
    return key


def walk_cosets(g_group: PermGroup, n_group: PermGroup) -> CosetWalk:
    """Walk the left cosets xN that G's generators reach from N, breadth
    first, with one key (`_coset_key`) and one dict lookup per product.
    The walk stops, not `finished`, at coset QUOTIENT_BUDGET + 1.

    N need not lie in G or be normal in it: G permutes the left cosets of
    N in the symmetric group, and the stabilizer of N is G & N, so a
    finished walk that finds c cosets proves |G| = c |G & N| <= c |N|
    (orbit-stabilizer).
    """
    key = _coset_key(n_group.chain)
    pad = kernels.PADDED_IDENTITY[g_group.degree:]
    gen_tables = [g.table + pad for g in g_group.generators]
    reps = [kernels.PADDED_IDENTITY]
    coset_of = {key(reps[0]): 0}
    parents: List[Tuple[int, int]] = []
    action: List[List[int]] = [[] for _ in gen_tables]
    # reps grows while it is walked, so the walk reaches every coset
    for b, rep in enumerate(reps):
        for gi, g in enumerate(gen_tables):
            x = rep.translate(g)  # g * rep
            j = coset_of.setdefault(key(x), len(reps))
            if j == len(reps):
                if j == QUOTIENT_BUDGET:
                    return CosetWalk(reps, parents, action, finished=False)
                reps.append(x)
                parents.append((gi, b))
            action[gi].append(j)
    return CosetWalk(reps, parents, action, finished=True)


def _coset_table(g_group: PermGroup, n_group: PermGroup,
                 walk: Optional[CosetWalk] = None) -> CayleyTable:
    """`quotient` for an N already known to be normal in G: the budget
    check, then the table from `walk`, the walk of N's cosets under G's
    generators, made here when not given."""
    index = g_group.order() // n_group.order()
    if index > QUOTIENT_BUDGET:
        raise BudgetExceeded(
            f"quotient index {index} exceeds the budget of {QUOTIENT_BUDGET}")
    if walk is None:
        walk = walk_cosets(g_group, n_group)
    if not walk.finished or len(walk.reps) != index:
        found = len(walk.reps) if walk.finished else f"more than {QUOTIENT_BUDGET}"
        raise PermwitError(f"found {found} cosets, but |G|/|N| = {index}")

    # row a lists the cosets of reps[a]*reps[b]; parents come before children
    table = [tuple(range(index))]
    for gi, src in walk.parents:
        act = walk.action[gi]
        table.append(tuple(act[x] for x in table[src]))
    degree = g_group.degree
    result = CayleyTable(reps=tuple(Permutation._from_table(t[:degree]) for t in walk.reps),
                         table=tuple(table))
    result.validate()
    return result


def order_histogram(t: CayleyTable) -> Tuple[Tuple[int, int], ...]:
    """(element order, count) pairs sorted by order."""
    counts = Counter(t.element_order(i) for i in range(t.order))
    return tuple(sorted(counts.items()))


def _greedy_generators(t: CayleyTable) -> List[int]:
    """Generating indices chosen by repeatedly taking the largest-order
    element outside the current closure (smallest index on ties)."""
    m = t.order
    orders = [t.element_order(i) for i in range(m)]
    closure = {0}
    gens: List[int] = []
    while len(closure) < m:
        best = max((i for i in range(m) if i not in closure),
                   key=lambda i: (orders[i], -i))
        gens.append(best)
        # closure under right multiplication by chosen generators
        work = sorted(closure)
        seen = set(closure)
        for x in work:  # work grows while it is walked
            for g in gens:
                y = t.table[x][g]
                if y not in seen:
                    seen.add(y)
                    work.append(y)
        closure = seen
    return gens


def _extend_map(t1: CayleyTable, t2: CayleyTable, gens: List[int],
                images: List[int]) -> Optional[Dict[int, int]]:
    """Grow the partial map determined by generator images along the
    subgroup closure; None on any inconsistency or injectivity failure."""
    phi: Dict[int, int] = {0: 0}
    used = {0}
    work = [0]
    for g, img in zip(gens, images):
        if g in phi:
            if phi[g] != img:
                return None
        elif img in used:
            return None
        else:
            phi[g] = img
            used.add(img)
            work.append(g)
    for x in work:  # work grows while it is walked
        fx = phi[x]
        for g, img in zip(gens, images):
            y = t1.table[x][g]
            fy = t2.table[fx][img]
            if y in phi:
                if phi[y] != fy:
                    return None
            elif fy in used:
                return None
            else:
                phi[y] = fy
                used.add(fy)
                work.append(y)
    return phi


def find_isomorphism(t1: CayleyTable, t2: CayleyTable) -> Optional[Tuple[int, ...]]:
    """An explicit isomorphism t1 -> t2 as an index mapping, or None.

    Fast-rejects on order and order histogram, then backtracks over
    images of a greedy generating set, pruning on element orders and
    partial-map consistency.  Any returned mapping has been re-verified
    as a bijective homomorphism on all pairs.
    """
    if t1.order != t2.order:
        return None
    if order_histogram(t1) != order_histogram(t2):
        return None
    m = t1.order
    if m == 1:
        return (0,)
    gens = _greedy_generators(t1)
    orders1 = [t1.element_order(i) for i in range(m)]
    t2_of_order: Dict[int, List[int]] = {}
    for i in range(m):
        t2_of_order.setdefault(t2.element_order(i), []).append(i)

    nodes = 0
    images: List[int] = []

    def backtrack(phi: Dict[int, int]) -> Optional[Dict[int, int]]:
        # phi is the map that the generator images chosen so far determine
        nonlocal nodes
        k = len(images)
        if k == len(gens):
            if len(phi) != m:
                return None
            for a in range(m):
                row_a, row_fa = t1.table[a], t2.table[phi[a]]
                if any(phi[row_a[b]] != row_fa[phi[b]] for b in range(m)):
                    return None
            if len(set(phi.values())) != m:
                return None
            return phi
        for cand in t2_of_order.get(orders1[gens[k]], ()):
            nodes += 1
            if nodes > ISO_NODE_BUDGET:
                raise IsomorphismUndecided(
                    f"isomorphism search exceeded {ISO_NODE_BUDGET} nodes")
            images.append(cand)
            extended = _extend_map(t1, t2, gens, images)
            if extended is not None:
                result = backtrack(extended)
                if result is not None:
                    return result
            images.pop()
        return None

    phi = backtrack({0: 0})
    return None if phi is None else tuple(phi[i] for i in range(m))


def is_cyclic(t: CayleyTable) -> bool:
    return any(t.element_order(i) == t.order for i in range(t.order))
