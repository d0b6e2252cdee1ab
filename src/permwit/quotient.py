"""Quotient groups as explicit Cayley tables, plus small-group isomorphism.

Quotients are materialized as multiplication tables on coset indices (the
orders here are tiny), which keeps isomorphism testing exact: a greedy
generating set, order-profile pruning, and a backtracking search that
self-checks any mapping it returns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from permwit import kernels
from permwit.errors import BudgetExceeded, IsomorphismUndecided, NotNormal, PermwitError
from permwit.group import PermGroup, is_normal
from permwit.perm import Permutation

ISO_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class CayleyTable:
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

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "reps": [r.cycle_string() for r in self.reps],
            "table": [list(row) for row in self.table],
        }


def quotient(g_group: PermGroup, n_group: PermGroup, budget: int = 1000) -> CayleyTable:
    """The factor group G/N as a Cayley table on coset representatives.

    Representatives are found by a breadth-first sweep over the coset
    graph, identifying cosets by sifting against N-membership.  Requires
    N normal in G and index at most `budget`.
    """
    if not is_normal(n_group, g_group):
        raise NotNormal("the subgroup is not normal, so the quotient is undefined")
    degree = g_group.degree
    ident = bytes(range(degree))
    gen_tables = [g.table for g in g_group.generators]
    n_chain = n_group.chain

    reps: List[bytes] = [ident]
    rep_invs: List[bytes] = [ident]

    def coset_of(x: bytes) -> Optional[int]:
        for j, rinv in enumerate(rep_invs):
            if n_chain.contains(kernels.compose(rinv, x)):
                return j
        return None

    # discover coset representatives breadth-first
    parent: List[Optional[Tuple[int, int]]] = [None]  # rep index -> (gen, source)
    head = 0
    while head < len(reps):
        b = head
        head += 1
        for gi, g in enumerate(gen_tables):
            x = kernels.compose(g, reps[b])
            if coset_of(x) is None:
                if len(reps) >= budget:
                    raise BudgetExceeded(
                        f"quotient index exceeds the budget of {budget}")
                reps.append(x)
                rep_invs.append(kernels.inverse(x))
                parent.append((gi, b))

    m = len(reps)
    # how left-multiplication by each generator permutes coset indices
    gen_action = [
        tuple(coset_of(kernels.compose(g, reps[b])) for b in range(m))
        for g in gen_tables
    ]

    # left-multiplication action of each rep, composed along its BFS word;
    # row a of the table is then exactly the coset of reps[a]*reps[b]
    left_action: List[Optional[Tuple[int, ...]]] = [tuple(range(m))] + [None] * (m - 1)

    def build_action(a: int) -> Tuple[int, ...]:
        if left_action[a] is None:
            gi, src = parent[a]  # type: ignore[misc]
            src_act = build_action(src)
            g_act = gen_action[gi]
            left_action[a] = tuple(g_act[src_act[x]] for x in range(m))
        return left_action[a]  # type: ignore[return-value]

    table = tuple(build_action(a) for a in range(m))
    result = CayleyTable(reps=tuple(Permutation._from_table(t) for t in reps),
                         table=table)
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
        head = 0
        seen = set(closure)
        while head < len(work):
            x = work[head]
            head += 1
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
    head = 0
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
    while head < len(work):
        x = work[head]
        head += 1
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


def find_isomorphism(t1: CayleyTable, t2: CayleyTable,
                     node_budget: int = ISO_NODE_BUDGET) -> Optional[Tuple[int, ...]]:
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
    orders2 = [t2.element_order(i) for i in range(m)]
    by_order: Dict[int, List[int]] = {}
    for i in range(m):
        by_order.setdefault(orders2[i], []).append(i)

    nodes = 0
    images: List[int] = []

    def backtrack() -> Optional[Dict[int, int]]:
        nonlocal nodes
        k = len(images)
        if k == len(gens):
            phi = _extend_map(t1, t2, gens, images)
            if phi is None or len(phi) != m:
                return None
            for a in range(m):
                fa = phi[a]
                row_a = t1.table[a]
                row_fa = t2.table[fa]
                for b in range(m):
                    if phi[row_a[b]] != row_fa[phi[b]]:
                        return None
            if len(set(phi.values())) != m:
                return None
            return phi
        for cand in by_order.get(orders1[gens[k]], ()):
            nodes += 1
            if nodes > node_budget:
                raise IsomorphismUndecided(
                    f"isomorphism search exceeded {node_budget} nodes")
            images.append(cand)
            if _extend_map(t1, t2, gens, images) is not None:
                result = backtrack()
                if result is not None:
                    return result
            images.pop()
        return None

    phi = backtrack()
    if phi is None:
        return None
    return tuple(phi[i] for i in range(m))


def isomorphic(t1: CayleyTable, t2: CayleyTable,
               node_budget: int = ISO_NODE_BUDGET) -> bool:
    return find_isomorphism(t1, t2, node_budget=node_budget) is not None


def is_cyclic(t: CayleyTable) -> bool:
    return any(t.element_order(i) == t.order for i in range(t.order))


def cyclic_table(m: int) -> CayleyTable:
    """The cyclic group of order m as a Cayley table (reps act on m points)."""
    if m < 1:
        raise ValueError("order must be positive")
    cycle = Permutation._from_table(bytes(list(range(1, m)) + [0])) if m > 1 \
        else Permutation.identity(1)
    reps = tuple(cycle ** k for k in range(m))
    table = tuple(tuple((a + b) % m for b in range(m)) for a in range(m))
    return CayleyTable(reps=reps, table=table)
