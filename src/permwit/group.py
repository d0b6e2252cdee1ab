"""Finite permutation groups from generators.

Order and membership go through a deterministic Schreier-Sims stabilizer
chain (base points picked as the smallest moved point at each level, so
chains and everything derived from them are reproducible across runs).
Each level keeps its own list of strong generators.  An input generator
sits on levels 0..d, where base[d] is the first base point it moves.  A
residue found while checking the Schreier generators of level i sits only
on levels i+1..j, where j is the level at which it stopped sifting: levels
0..i already generate it, so they never sift products with it (Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 2005, section 4.4).
Each level stores its transversal representatives, and the inverse of a
representative the first time a sift or a Schreier generator reads it; the
inverses, like the strong generators (one padded copy of each), are kept as
256-byte translation tables, so a sift step or a Schreier generator is one
`bytes.translate` per product and building or sifting the chain calls no
Python-level kernel.  After one breadth-first pass per level over the
input generators, a level's orbit and transversal only grow, so each
Schreier generator is sifted at most once (section 4.4); those of the edges
that added a point are the identity (Schreier's lemma, section 4.1) and
are never formed.  Given a proven upper bound on |G|, the check stops as
soon as the transversal sizes multiply to it: a partial chain's product
never exceeds |G|, so reaching the bound proves the chain complete, and
every Schreier generator left unchecked would sift to the identity.  A
chain is complete when its constructor returns, and never changes after
that.

Conjugacy classes and the normal-subgroup lattice are enumerated exactly
for groups of at most ENUMERATION_BUDGET elements; each class is kept as
its sorted member list.  The lattice works on the enumerated elements: a
normal subgroup is a union of conjugacy classes, so it is keyed by the
bitmask of its classes, closures run on element sets, and no stabilizer
chain is built for any subgroup.  The normal closure of a class is the
subgroup the class generates, grown by whole cosets, so no conjugation
loop runs once the classes are known.  It lies in every normal subgroup
found so far that holds the class, and in G, so its growth stops past half
the smallest of them, which it then is by Lagrange; a class closure that
is G lists at most half of G.  Every normal subgroup is the join
of the class closures it contains, so one pass that joins each subgroup
found with each class closure finds them all.  `group_from_elements`
grows a group by the same coset walk and checks that the given tables are
exactly that group.  Every element list comes from Dimino's method
(`kernels.close_elements`, `kernels.extend_elements`), and every
conjugate is a relabelling (`kernels.conjugate`) that needs no inverse.

A PermGroup is immutable after construction; its chain, elements,
conjugacy classes and normal-subgroup lattice are computed lazily and
cached.  Distinct groups may be processed in parallel.
"""

from __future__ import annotations

import math
from random import Random
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from permwit import kernels
from permwit.errors import BudgetExceeded, DegreeMismatch, NotASubgroup, PermwitError
from permwit.perm import Permutation, parse_cycles

ENUMERATION_BUDGET = 10000


class _OrderLimitHit(Exception):
    """Internal: raised while building a chain whose order passed the limit."""


class StabilizerChain:
    """Base, strong generators and per-level transversals for one group.

    `inverse_rep(i, x)` is the inverse of level i's representative of x as
    a 256-byte translation table, `bytes.maketrans(rep, ident)`, whose
    first `degree` bytes are rep^-1.  It is made the first time a sift or
    a Schreier generator reads it, and kept.  A sift step is then
    `table.translate(inv_rep)`, the product rep^-1 * table.  Each strong
    generator is padded once to 256 bytes, like the inverses, and that one
    copy sits on every level list it belongs to.  `stabilizer_gens(k)`
    lists level k's strong generators, cut back to `degree` bytes and
    placed by the per-level rule of the module docstring; they fix the
    first k base points and, once the chain is complete, generate their
    pointwise stabilizer.

    A strong generator that joins a level is applied to the points already
    there, and every generator to each point that joins, so no
    representative is ever replaced.  The Schreier generator
    u_{s[x]}^-1 * s * u_x of an edge (x, s) that added s[x] is the identity;
    a level keeps its other edges until the check sifts them, once each.

    `gen_tables` must be distinct non-identity tables, as in
    `PermGroup._tables`.  `base_prefix` forces the given 0-based points to head the base (used
    for pointwise stabilizers).  `order_limit` aborts construction with
    _OrderLimitHit as soon as the transversal-size product exceeds it;
    a chain that finishes under a limit is a complete, valid chain.
    `order_bound` is a proven upper bound on |G|: the Schreier check stops
    once the product reaches it, and a product above it raises
    PermwitError, since the proof of the bound is then broken.  With the
    bound equal to |G|, the base, transversals and level generators are
    those of the chain built without it.
    """

    def __init__(self, degree: int, gen_tables: Sequence[bytes],
                 base_prefix: Sequence[int] = (), order_limit: Optional[int] = None,
                 order_bound: Optional[int] = None):
        self.degree = degree
        self._ident = bytes(range(degree))
        self._limit = order_limit
        self.base: List[int] = []
        # _level_gens[i] lists the strong generators of level i, in the order
        # they were found
        self._level_gens: List[List[bytes]] = []
        self.transversals: List[Dict[int, bytes]] = []
        # the inverse representatives made so far, per level
        self._inverses: List[Dict[int, bytes]] = []
        # _edges[i] lists the edges (x, s) of level i's orbit graph whose
        # Schreier generators are still to be checked
        self._edges: List[List[Tuple[int, bytes]]] = []
        for b in base_prefix:
            self._append_level(b)
        for g in gen_tables:
            self._add_gen(g, 0, self._cover(g))
        for i, b in enumerate(self.base):
            self._extend(i, [b], self._level_gens[i])
        # check the Schreier condition bottom-up; a failing level yields a
        # new strong generator at the level where its residue stops
        # sifting, and the check resumes there; a product that reaches
        # order_bound ends the check
        i = len(self.base) - 1
        while i >= 0 and (order_bound is None or self.order() < order_bound):
            stop = self._check_level(i)
            i = i - 1 if stop is None else stop
        if order_bound is not None and self.order() > order_bound:
            raise PermwitError(
                f"the chain's order {self.order()} exceeds the proven bound {order_bound}")
        for edges in self._edges:  # unchecked edges of a chain stopped at its bound
            edges.clear()

    def _append_level(self, point: int) -> None:
        self.base.append(point)
        self._level_gens.append([])
        self.transversals.append({point: self._ident})
        self._inverses.append({point: kernels.PADDED_IDENTITY})
        self._edges.append([])

    def _cover(self, g: bytes) -> int:
        # the depth of g, appending a new level first if g fixes the whole base
        for k, b in enumerate(self.base):
            if g[b] != b:
                return k
        self._append_level(next(x for x in range(self.degree) if g[x] != x))
        return len(self.base) - 1

    def _add_gen(self, g: bytes, lo: int, hi: int) -> bytes:
        # g joins levels lo..hi, padded; it must fix base[:hi] pointwise
        padded = g + kernels.PADDED_IDENTITY[len(g):]
        for gens in self._level_gens[lo:hi + 1]:
            gens.append(padded)
        return padded

    def _extend(self, i: int, points: List[int], gens: List[bytes]) -> None:
        # walk level i's orbit graph on `gens` from `points`, then on every
        # level generator from each point the walk adds; u_y = s * u_x is u_x
        # translated by s, and each edge onto a known point awaits the check
        trans = self.transversals[i]
        edges = self._edges[i]
        added: List[int] = []
        for xs, ss in ((points, gens), (added, self._level_gens[i])):
            for x in xs:  # `added` grows while it is read
                for s in ss:
                    y = s[x]
                    if y in trans:
                        edges.append((x, s))
                    else:
                        trans[y] = trans[x].translate(s)
                        added.append(y)
        if added and self._limit is not None and self.order() > self._limit:
            raise _OrderLimitHit

    def inverse_rep(self, i: int, x: int) -> Optional[bytes]:
        """The inverse of level i's representative of x, padded to 256
        bytes; None when x lies outside level i's orbit."""
        inv_rep = self._inverses[i].get(x)
        if inv_rep is None:
            rep = self.transversals[i].get(x)
            if rep is None:
                return None
            inv_rep = self._inverses[i][x] = bytes.maketrans(rep, self._ident)
        return inv_rep

    def _sift_from(self, start: int, table: bytes) -> bytes:
        # table sifted from level start, up to the first level whose orbit
        # misses its base image; the identity iff table lies in the chain's group
        for i in range(start, len(self.base)):
            x = table[self.base[i]]
            # the kept inverse, else inverse_rep makes it (None off the orbit)
            inv_rep = self._inverses[i].get(x) or self.inverse_rep(i, x)
            if inv_rep is None:
                return table
            table = table.translate(inv_rep)
        return table

    def sift(self, table: bytes) -> bytes:
        return self._sift_from(0, table)

    def _check_level(self, i: int) -> Optional[int]:
        trans = self.transversals[i]
        inverses = self._inverses[i]
        ident = self._ident
        edges = self._edges[i]
        while edges:
            x, s = edges.pop()
            y = s[x]
            inv = inverses.get(y)
            if inv is None:
                inv = inverses[y] = bytes.maketrans(trans[y], ident)
            # the Schreier generator u_{s[x]}^-1 * s * u_x
            sg = trans[x].translate(s).translate(inv)
            if sg == ident:
                continue
            residue = self._sift_from(i + 1, sg)
            if residue == ident:
                continue
            j = self._cover(residue)  # where it stopped sifting, or a new level
            # the residue joins levels i+1..j, and each of their orbits grows by it
            padded = self._add_gen(residue, i + 1, j)
            for k in range(i + 1, j + 1):
                self._extend(k, list(self.transversals[k]), [padded])
            return j
        return None

    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def contains(self, table: bytes) -> bool:
        return self._sift_from(0, table) == self._ident

    def stabilizer_gens(self, k: int) -> List[bytes]:
        """Level k's strong generators, which generate the pointwise
        stabilizer of the first k base points; [] past the last level."""
        if k >= len(self._level_gens):
            return []
        return [g[:self.degree] for g in self._level_gens[k]]

    def random_element(self, rng: Random) -> bytes:
        elem = self._ident
        for trans in self.transversals:
            rep = trans[rng.choice(sorted(trans))]
            elem = kernels.compose(elem, rep)
        return elem


class PermGroup:
    """A permutation group given by generators, with a lazy stabilizer chain."""

    __slots__ = ("_degree", "_generators", "_tables", "_chain", "_elements", "_classes",
                 "_class_of", "_normals")

    def __init__(self, generators: Iterable[Permutation], degree: Optional[int] = None):
        gens = tuple(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree is required for a group with no generators")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} does not match group degree {degree}")
        self._degree = degree
        self._generators = gens
        # the distinct non-identity generator tables, in generator order
        ident = bytes(range(degree))
        self._tables = tuple(t for t in dict.fromkeys(g.table for g in gens) if t != ident)
        self._chain: Optional[StabilizerChain] = None
        self._elements: Optional[List[bytes]] = None
        # conjugacy classes as sorted member lists, ordered by least member,
        # and each element's index in that list
        self._classes: Optional[List[List[bytes]]] = None
        self._class_of: Optional[Dict[bytes, int]] = None
        self._normals: Optional[Tuple[NormalSubgroup, ...]] = None

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls((), degree=degree)

    @classmethod
    def from_cycles(cls, degree: int, *cycle_strings: str) -> "PermGroup":
        return cls([parse_cycles(s, degree) for s in cycle_strings],
                   degree=degree)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> Tuple[Permutation, ...]:
        return self._generators

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self._degree, self._tables)
        return self._chain

    def order(self, bound: Optional[int] = None) -> int:
        """|G|.  `bound`, a proven upper bound on |G|, lets a chain not built
        yet stop its Schreier check once its order reaches it."""
        if self._chain is None:
            self._chain = StabilizerChain(self._degree, self._tables, order_bound=bound)
        return self._chain.order()

    def order_exceeds(self, limit: int) -> bool:
        """True iff |G| > limit, aborting the chain build early when possible."""
        if self._chain is not None:
            return self.order() > limit
        try:
            chain = StabilizerChain(self._degree, self._tables, order_limit=limit)
        except _OrderLimitHit:
            return True
        self._chain = chain
        return False

    def contains(self, g: Permutation) -> bool:
        if g.degree != self._degree:
            raise DegreeMismatch(
                f"element degree {g.degree} does not match group degree {self._degree}")
        return self.chain.contains(g.table)

    def __contains__(self, g: Permutation) -> bool:
        return self.contains(g)

    def orbits(self) -> List[Tuple[int, ...]]:
        """Partition of {1..degree} into orbits, each sorted, ordered by least point."""
        remaining = set(range(self._degree))
        out: List[Tuple[int, ...]] = []
        while remaining:
            x = min(remaining)
            orb = kernels.orbit(x, self._tables)
            remaining -= orb
            out.append(tuple(p + 1 for p in sorted(orb)))
        return out

    def orbit_of(self, point: int) -> frozenset:
        if not 1 <= point <= self._degree:
            raise ValueError(f"point {point} out of range 1..{self._degree}")
        orb = kernels.orbit(point - 1, self._tables)
        return frozenset(p + 1 for p in orb)

    def is_transitive(self) -> bool:
        """Read from the chain when it is built: its first transversal is
        the orbit of the first base point, and a chain with no level is the
        trivial group's.  Otherwise one orbit walk, building no chain."""
        chain = self._chain
        if chain is None:
            return len(kernels.orbit(0, self._tables)) == self._degree
        if not chain.transversals:
            return self._degree == 1
        return len(chain.transversals[0]) == self._degree

    def is_2_transitive(self) -> bool:
        """True iff the chain's first level holds all n points and its second,
        the stabilizer of base[0], the other n - 1 (a missing level holds 1)."""
        n = self._degree
        if n < 2:
            raise ValueError("2-transitivity needs degree >= 2")
        sizes = [len(t) for t in self.chain.transversals] + [1, 1]
        return sizes[0] == n and sizes[1] == n - 1

    def element_tables(self) -> List[bytes]:
        if self._elements is None:
            if self.order_exceeds(ENUMERATION_BUDGET):
                raise BudgetExceeded(
                    f"group order exceeds the enumeration budget of {ENUMERATION_BUDGET}")
            elems = kernels.close_elements(
                self._degree, self._tables, ENUMERATION_BUDGET)
            assert elems is not None and len(elems) == self.order()
            self._elements = elems
        return self._elements

    def elements(self) -> List[Permutation]:
        return [Permutation._from_table(t) for t in self.element_tables()]

    def random_element(self, rng: Random) -> Permutation:
        return Permutation._from_table(self.chain.random_element(rng))

    def pointwise_stabilizer(self, points: Iterable[int]) -> "PermGroup":
        """Subgroup fixing every listed point (1-based) individually."""
        prefix = []
        for p in points:
            if not 1 <= p <= self._degree:
                raise ValueError(f"point {p} out of range 1..{self._degree}")
            prefix.append(p - 1)
        chain = StabilizerChain(self._degree, self._tables, base_prefix=prefix)
        gens = [Permutation._from_table(t) for t in chain.stabilizer_gens(len(prefix))]
        return PermGroup(gens, degree=self._degree)

    def normal_closure(self, seeds: Iterable[Permutation]) -> "PermGroup":
        """Smallest normal subgroup of this group containing the seeds.

        Fixed-point iteration: conjugate the current generating set by the
        group's generators until nothing new appears.  Each conjugate is
        sifted into the chain of the current set, and the chain is built
        again after each new one.
        """
        ident = bytes(range(self._degree))
        current: List[bytes] = []
        for s in seeds:
            if not self.contains(s):
                raise NotASubgroup("seed lies outside the group")
            if s.table != ident and s.table not in current:
                current.append(s.table)
        if not current:
            return PermGroup.trivial(self._degree)
        chain = StabilizerChain(self._degree, current)
        changed = True
        while changed:
            changed = False
            for g in self._tables:
                for h in list(current):
                    c = kernels.conjugate(h, g)
                    if not chain.contains(c):
                        current.append(c)
                        chain = StabilizerChain(self._degree, current)
                        changed = True
        return PermGroup([Permutation._from_table(t) for t in current],
                         degree=self._degree)

    def conjugacy_classes(self) -> List[Tuple[Permutation, int]]:
        """(representative, class size) pairs; each class is cached as its
        sorted member list, whose first member is the representative."""
        tables = self.element_tables()
        if self._classes is None:
            class_of: Dict[bytes, int] = {}
            classes: List[List[bytes]] = []
            for t in sorted(tables):
                if t in class_of:
                    continue
                cls = kernels.conjugacy_orbit(t, self._tables)
                class_of.update(dict.fromkeys(cls, len(classes)))
                classes.append(sorted(cls))
            assert sum(map(len, classes)) == len(tables)
            self._classes = classes
            self._class_of = class_of
        return [(Permutation._from_table(members[0]), len(members))
                for members in self._classes]

    def all_normal_subgroups(self) -> Tuple["NormalSubgroup", ...]:
        """Every normal subgroup, as a join of the classes' normal closures.

        A normal subgroup is a union of conjugacy classes, and it contains a
        class iff it contains the class representative, so the bitmask of
        the classes it contains (bit i for the i-th class of
        `conjugacy_classes`) identifies it exactly; its order is the sum of
        those class sizes.  Closures run on element sets, where membership
        is a set lookup, and each element set is dropped once its mask is
        known.  Subgroups are deduplicated by mask, and two shortcuts skip
        closures whose result is already registered:

        - N_k, the normal closure of class k, is the subgroup generated by
          class k; it equals N_j when <rep_k> meets class j and N_j holds
          class k;
        - the join of N_i and N_j has order |N_i| |N_j| / |N_i & N_j|, so a
          registered subgroup holding both with that order is the join; each
          union of two masks is joined at most once.

        N_k is grown from <rep_k> over class k's sorted members (`_grow`),
        so its generators are rep_k and the members that extended it.  It
        lies in G and in each registered subgroup holding class k, so past
        half the smallest, M, it is M by Lagrange and its growth stops; a G
        not yet registered takes the generators gathered so far, which
        already generate it.  The class closures (the atoms) are registered
        in class order.  Every normal subgroup is the join of the atoms it
        contains, and a join depends only on the union of the masks, so
        joining each registered subgroup, in registration order, with each
        atom registers every normal subgroup; a join's generators are those
        of its two parts.  No stabilizer chain is built here; each entry's
        group builds its own lazily.  The entries are computed once per
        group, sorted by order, and every call
        returns the same cached tuple.
        """
        if self._normals is not None:
            return self._normals
        total = len(self.element_tables())
        self.conjugacy_classes()
        classes = self._classes
        class_of = self._class_of
        reps = [members[0] for members in classes]
        whole = (1 << len(classes)) - 1  # G's mask

        def mask_of(elements: List[bytes]) -> int:
            # only for normal subgroups, which are unions of classes
            members = set(elements)
            return sum(1 << i for i, rep in enumerate(reps) if rep in members)

        def order_of(mask: int) -> int:
            return sum(len(members) for i, members in enumerate(classes) if mask >> i & 1)

        closure_masks: Dict[int, int] = {}  # class index -> mask of its normal closure

        def class_closure(k: int) -> Tuple[Optional[List[bytes]], int]:
            gens = [reps[k]]
            elements = kernels.close_elements(self._degree, gens, total)
            # y in <rep_k> puts N_j (j = class of y) inside N_k; if N_j also
            # holds class k, the two normal closures are equal
            for y in elements:
                mask = closure_masks.get(class_of[y], 0)
                if mask >> k & 1:
                    return None, mask
            bound = min((m for m in subs if m >> k & 1), key=order_of, default=whole)
            grown = _grow(elements, gens, classes[k], order_of(bound) // 2)
            return gens, bound if grown is None else mask_of(grown)

        # mask -> generator tables, in registration order; the trivial
        # subgroup comes first, and its mask is bit 0, the identity's class
        # (the identity is the lex-least element)
        subs: Dict[int, List[bytes]] = {1: []}
        for k in range(len(classes)):
            gens, mask = class_closure(k)
            closure_masks[k] = mask
            if gens is not None:
                subs.setdefault(mask, gens)
        atoms = list(subs.items())[1:]  # the class closures, without the trivial subgroup
        orders = {mask: order_of(mask) for mask in subs}
        joined: Set[int] = set()
        work = list(subs)
        for mask_i in work:
            gens_i = subs[mask_i]
            for mask_j, gens_j in atoms:
                union = mask_i | mask_j
                if union in joined:
                    continue
                joined.add(union)
                order = orders[mask_i] * orders[mask_j] // order_of(mask_i & mask_j)
                if any(o == order and m & union == union for m, o in orders.items()):
                    continue
                gens = gens_i + [g for g in gens_j if g not in gens_i]
                mask = mask_of(kernels.close_elements(self._degree, gens, total))
                assert mask not in subs and order_of(mask) == order
                subs[mask] = gens
                orders[mask] = order
                work.append(mask)
        entries = []
        for mask, gens in subs.items():
            group = PermGroup([Permutation._from_table(t) for t in gens],
                              degree=self._degree)
            entries.append(NormalSubgroup(group=group, order=orders[mask],
                                          index=total // orders[mask], mask=mask))
        entries.sort(key=lambda e: (e.order,
                                    tuple(sorted(g.table for g in e.group.generators))))
        self._normals = tuple(entries)
        return self._normals

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() for g in self._generators) or "()"
        return f"PermGroup(degree={self._degree}, <{gens}>)"


class NormalSubgroup(NamedTuple):
    group: PermGroup
    order: int
    index: int  # shadows tuple.index, which nothing here calls
    mask: int  # bit i: the i-th class of the listing group's conjugacy_classes()


def is_normal(n_group: PermGroup, g_group: PermGroup) -> bool:
    """True iff n_group is a normal subgroup of g_group.

    Sifts N's generator tables (`_tables`) into G's chain, raising
    NotASubgroup if one lies outside G, then each conjugate g h g^-1 over
    both groups' tables (`kernels.conjugate`) into N's chain.  Conjugating
    generators by generators suffices: for finite groups g N g^-1 <= N
    already forces equality.
    """
    if n_group.degree != g_group.degree:
        raise DegreeMismatch(
            f"degree mismatch: {n_group.degree} vs {g_group.degree}")
    if any(not g_group.chain.contains(h) for h in n_group._tables):
        raise NotASubgroup("N is not a subgroup of G")
    return all(n_group.chain.contains(kernels.conjugate(h, g))
               for g in g_group._tables for h in n_group._tables)


def _grow(elements: List[bytes], gens: List[bytes], candidates: Iterable[bytes],
          limit: int) -> Optional[List[bytes]]:
    """Grow the group listed by `elements` (identity first) and generated by
    `gens`: each candidate outside it joins `gens` and extends it by whole
    cosets.  The final element list, or None past `limit` elements."""
    members = set(elements)
    for t in candidates:
        if t not in members:
            gens.append(t)
            elements = kernels.extend_elements(elements, gens, limit)
            if elements is None:
                return None
            members.update(elements[len(members):])
    return elements


def group_from_elements(tables: Iterable[bytes], degree: int) -> PermGroup:
    """A PermGroup with a small generating set for the group whose element
    tables are given; ValueError unless they list exactly one whole group.

    Grows a group from the identity over the sorted tables (`_grow`), with
    no stabilizer chain.  Every table ends up inside the grown group, so the
    two sets are equal exactly when the walk ends with len(tables) elements.
    Within ENUMERATION_BUDGET, the walk's element list becomes the group's
    `element_tables()`.
    """
    tables = sorted(set(tables))
    gens: List[bytes] = []
    elements = _grow([bytes(range(degree))], gens, tables, len(tables))
    if elements is None or len(elements) != len(tables):
        raise ValueError("the tables do not form a group")
    group = PermGroup([Permutation._from_table(t) for t in gens], degree=degree)
    group._elements = elements if len(elements) <= ENUMERATION_BUDGET else None
    return group
