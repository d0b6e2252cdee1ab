"""Wreath-structured permutations of a p x q grid, block systems, and the
embedding of a witness group into the wreath group.

A WreathElement is a top permutation of the p blocks plus one degree-q
permutation per block, acting on pairs by (i, j) -> (top(i), base[i](j));
note the base component is indexed by the *source* block.  Pairs are
identified with points of {1..pq} through (i, j) -> (i-1)q + j.

The index decomposition peels blocks from the last to the first, giving
per-block normal subgroups whose indices multiply to the total index.
Only the product is canonical; the per-block factors depend on the
peeling order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from permwit.errors import (
    BlockStructureError,
    DegreeMismatch,
    HypothesisError,
    PermwitError,
)
from permwit.group import PermGroup, is_normal
from permwit.numthy import is_prime, pq_hypothesis_failure
from permwit.perm import Permutation


@lru_cache(maxsize=None)
def _block_shifts(p: int, q: int) -> Tuple[bytes, ...]:
    """For each 0-based block t, the translate table sending j to tq + j
    for j < q."""
    return tuple(bytes(range(t * q, t * q + q)).ljust(256, b"\0") for t in range(p))


def wreath_table(top: bytes, base: Sequence[bytes]) -> bytes:
    """The 0-based table of the pair action (i, j) -> (top(i), base[i](j))
    on points via (i, j) -> (i-1)q + j: block i is base[i] shifted into
    block top(i)."""
    shifts = _block_shifts(len(top), len(base[0]))
    return b"".join(b.translate(shifts[t]) for t, b in zip(top, base))


@dataclass(frozen=True)
class WreathElement:
    top: Permutation
    base: Tuple[Permutation, ...]

    def __post_init__(self):
        if len(self.base) != self.top.degree:
            raise BlockStructureError(
                f"need one base permutation per block: top degree "
                f"{self.top.degree}, got {len(self.base)} base entries")
        q = self.base[0].degree
        if any(b.degree != q for b in self.base):
            raise BlockStructureError("base permutations must share a degree")

    @property
    def p(self) -> int:
        return self.top.degree

    @property
    def q(self) -> int:
        return self.base[0].degree

    @classmethod
    def identity(cls, p: int, q: int) -> "WreathElement":
        return cls(top=Permutation.identity(p),
                   base=tuple(Permutation.identity(q) for _ in range(p)))

    def apply(self, i: int, j: int) -> Tuple[int, int]:
        """Image of the pair (i, j), both 1-based."""
        return self.top(i), self.base[i - 1](j)

    def as_permutation(self) -> Permutation:
        """The same action on {1..pq} via (i, j) -> (i-1)q + j."""
        return Permutation._from_table(
            wreath_table(self.top.table, [b.table for b in self.base]))

    @classmethod
    def from_permutation(cls, g: Permutation, p: int, q: int) -> "WreathElement":
        """Decompose a degree-pq permutation that maps each standard block
        {(i-1)q+1 .. iq} onto a standard block; error otherwise."""
        if g.degree != p * q:
            raise DegreeMismatch(f"degree {g.degree} is not {p}*{q}")
        t = g.table
        top_table = bytearray(p)
        base_tables = []
        for i0 in range(p):
            ti = t[i0 * q] // q
            block = bytearray(q)
            for j0 in range(q):
                image = t[i0 * q + j0]
                if image // q != ti:
                    raise BlockStructureError(
                        f"block {i0 + 1} is not mapped onto a single block")
                block[j0] = image % q
            top_table[i0] = ti
            base_tables.append(bytes(block))
        # g is a bijection mapping each block onto a block, so the top and
        # every base table are bijections too
        return cls(top=Permutation._from_table(bytes(top_table)),
                   base=tuple(Permutation._from_table(b) for b in base_tables))

    def text(self) -> str:
        base = ", ".join(b.cycle_string() for b in self.base)
        return f"top={self.top.cycle_string()}; base=[{base}]"

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        """Product whose pair action is action(self) composed after action(other).

        Under the package's left-action convention this comes out as
        top = self.top * other.top and
        base[i] = self.base[other.top(i)] * other.base[i].
        """
        if (self.p, self.q) != (other.p, other.q):
            raise BlockStructureError(
                f"shape mismatch: ({self.p},{self.q}) vs ({other.p},{other.q})")
        base = tuple(self.base[other.top.table[i0]] * other.base[i0]
                     for i0 in range(self.p))
        return WreathElement(top=self.top * other.top, base=base)

    def __repr__(self) -> str:
        return f"WreathElement({self.text()})"


@dataclass(frozen=True)
class BlockSystem:
    degree: int
    blocks: Tuple[Tuple[int, ...], ...]  # disjoint sorted point tuples, by least point

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def size(self) -> int:
        return len(self.blocks[0])

    def relabeling(self) -> Permutation:
        """Permutation sending original points to the standard layout, where
        block i becomes {(i-1)q+1 .. iq} (elements kept in ascending order)."""
        table = bytearray(self.degree)
        pos = 0
        for block in self.blocks:
            for point in block:
                table[point - 1] = pos
                pos += 1
        return Permutation._from_table(bytes(table))

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def blocks_from_orbits(n2: PermGroup) -> BlockSystem:
    """The orbit partition of a non-transitive group with equal orbit sizes.

    This is the block system any overgroup permutes; orbit sizes must all
    agree and there must be at least two orbits.
    """
    orbits = n2.orbits()
    sizes = {len(o) for o in orbits}
    if len(sizes) != 1:
        raise HypothesisError(
            f"block decomposition hypothesis fails: orbit sizes {sorted(sizes)} "
            f"are not all equal")
    if len(orbits) < 2:
        raise HypothesisError(
            "block decomposition hypothesis fails: the group is transitive "
            "(a single orbit is not a proper block system)")
    return BlockSystem(degree=n2.degree, blocks=tuple(orbits))


@dataclass
class EmbeddingConditions:
    n1_transitive_on_pairs: bool
    n2_in_top_kernel: bool
    n2_projections_transitive: Tuple[bool, ...]

    @property
    def all_hold(self) -> bool:
        return (self.n1_transitive_on_pairs and self.n2_in_top_kernel
                and all(self.n2_projections_transitive))


@dataclass
class Embedding:
    block_system: BlockSystem
    p: int
    q: int
    relabel: Permutation
    image_map: Tuple[Tuple[Permutation, WreathElement], ...]
    conditions: EmbeddingConditions

    def apply(self, g: Permutation) -> WreathElement:
        """Image of an arbitrary element of the source group."""
        return WreathElement.from_permutation(
            g.conjugate(self.relabel), self.p, self.q)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "block_system": self.block_system.to_json_dict(),
            "relabeling": self.relabel.cycle_string(),
            "generator_images": [
                {"generator": g.cycle_string(), "image": w.text()}
                for g, w in self.image_map
            ],
            "conditions": asdict(self.conditions),
        }


def embed(g_group: PermGroup, n1: PermGroup, n2: PermGroup) -> Embedding:
    """Relabel along N2's orbits and map the witness triple into the wreath
    group of p blocks of size q.

    Requires degree pq with p < q prime, N1 normal, N2 normal
    non-transitive with |N1| = |N2|, and every generator image permuting
    the blocks; a triple that fails one of these raises.  Then it computes
    conditions (i)-(iii): N1 is transitive (relabelling points does not
    change that, so its image is transitive on the grid), the N2 image has
    trivial top components, and each block projection of the N2 image is
    transitive on its block.  They are returned as computed, so a failed
    condition is a verdict in `conditions`, not an error; an intransitive
    N1 fails (i).  The blocks are N2's own orbits, so (ii) and (iii) hold
    whenever the hypotheses do: they check the relabelling and the
    decoding, not the triple.
    """
    if n1.degree != g_group.degree or n2.degree != g_group.degree:
        raise DegreeMismatch("inconsistent degrees among groups")
    blocks = blocks_from_orbits(n2)
    p = blocks.count
    q = blocks.size
    if not (is_prime(p) and is_prime(q) and p < q):
        raise HypothesisError(
            f"embedding needs p < q prime; N2 gives p={p} blocks of size q={q}")
    if not is_normal(n1, g_group):
        raise HypothesisError("N1 is not a normal subgroup of G")
    if not is_normal(n2, g_group):
        raise HypothesisError("N2 is not a normal subgroup of G")
    if n1.order() != n2.order():
        raise HypothesisError(
            f"|N1| = {n1.order()} and |N2| = {n2.order()} differ")

    relabel = blocks.relabeling()

    def image_of(g: Permutation, who: str) -> WreathElement:
        relabeled = g.conjugate(relabel)
        try:
            return WreathElement.from_permutation(relabeled, p, q)
        except BlockStructureError as exc:
            raise BlockStructureError(
                f"{who} generator {g.cycle_string()} does not preserve the "
                f"block system: {exc}") from exc

    image_map = tuple((g, image_of(g, "G")) for g in g_group.generators)
    n2_wreath = tuple(image_of(g, "N2") for g in n2.generators)

    conditions = EmbeddingConditions(
        n1_transitive_on_pairs=n1.is_transitive(),
        n2_in_top_kernel=all(w.top.is_identity() for w in n2_wreath),
        n2_projections_transitive=tuple(
            PermGroup([w.base[i0] for w in n2_wreath], degree=q).is_transitive()
            for i0 in range(p)),
    )
    return Embedding(block_system=blocks, p=p, q=q, relabel=relabel,
                     image_map=image_map, conditions=conditions)


def _block_parts(group: PermGroup, q: int) -> List[WreathElement]:
    """The generators of a group that fixes every standard size-q block
    setwise, decoded; BlockStructureError for any other group.  The
    projection to block i is generated by `w.base[i - 1]` over the parts."""
    if group.degree % q != 0:
        raise BlockStructureError(
            f"degree {group.degree} is not a multiple of the block size {q}")
    parts = [WreathElement.from_permutation(g, group.degree // q, q)
             for g in group.generators]
    for g, w in zip(group.generators, parts):
        if not w.top.is_identity():
            raise BlockStructureError(
                f"generator {g.cycle_string()} moves a block")
    return parts


@dataclass
class IndexFactor:
    block: int
    subgroup_generators: Tuple[Permutation, ...]  # generators of M_i <= proj_i(A)
    index: int  # [proj_i(A) : M_i]


@dataclass
class IndexDecomposition:
    factors: Tuple[IndexFactor, ...]
    total_index: int

    @property
    def product(self) -> int:
        return math.prod(f.index for f in self.factors)


def decompose_index(a_group: PermGroup, b_group: PermGroup, q: int) -> IndexDecomposition:
    """Split [A:B] into per-block indices for block-diagonal A and normal B.

    A must fix every size-q block setwise; B must be normal in A.  The
    last block is peeled first: its factor is [proj(A) : proj(B)], then
    the recursion continues on the pointwise stabilizers of that block.
    The factor product always equals [A:B].
    """
    parts_a = _block_parts(a_group, q)
    parts_b = _block_parts(b_group, q)
    if not is_normal(b_group, a_group):
        raise HypothesisError("B is not normal in A")
    total = a_group.order() // b_group.order()

    factors: List[IndexFactor] = []
    cur_a, cur_b = a_group, b_group
    for i in range(a_group.degree // q, 0, -1):
        proj_a = PermGroup([w.base[i - 1] for w in parts_a], degree=q)
        proj_b = PermGroup([w.base[i - 1] for w in parts_b], degree=q)
        factors.append(IndexFactor(
            block=i,
            subgroup_generators=proj_b.generators,
            index=proj_a.order() // proj_b.order()))
        if i > 1:
            points = range((i - 1) * q + 1, i * q + 1)
            cur_a = cur_a.pointwise_stabilizer(points)
            cur_b = cur_b.pointwise_stabilizer(points)
            parts_a, parts_b = _block_parts(cur_a, q), _block_parts(cur_b, q)

    decomposition = IndexDecomposition(factors=tuple(factors), total_index=total)
    if decomposition.product != total:
        raise PermwitError(
            f"index decomposition product {decomposition.product} does not "
            f"match [A:B] = {total}")
    return decomposition


@dataclass
class Index2Report:
    p: int
    q: int
    index: int
    p_divides: bool
    q_divides: bool

    @property
    def passed(self) -> bool:
        return (not self.p_divides) or self.q_divides


def check_index2(a_group: PermGroup, b_group: PermGroup, p: int, q: int) -> Index2Report:
    """For block-diagonal A with transitive block projections and B normal in
    A (p < q primes, p not dividing q-1): whenever p divides [A:B] = |A|/|B|,
    q must divide it too.  A B outside A raises NotASubgroup."""
    failure = pq_hypothesis_failure(p, q)
    if failure is not None:
        raise HypothesisError(failure)
    parts = _block_parts(a_group, q)
    for i in range(1, a_group.degree // q + 1):
        if not PermGroup([w.base[i - 1] for w in parts], degree=q).is_transitive():
            raise HypothesisError(
                f"projection of A to block {i} is not transitive")
    if not is_normal(b_group, a_group):
        raise HypothesisError("B is not normal in A")
    index = a_group.order() // b_group.order()
    return Index2Report(
        p=p, q=q, index=index,
        p_divides=index % p == 0,
        q_divides=index % q == 0)
