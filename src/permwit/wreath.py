"""Wreath-structured permutations of a p x q grid, block systems, and the
embedding of a witness group into the wreath group.

A WreathElement is a top permutation of the p blocks plus one degree-q
permutation per block, acting on pairs by (i, j) -> (top(i), base[i](j));
note the base component is indexed by the *source* block.  Pairs are
identified with points of {1..pq} through (i, j) -> (i-1)q + j.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence, Tuple

from permwit.errors import BlockStructureError, DegreeMismatch, HypothesisError
from permwit.group import PermGroup, is_normal
from permwit.numthy import is_prime
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


class _WreathFields(NamedTuple):
    top: Permutation
    base: Tuple[Permutation, ...]


class WreathElement(_WreathFields):
    # a NamedTuple class may not define __new__, so the check sits in a subclass
    __slots__ = ()

    def __new__(cls, top: Permutation, base: Tuple[Permutation, ...]) -> "WreathElement":
        if len(base) != top.degree:
            raise BlockStructureError(
                f"need one base permutation per block: top degree "
                f"{top.degree}, got {len(base)} base entries")
        q = base[0].degree
        if any(b.degree != q for b in base):
            raise BlockStructureError("base permutations must share a degree")
        return super().__new__(cls, top, base)

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


class BlockSystem(NamedTuple):
    degree: int
    blocks: Tuple[Tuple[int, ...], ...]  # disjoint sorted point tuples, by least point

    @property
    def count(self) -> int:  # shadows tuple.count, which nothing here calls
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
        return self._asdict()


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


class EmbeddingConditions(NamedTuple):
    n1_transitive_on_pairs: bool
    n2_in_top_kernel: bool
    n2_projections_transitive: Tuple[bool, ...]

    @property
    def all_hold(self) -> bool:
        return (self.n1_transitive_on_pairs and self.n2_in_top_kernel
                and all(self.n2_projections_transitive))


class Embedding(NamedTuple):
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
            "conditions": self.conditions._asdict(),
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

