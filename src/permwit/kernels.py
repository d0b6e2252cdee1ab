"""Kernels for the hot inner loops.

Permutations are raw image tables: `bytes` of length `degree`, where
table[x] is the 0-based image of 0-based point x.  Composition uses
`bytes.translate`, which runs at C speed; the translation table must be
256 bytes long.  A table is padded by fixing every point from its degree
up to 255 (`table + PADDED_IDENTITY[len(table):]`); the padding is never
read, because every byte translated is a point below the degree.
Generator tables are padded once per closure loop.  The inverse of a
table a is `bytes.maketrans(a, ident)`, which is already padded this way,
so it is one C call.

Conjugation needs no inverse: g h g^-1 is h relabelled by g, the map
g[x] -> g[h[x]], which is one `bytes.maketrans` from g to h translated by
g (`conjugate`).

There is one closure algorithm, Dimino's method (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005).  `extend_elements` grows
a group from a subgroup H whose elements are already known: the new group
is a disjoint union of left cosets y*H, so only one representative per
coset is multiplied by the generators, and each new coset is added whole.
`close_elements` lists the cyclic group of the first generator and
extends it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

BACKEND = "py"  # the kernel lane; the benchmark records it with every pass

PADDED_IDENTITY = bytes(range(256))  # the identity as a translation table


def _padded(table: bytes) -> bytes:
    return table + PADDED_IDENTITY[len(table):]


def compose(a: bytes, b: bytes) -> bytes:
    """Table of the left-action product: result[x] = a[b[x]]."""
    if len(a) != len(b):
        raise ValueError("degree mismatch")
    return b.translate(a + PADDED_IDENTITY[len(a):])


def inverse(a: bytes) -> bytes:
    """Table of a^-1: maketrans maps a[x] to x, then the padding is cut."""
    return bytes.maketrans(a, PADDED_IDENTITY[:len(a)])[:len(a)]


def orbit(start: int, gens: Sequence[bytes]) -> Set[int]:
    """Closure of a single 0-based point under the generator tables."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def conjugate(h: bytes, g: bytes) -> bytes:
    """Table of g h g^-1: h relabelled by g, sending g[x] to g[h[x]]."""
    return bytes.maketrans(g, h.translate(_padded(g)))[:len(h)]


def close_elements(degree: int, gens: Iterable[bytes], limit: int) -> Optional[List[bytes]]:
    """All elements of the group generated by `gens`, identity first.

    Lists the cyclic group of the first generator by repeated products,
    then extends it by the generators (`extend_elements`).  Returns None as
    soon as more than `limit` elements would appear.
    """
    gens = list(gens)
    ident = bytes(range(degree))
    cyclic = [ident]
    if gens:
        step = _padded(gens[0])
        x = gens[0]
        while x != ident:
            if len(cyclic) >= limit:
                return None
            cyclic.append(x)
            x = x.translate(step)
    return extend_elements(cyclic, gens, limit)


def left_coset(y: bytes, elements: Sequence[bytes]) -> List[bytes]:
    """Tables of y*h for h in `elements`, padding y once."""
    py = _padded(y)
    return [h.translate(py) for h in elements]


def extend_elements(subgroup: Sequence[bytes], gens: Iterable[bytes],
                    limit: int) -> Optional[List[bytes]]:
    """All elements of <H, gens>, where `subgroup` lists every element of H,
    identity first, and `gens` includes generators of H.

    The result is `subgroup` followed by whole left cosets y*H.  Only coset
    representatives are multiplied by the generators; a product outside the
    elements found so far starts a new coset, which is disjoint from them.
    Returns None as soon as more than `limit` elements would appear.
    """
    if len(subgroup) > limit:
        return None
    padded = [_padded(g) for g in gens]
    elements = list(subgroup)
    seen = set(elements)
    reps = [elements[0]]
    head = 0
    while head < len(reps):
        x = reps[head]
        head += 1
        for g in padded:
            y = x.translate(g)
            if y not in seen:
                if len(elements) + len(subgroup) > limit:
                    return None
                coset = left_coset(y, subgroup)
                seen.update(coset)
                elements.extend(coset)
                reps.append(y)
    return elements


def conjugacy_orbit(x: bytes, gens: Sequence[bytes]) -> Set[bytes]:
    """Closure of x under conjugation by the generators.  Each step is the
    relabelling of `conjugate`, inline, on generators padded once per call."""
    padded = [(g, _padded(g)) for g in gens]
    n = len(x)
    seen = {x}
    stack = [x]
    while stack:
        e = stack.pop()
        for g, pg in padded:
            y = bytes.maketrans(g, e.translate(pg))[:n]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen
