"""Permutations of {1..n} with an explicit degree.

Points are 1-based in every public interface; the internal image table is
a 0-based `bytes` object (which caps the degree at 256 — far beyond the
desk-scale degrees this package targets).  The composition convention is
the left action fixed once for the whole package:

    (a * b)(x) = a(b(x))

Values are immutable and hashable, safe to share between threads.  Each
value renders its cycle string on the first `cycle_string()` call and
keeps it (a second render in a race writes the same string), so a shared
permutation, such as a generator listed by several groups, is rendered
once however many reports print it.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Set, Tuple

from permwit import kernels
from permwit.errors import CycleParseError, DegreeMismatch

MAX_DEGREE = 256

# the 1-based label of each 0-based point, as printed in cycle notation
_LABELS = tuple(str(x + 1) for x in range(MAX_DEGREE))


class Permutation:
    """A bijection of {1..n}, stored as an image table."""

    __slots__ = ("_table", "_text")

    def __init__(self, images: Iterable[int]):
        """Build from the 1-based image table: images[k-1] is the image of point k."""
        seq = list(images)
        n = len(seq)
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {n}")
        table = bytearray(n)
        seen = [False] * n
        for k, v in enumerate(seq):
            if not 1 <= v <= n:
                raise ValueError(f"image {v} of point {k + 1} out of range 1..{n}")
            if seen[v - 1]:
                raise ValueError(f"image table is not a bijection: {v} repeats")
            seen[v - 1] = True
            table[k] = v - 1
        self._table = bytes(table)
        self._text = None

    @classmethod
    def _from_table(cls, table: bytes) -> "Permutation":
        """Wrap a trusted 0-based image table without validation."""
        p = object.__new__(cls)
        p._table = table
        p._text = None
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        return cls._from_table(bytes(range(degree)))

    @property
    def degree(self) -> int:
        return len(self._table)

    @property
    def table(self) -> bytes:
        """The raw 0-based image table (kernel representation)."""
        return self._table

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        return self._table[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeMismatch(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return Permutation._from_table(kernels.compose(self._table, other._table))

    def inverse(self) -> "Permutation":
        return Permutation._from_table(kernels.inverse(self._table))

    def __pow__(self, e: int) -> "Permutation":
        base = self._table if e >= 0 else kernels.inverse(self._table)
        e = abs(e)
        result = bytes(range(self.degree))
        while e:
            if e & 1:
                result = kernels.compose(base, result)
            base = kernels.compose(base, base)
            e >>= 1
        return Permutation._from_table(result)

    def conjugate(self, h: "Permutation") -> "Permutation":
        """Conjugate of self by h: returns h * self * h^-1."""
        if h.degree != self.degree:
            raise DegreeMismatch(f"degree mismatch: {self.degree} vs {h.degree}")
        return Permutation._from_table(kernels.conjugate(self._table, h._table))

    def is_identity(self) -> bool:
        return self._table == bytes(range(self.degree))

    def cycles(self) -> List[Tuple[int, ...]]:
        """Nontrivial cycles as 1-based tuples, least point first, sorted by least point."""
        table = self._table
        seen = [False] * len(table)
        out = []
        for start in range(len(table)):
            if seen[start] or table[start] == start:
                continue
            cycle = [start]
            seen[start] = True
            x = table[start]
            while x != start:
                seen[x] = True
                cycle.append(x)
                x = table[x]
            out.append(tuple(p + 1 for p in cycle))
        return out

    def cycle_string(self) -> str:
        """Canonical cycle notation; parse_cycles reads it back at the same degree.

        The cycles of `cycles()`, in one pass over the table; rendered on
        the first call and kept."""
        if self._text is None:
            table = self._table
            seen = bytearray(len(table))
            out = []
            for start, x in enumerate(table):
                if seen[start] or x == start:
                    continue
                labels = [_LABELS[start]]
                while x != start:
                    seen[x] = 1
                    labels.append(_LABELS[x])
                    x = table[x]
                out.append("(" + " ".join(labels) + ")")
            self._text = "".join(out) or "()"
        return self._text

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def fixed_points(self) -> Tuple[int, ...]:
        return tuple(k + 1 for k, v in enumerate(self._table) if v == k)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._table == other._table

    def __hash__(self) -> int:
        return hash(self._table)

    def __lt__(self, other: "Permutation") -> bool:
        return (self.degree, self._table) < (other.degree, other._table)

    def __str__(self) -> str:
        return self.cycle_string()

    def __repr__(self) -> str:
        return f"parse_cycles({self.cycle_string()!r}, {self.degree})"


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like "(1 2 3)(4 5)"; "()" is the identity.

    Whitespace-insensitive.  Raises CycleParseError (with the offending
    position) on repeated points, out-of-range labels, or malformed
    parentheses.
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    table = list(range(degree))
    seen_points: Set[int] = set()
    i = 0
    n = len(text)
    saw_cycle = False
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        if text[i] != "(":
            raise CycleParseError(f"expected '(' but found {text[i]!r}", i)
        i += 1
        cycle: List[int] = []
        while True:
            while i < n and text[i].isspace():
                i += 1
            if i >= n:
                raise CycleParseError("unclosed cycle", i)
            if text[i] == ")":
                i += 1
                break
            if not text[i].isdigit():
                raise CycleParseError(
                    f"expected point label or ')' but found {text[i]!r}", i
                )
            start = i
            while i < n and text[i].isdigit():
                i += 1
            label = int(text[start:i])
            if not 1 <= label <= degree:
                raise CycleParseError(
                    f"point {label} out of range 1..{degree}", start
                )
            if label in seen_points:
                raise CycleParseError(f"repeated point {label}", start)
            seen_points.add(label)
            cycle.append(label)
        saw_cycle = True
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            table[a - 1] = b - 1
    if not saw_cycle:
        raise CycleParseError("empty input; the identity is written '()'", 0)
    return Permutation._from_table(bytes(table))
