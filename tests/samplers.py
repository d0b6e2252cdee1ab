"""Seeded random generators shared by the property suites and acceptance."""

from __future__ import annotations

from random import Random
from typing import List, Tuple

from permwit.group import PermGroup
from permwit.perm import Permutation


def random_permutation(degree: int, rng: Random) -> Permutation:
    """Uniform random permutation drawn from the supplied RNG."""
    values = list(range(degree))
    rng.shuffle(values)
    return Permutation._from_table(bytes(values))


def random_transitive_group(rng: Random, max_degree: int = 12) -> PermGroup:
    """A transitive group of degree 2..max_degree from two random generators."""
    while True:
        degree = rng.randint(2, max_degree)
        group = PermGroup(
            [random_permutation(degree, rng) for _ in range(2)], degree=degree)
        if group.is_transitive():
            return group


def random_group_with_normal(rng: Random, max_degree: int = 12
                             ) -> Tuple[PermGroup, PermGroup]:
    """(transitive G, normal N) with N the closure of a random element."""
    group = random_transitive_group(rng, max_degree)
    normal = group.normal_closure([group.random_element(rng)])
    return group, normal


def random_block_diagonal_pair(rng: Random, max_blocks: int = 3,
                               max_block_size: int = 5
                               ) -> Tuple[PermGroup, PermGroup, int]:
    """(A, B, q): A fixes each size-q block setwise, B is normal in A."""
    blocks = rng.randint(2, max_blocks)
    q = rng.randint(2, max_block_size)
    degree = blocks * q

    def block_perm() -> Permutation:
        table = bytearray(range(degree))
        for b in range(blocks):
            piece = random_permutation(q, rng).table
            for j in range(q):
                table[b * q + j] = b * q + piece[j]
        return Permutation._from_table(bytes(table))

    a_group = PermGroup([block_perm() for _ in range(rng.randint(1, 3))],
                        degree=degree)
    b_group = a_group.normal_closure([a_group.random_element(rng)])
    return a_group, b_group, q
