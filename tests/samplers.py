"""Seeded random generators shared by the property suites and acceptance."""

from __future__ import annotations

from random import Random
from typing import Tuple

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

