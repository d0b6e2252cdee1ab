"""Contract of the kernel module."""

from random import Random

import pytest

from permwit import kernels
from permwit.perm import Permutation, parse_cycles
from permwit.wreath import WreathElement

KERNEL_NAMES = ("compose", "inverse", "orbit", "close_elements", "conjugacy_orbit")


def test_backend_reports_lane():
    # the benchmark records BACKEND and wraps these names on permwit.kernels
    assert kernels.BACKEND == "py"
    for name in KERNEL_NAMES:
        assert callable(getattr(kernels, name))


def test_pure_compose_is_left_action():
    a = bytes([1, 2, 0])  # (1 2 3) 0-based
    b = bytes([1, 0, 2])  # (1 2)
    c = kernels.compose(a, b)
    assert list(c) == [a[b[x]] for x in range(3)]


def test_pure_compose_degree_mismatch():
    with pytest.raises(ValueError):
        kernels.compose(bytes([0, 1]), bytes([0, 1, 2]))


def _loop_inverse(a):
    # the definition by a Python loop: out[a[x]] = x
    out = bytearray(len(a))
    for x, y in enumerate(a):
        out[y] = x
    return bytes(out)


@pytest.mark.parametrize("degree", range(1, 256))
def test_inverse_matches_loop_definition(degree):
    rng = Random(degree)
    tables = [bytes(range(degree))]
    for _ in range(3):
        points = list(range(degree))
        rng.shuffle(points)
        tables.append(bytes(points))
    for a in tables:
        inv = kernels.inverse(a)
        assert inv == _loop_inverse(a)
        assert kernels.compose(a, inv) == kernels.compose(inv, a) == bytes(range(degree))
        for g in tables:
            assert kernels.conjugate(a, g) == kernels.compose(
                g, kernels.compose(a, kernels.inverse(g)))


def test_close_elements_trivial_group():
    assert kernels.close_elements(4, [], 10) == [bytes(range(4))]


def _close(degree, gens, limit=10**6):
    return kernels.close_elements(degree, gens, limit)


def _table(cycles, degree):
    return parse_cycles(cycles, degree).table


def _extension_cases():
    c5 = _table("(1 2 3 4 5)", 5)
    t12 = _table("(1 2)", 5)
    c7 = _table("(1 2 3 4 5 6 7)", 7)
    x2 = _table("(2 3 5)(4 7 6)", 7)  # x -> 2x on the field elements 0..6
    c3 = _table("(1 2 3)", 7)
    s4 = [_table("(1 2 3 4)", 4), _table("(1 2)", 4)]
    return {
        "trivial": (4, [bytes(range(4))], s4),
        "c5_by_transposition": (5, _close(5, [c5]), [c5, t12]),
        "f21_to_a7": (7, _close(7, [c7, x2]), [c7, x2, c3]),
        "whole_group": (4, _close(4, s4), s4),
    }


@pytest.mark.parametrize("case", sorted(_extension_cases()))
def test_extend_elements_matches_close_elements(case):
    degree, subgroup, gens = _extension_cases()[case]
    got = kernels.extend_elements(subgroup, gens, 10**6)
    want = _close(degree, gens)
    assert len(got) == len(set(got))
    assert set(got) == set(want)
    assert got[:len(subgroup)] == subgroup
    if case == "f21_to_a7":
        assert len(subgroup) == 21 and len(got) == 2520
    if case == "whole_group":
        assert got == subgroup


def test_extend_elements_keeps_subgroup_order():
    degree, subgroup, gens = _extension_cases()["c5_by_transposition"]
    shuffled = subgroup[:1] + subgroup[:0:-1]
    got = kernels.extend_elements(shuffled, gens, 120)
    assert got[:5] == shuffled and len(got) == 120


def test_extend_elements_limit_boundary():
    degree, subgroup, gens = _extension_cases()["c5_by_transposition"]
    assert kernels.extend_elements(subgroup, gens, 119) is None
    assert kernels.extend_elements(subgroup, gens, 4) is None
    assert len(kernels.extend_elements(subgroup, gens, 120)) == 120


def test_left_coset_is_left_multiplication():
    degree, subgroup, gens = _extension_cases()["c5_by_transposition"]
    y = gens[1]
    assert kernels.left_coset(y, subgroup) == [kernels.compose(y, h) for h in subgroup]


def _bfs_close(degree, gens):
    """Reference oracle: breadth-first search from the identity, left
    multiplying by every generator, with no limit."""
    ident = bytes(range(degree))
    seen = {ident}
    order = [ident]
    for x in order:  # `order` grows while it is read
        for g in gens:
            y = kernels.compose(g, x)
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def _closure_cases():
    # D5 wr C3 at degree 15, of order 10^3 * 3
    ident5 = Permutation.identity(5)
    wreath = [WreathElement(top=parse_cycles("(1 2 3)", 3),
                            base=(parse_cycles("(1 2 3 4 5)", 5), ident5, ident5)),
              WreathElement(top=Permutation.identity(3),
                            base=(parse_cycles("(2 5)(3 4)", 5), ident5, ident5))]
    wreath = [w.as_permutation().table for w in wreath]
    return {
        "trivial": (5, []),
        "c7": (7, [_table("(1 2 3 4 5 6 7)", 7)]),
        "s4": (4, [_table("(1 2 3 4)", 4), _table("(1 2)", 4)]),
        "f21_in_s7": (7, [_table("(1 2 3 4 5 6 7)", 7), _table("(2 3 5)(4 7 6)", 7)]),
        "s7": (7, [_table("(1 2 3 4 5 6 7)", 7), _table("(1 2)", 7)]),
        "wreath_15": (15, wreath),
    }


@pytest.mark.parametrize("case", sorted(_closure_cases()))
def test_close_elements_matches_breadth_first_oracle(case):
    degree, gens = _closure_cases()[case]
    want = _bfs_close(degree, gens)
    got = kernels.close_elements(degree, gens, len(want))
    assert got[0] == bytes(range(degree))
    assert len(got) == len(set(got)) == len(want)
    assert set(got) == set(want)
    assert kernels.close_elements(degree, gens, len(want) - 1) is None
