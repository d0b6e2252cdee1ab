from random import Random

import pytest

from permwit import kernels
from permwit import quotient as quotient_module
from permwit.errors import BudgetExceeded, IsomorphismUndecided, NotNormal, PermwitError
from permwit.group import PermGroup
from permwit.perm import Permutation
from permwit.quotient import (
    CayleyTable,
    find_isomorphism,
    is_cyclic,
    order_histogram,
    quotient,
)

from samplers import random_permutation


def s5():
    return PermGroup.from_cycles(5, "(1 2)", "(1 2 3 4 5)")


def a5():
    return PermGroup.from_cycles(5, "(1 2 3)", "(3 4 5)")


def klein_table():
    v4 = PermGroup.from_cycles(4, "(1 2)(3 4)", "(1 3)(2 4)")
    return quotient(v4, PermGroup.trivial(4))


def cyclic_table(m):
    """The cyclic group of order m as a Cayley table (reps act on m points)."""
    cycle = Permutation(list(range(2, m + 1)) + [1])
    reps = tuple(cycle ** k for k in range(m))
    table = tuple(tuple((a + b) % m for b in range(m)) for a in range(m))
    return CayleyTable(reps=reps, table=table)


def verify_mapping(t1, t2, mapping):
    assert sorted(mapping) == list(range(t1.order))
    for a in range(t1.order):
        for b in range(t1.order):
            assert mapping[t1.table[a][b]] == t2.table[mapping[a]][mapping[b]]


class TestQuotient:
    def test_by_self_is_trivial(self):
        g = s5()
        t = quotient(g, g)
        assert t.order == 1 and t.reps[0].is_identity()

    def test_witness_group_mod_cycle_is_cyclic_of_order_three(self):
        g = PermGroup.from_cycles(9, "(1 2 3 4 5 6 7 8 9)", "(2 5 8)(3 9 6)")
        n = PermGroup.from_cycles(9, "(1 2 3 4 5 6 7 8 9)")
        t = quotient(g, n)
        assert t.order == 3 and is_cyclic(t)

    def test_s5_mod_a5(self):
        t = quotient(s5(), a5())
        assert t.order == 2 and is_cyclic(t)

    def test_non_normal_rejected(self):
        s3 = PermGroup.from_cycles(3, "(1 2)", "(1 2 3)")
        with pytest.raises(NotNormal):
            quotient(s3, PermGroup.from_cycles(3, "(1 2)"))

    def test_budget(self):
        # the index is read from the orders, so this fails before any of
        # the 5040 cosets is sought
        s7 = PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)")
        with pytest.raises(BudgetExceeded, match=r"5040.*1000"):
            quotient(s7, PermGroup.trivial(7))

    def test_table_invariants_validated(self):
        t = quotient(s5(), PermGroup.trivial(5))
        t.validate()
        assert t.order == 120
        broken = CayleyTable(reps=t.reps, table=tuple(
            tuple(0 for _ in row) for row in t.table))
        with pytest.raises(Exception):
            broken.validate()
        # Z_70 with one intercalate swapped: still a loop (a Latin square
        # with identity 0), but not associative
        z70 = cyclic_table(70)
        rows = [list(row) for row in z70.table]
        for r in (7, 42):
            rows[r][23], rows[r][58] = rows[r][58], rows[r][23]
        loop = CayleyTable(reps=z70.reps, table=tuple(map(tuple, rows)))
        with pytest.raises(PermwitError, match="not associative"):
            loop.validate()

    def test_table_matches_coset_oracle_on_random_corpus(self):
        # table[a][b] must be the one c with reps[c]^-1 * reps[a] * reps[b]
        # in N, that is with reps[a] * reps[b] in the coset reps[c] * N,
        # which is built here from N's element set
        rng = Random(37)
        for _ in range(60):
            n = rng.randint(3, 6)
            group = PermGroup(
                [random_permutation(n, rng) for _ in range(2)], degree=n)
            if group.order() > 120:
                continue
            sub = rng.choice(list(group.all_normal_subgroups())).group
            t = quotient(group, sub)
            assert len(t.reps) == group.order() // sub.order()
            reps = [r.table for r in t.reps]
            owners = {}
            for c, rep in enumerate(reps):
                for x in sub.element_tables():
                    owners.setdefault(kernels.compose(rep, x), []).append(c)
            assert len(owners) == group.order()
            for a in range(t.order):
                for b in range(t.order):
                    ab = kernels.compose(reps[a], reps[b])
                    assert owners[ab] == [t.table[a][b]]


def test_coset_key_matches_element_oracle():
    # key(x) == key(y) exactly when x^-1 y lies in H, and key(x) is the
    # element of xH whose base images are least, in base order
    rng = Random(41)
    pad = kernels.PADDED_IDENTITY
    for _ in range(40):
        n = rng.randint(2, 7)
        sub = PermGroup([random_permutation(n, rng) for _ in range(rng.randint(0, 2))],
                        degree=n)
        elements = sub.element_tables()
        members = set(elements)
        base = sub.chain.base
        key = quotient_module._coset_key(sub.chain)
        xs = [random_permutation(n, rng).table for _ in range(5)]
        xs += [kernels.compose(x, rng.choice(elements)) for x in xs[:3]]
        keys = [key(x + pad[n:]) for x in xs]
        for x, k in zip(xs, keys):
            assert len(k) == 256 and k[n:] == pad[n:]
            coset = [kernels.compose(x, h) for h in elements]
            assert k[:n] == min(coset, key=lambda e: [e[b] for b in base])
        for x, kx in zip(xs, keys):
            for y, ky in zip(xs, keys):
                in_sub = kernels.compose(kernels.inverse(x), y) in members
                assert (kx == ky) == in_sub


class TestOrderHistogram:
    def test_cyclic_three(self):
        assert order_histogram(cyclic_table(3)) == ((1, 1), (3, 2))

    def test_klein(self):
        assert order_histogram(klein_table()) == ((1, 1), (2, 3))

    def test_s3(self):
        s3 = PermGroup.from_cycles(3, "(1 2)", "(1 2 3)")
        t = quotient(s3, PermGroup.trivial(3))
        assert order_histogram(t) == ((1, 1), (2, 3), (3, 2))


class TestIsomorphism:
    def test_reflexive_with_witness(self):
        t = quotient(s5(), a5())
        mapping = find_isomorphism(t, t)
        assert mapping is not None
        verify_mapping(t, t, mapping)

    def test_cyclic_vs_klein(self):
        assert find_isomorphism(cyclic_table(4), klein_table()) is None

    def test_cyclic_groups_of_equal_prime_order(self):
        for p in (2, 3, 5, 7):
            assert find_isomorphism(cyclic_table(p), cyclic_table(p)) is not None

    def test_s3_quotient_vs_s3(self):
        s4 = PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)")
        v4 = PermGroup.from_cycles(4, "(1 2)(3 4)", "(1 3)(2 4)")
        s3 = PermGroup.from_cycles(3, "(1 2)", "(1 2 3)")
        t1 = quotient(s4, v4)
        t2 = quotient(s3, PermGroup.trivial(3))
        mapping = find_isomorphism(t1, t2)
        assert mapping is not None
        verify_mapping(t1, t2, mapping)

    def test_nonabelian_vs_abelian_same_order(self):
        s3 = PermGroup.from_cycles(3, "(1 2)", "(1 2 3)")
        t1 = quotient(s3, PermGroup.trivial(3))
        assert find_isomorphism(t1, cyclic_table(6)) is None

    def test_reflexive_and_symmetric_on_random_corpus(self):
        rng = Random(31)
        tables = []
        while len(tables) < 50:
            n = rng.randint(2, 6)
            group = PermGroup(
                [random_permutation(n, rng) for _ in range(2)], degree=n)
            if group.order() > 48:
                continue
            sub = group.normal_closure([group.random_element(rng)])
            tables.append(quotient(group, sub))
        for t in tables:
            assert find_isomorphism(t, t) is not None
        for _ in range(60):
            t1, t2 = rng.choice(tables), rng.choice(tables)
            assert ((find_isomorphism(t1, t2) is None)
                    == (find_isomorphism(t2, t1) is None))

    def test_every_returned_mapping_is_checked(self):
        rng = Random(33)
        pairs = 0
        while pairs < 20:
            n = rng.randint(2, 6)
            group = PermGroup(
                [random_permutation(n, rng) for _ in range(2)], degree=n)
            if group.order() > 24:
                continue
            t = quotient(group, PermGroup.trivial(n))
            mapping = find_isomorphism(t, t)
            assert mapping is not None
            verify_mapping(t, t, mapping)
            pairs += 1

    def test_node_budget_raises_undecided(self, monkeypatch):
        monkeypatch.setattr(quotient_module, "ISO_NODE_BUDGET", 0)
        t = cyclic_table(12)
        with pytest.raises(IsomorphismUndecided):
            find_isomorphism(t, t)
