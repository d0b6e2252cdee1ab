import hashlib
import math
from collections import Counter
from random import Random

import pytest

import permwit.group as group_module
import permwit.refute as refute_module
from permwit import kernels
from permwit.census import affine_group, census
from permwit.errors import BudgetExceeded, DegreeMismatch, NotASubgroup, PermwitError
from permwit.group import (
    ENUMERATION_BUDGET,
    PermGroup,
    StabilizerChain,
    group_from_elements,
    is_normal,
)
from permwit.perm import Permutation, parse_cycles
from permwit.witness import construct_witness, valid_primes
from permwit.wreath import WreathElement

from samplers import random_group_with_normal, random_permutation


def naive_order(group):
    """Independent oracle: plain closure enumeration, no stabilizer chain."""
    elems = kernels.close_elements(
        group.degree, [g.table for g in group.generators], 6000)
    assert elems is not None
    return len(elems)


def tau_sigma_9():
    return PermGroup.from_cycles(9, "(1 2 3 4 5 6 7 8 9)", "(2 5 8)(3 9 6)")


def normal_subgroup_oracle(group):
    """Independent oracle: every union of conjugacy classes that holds the
    identity and is closed under products, by brute force over elements."""
    elems = kernels.close_elements(
        group.degree, [g.table for g in group.generators], 6000)
    classes = []
    seen = set()
    for x in elems:
        if x in seen:
            continue
        cls = frozenset(kernels.compose(g, kernels.compose(x, kernels.inverse(g)))
                        for g in elems)
        seen |= cls
        classes.append(cls)
    ident = bytes(range(group.degree))
    (identity_class,) = [c for c in classes if ident in c]
    others = [c for c in classes if c is not identity_class]
    out = set()
    for bits in range(1 << len(others)):
        members = set(identity_class)
        for i, cls in enumerate(others):
            if bits >> i & 1:
                members |= cls
        if all(kernels.compose(a, b) in members for a in members for b in members):
            out.add(frozenset(members))
    return out


class TestOrder:
    def test_cyclic(self):
        assert PermGroup.from_cycles(6, "(1 2 3 4 5 6)").order() == 6

    def test_degree_nine_witness_group(self):
        g = tau_sigma_9()
        assert g.order() == 27
        assert g.order() == naive_order(g)

    def test_s5(self):
        g = PermGroup.from_cycles(5, "(1 2)", "(1 2 3 4 5)")
        assert g.order() == 120
        assert naive_order(g) == 120

    def test_trivial(self):
        assert PermGroup.trivial(4).order() == 1

    def test_chain_matches_naive_enumeration_on_corpus(self):
        corpus = [
            PermGroup.trivial(3),
            PermGroup.from_cycles(6, "(1 2 3 4 5 6)"),
            PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)"),
            PermGroup.from_cycles(5, "(1 2 3)", "(3 4 5)"),
            PermGroup.from_cycles(7, "(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"),
            PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)"),
            PermGroup.from_cycles(8, "(1 2 3 4)(5 6 7 8)", "(1 5)(2 6)(3 7)(4 8)"),
            tau_sigma_9(),
        ]
        rng = Random(42)
        for _ in range(25):
            n = rng.randint(2, 7)
            corpus.append(PermGroup(
                [random_permutation(n, rng) for _ in range(2)], degree=n))
        for g in corpus:
            assert g.order() == naive_order(g)

    def test_order_exceeds_early_exit(self):
        s10 = PermGroup.from_cycles(10, "(1 2)", "(1 2 3 4 5 6 7 8 9 10)")
        assert s10.order_exceeds(10000)
        assert not tau_sigma_9().order_exceeds(27)
        assert tau_sigma_9().order_exceeds(26)


class TestContains:
    def test_identity(self):
        g = PermGroup.from_cycles(5, "(1 2 3)")
        assert Permutation.identity(5) in g

    def test_cube_of_six_cycle(self):
        g = PermGroup.from_cycles(6, "(1 2 3 4 5 6)")
        target = parse_cycles("(1 4)(2 5)(3 6)", 6)
        tau = g.generators[0]
        assert tau ** 3 == target  # oracle
        assert g.contains(target)

    def test_transposition_not_in_c3(self):
        g = PermGroup.from_cycles(3, "(1 2 3)")
        assert not g.contains(parse_cycles("(1 2)", 3))
        assert {e.cycle_string() for e in g.elements()} == {"()", "(1 2 3)", "(1 3 2)"}

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            PermGroup.from_cycles(3, "(1 2 3)").contains(parse_cycles("(1 2)", 4))


class TestOrbits:
    def test_n2_of_degree_six_witness(self):
        n2 = PermGroup.from_cycles(6, "(2 6)(3 5)", "(1 3 5)(2 4 6)")
        assert n2.orbits() == [(1, 3, 5), (2, 4, 6)]
        assert not n2.is_transitive()

    def test_full_cycle_transitive(self):
        for n in (2, 5, 11):
            cycle = "(" + " ".join(map(str, range(1, n + 1))) + ")"
            assert PermGroup.from_cycles(n, cycle).is_transitive()

    def test_trivial_group_orbits(self):
        assert PermGroup.trivial(4).orbits() == [(1,), (2,), (3,), (4,)]

    @staticmethod
    def assert_chain_answer_is_orbit_answer(group, monkeypatch):
        by_orbit = group.is_transitive()
        assert group._chain is None
        assert by_orbit == (len(group.orbits()) == 1)
        group.order()

        def no_orbit(*args):
            raise AssertionError("a built chain answers without an orbit walk")

        monkeypatch.setattr(kernels, "orbit", no_orbit)
        assert group.is_transitive() == by_orbit

    @pytest.mark.parametrize("build", [
        lambda: PermGroup.trivial(1),
        lambda: PermGroup([Permutation.identity(1)]),
        lambda: PermGroup.trivial(6),
        # the first generator fixes point 1, so the base starts elsewhere
        lambda: PermGroup.from_cycles(5, "(2 3 4 5)", "(1 2)"),
        lambda: PermGroup.from_cycles(5, "(2 3)", "(4 5)"),
        lambda: PermGroup.from_cycles(6, "(2 6)(3 5)", "(1 3 5)(2 4 6)"),
    ], ids=["trivial_1", "identity_1", "trivial_6", "transitive_fixing_1",
            "intransitive_fixing_1", "witness_n2_6"])
    def test_chain_answer_on_named_groups(self, build, monkeypatch):
        self.assert_chain_answer_is_orbit_answer(build(), monkeypatch)

    @pytest.mark.parametrize("seed", range(40))
    def test_chain_answer_on_seeded_groups(self, seed, monkeypatch):
        # one to three cycles, each through a random subset of the points,
        # give transitive and intransitive groups of degree 2..12
        rng = Random(seed)
        degree = rng.randint(2, 12)
        gens = [random_cycle(degree, rng) for _ in range(rng.randint(1, 3))]
        self.assert_chain_answer_is_orbit_answer(PermGroup(gens, degree=degree),
                                                 monkeypatch)


class TestNormality:
    def test_witness_n1_is_normal(self):
        g = tau_sigma_9()
        n1 = PermGroup.from_cycles(9, "(1 2 3 4 5 6 7 8 9)")
        assert is_normal(n1, g)
        assert g.order() // n1.order() == 3

    def test_self_normal(self):
        g = PermGroup.from_cycles(4, "(1 2)", "(3 4)")
        assert is_normal(g, g)

    def test_transposition_not_normal_in_s3(self):
        s3 = PermGroup.from_cycles(3, "(1 2)", "(1 2 3)")
        sub = PermGroup.from_cycles(3, "(1 2)")
        # oracle: conjugating (1 2) by (2 3) gives (1 3), outside the subgroup
        conj = parse_cycles("(1 2)", 3).conjugate(parse_cycles("(2 3)", 3))
        assert conj == parse_cycles("(1 3)", 3)
        assert not is_normal(sub, s3)

    def test_not_a_subgroup_raises(self):
        s3 = PermGroup.from_cycles(3, "(1 2 3)")
        with pytest.raises(NotASubgroup):
            is_normal(PermGroup.from_cycles(3, "(1 2)"), s3)


def normality_oracle(h_group, g_group):
    """Independent oracle on element sets, no stabilizer chain: None when H
    is not inside G, else whether g H g^-1 = H for each generator g of G,
    each conjugate formed as the product g * h * g^-1."""
    def elements(group):
        return set(kernels.close_elements(
            group.degree, [g.table for g in group.generators], 5040))

    g_elems, h_elems = elements(g_group), elements(h_group)
    if not h_elems <= g_elems:
        return None
    return all(
        {kernels.compose(kernels.compose(g.table, h), kernels.inverse(g.table))
         for h in h_elems} == h_elems
        for g in g_group.generators)


def normality_cases():
    """(H, G) pairs of degree <= 7: seeded normal closures, seeded cyclic
    subgroups (often not normal), seeded groups with a random permutation
    (often not inside G), and hand-built edge cases."""
    rng = Random(2026)
    cases = []
    for _ in range(25):
        group, normal = random_group_with_normal(rng, max_degree=7)
        x = group.random_element(rng)
        cases += [(normal, group), (PermGroup([x], degree=group.degree), group),
                  (PermGroup([x, random_permutation(group.degree, rng)]), group)]
    s4 = PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)")
    v4 = PermGroup.from_cycles(4, "(1 2)(3 4)", "(1 3)(2 4)")
    c4 = PermGroup.from_cycles(4, "(1 2 3 4)")
    ident = Permutation.identity(4)
    cases += [
        (PermGroup.trivial(4), s4),
        (PermGroup.trivial(4), PermGroup.trivial(4)),
        (s4, s4),
        (PermGroup.from_cycles(5, "(1 2 3)"), PermGroup.from_cycles(5, "(1 2)")),
        (PermGroup([ident, *v4.generators, v4.generators[0]]), s4),
        (PermGroup([ident, *c4.generators, c4.generators[0]]), s4),
        (v4, PermGroup([ident, *s4.generators, s4.generators[1], ident])),
        (c4, PermGroup([ident, *s4.generators, s4.generators[1], ident])),
        (PermGroup([ident]), PermGroup([ident, ident])),
        (s4, v4),
    ]
    return cases


class TestNormalityOracle:
    @pytest.mark.parametrize("patched", [False, True])
    def test_agrees_with_element_sets(self, monkeypatch, patched):
        cases = normality_cases()
        if patched:
            # the test runs on generator tables and chains alone
            def refuse(*args):
                raise AssertionError("is_normal made or tested a Permutation")
            monkeypatch.setattr(Permutation, "conjugate", refuse)
            monkeypatch.setattr(PermGroup, "contains", refuse)
        verdicts = Counter()
        for h_group, g_group in cases:
            expected = normality_oracle(h_group, g_group)
            verdicts[expected] += 1
            if expected is None:
                with pytest.raises(NotASubgroup):
                    is_normal(h_group, g_group)
            else:
                assert is_normal(h_group, g_group) is expected, (h_group, g_group)
        # every verdict is exercised
        assert min(verdicts[True], verdicts[False], verdicts[None]) >= 5, verdicts

    def test_degree_mismatch_comes_first(self):
        # H is not inside G either, but the degrees are checked first
        with pytest.raises(DegreeMismatch):
            is_normal(PermGroup.from_cycles(3, "(1 2)"),
                      PermGroup.from_cycles(4, "(1 2 3 4)"))


class TestNormalClosure:
    def test_three_cycle_in_s5_generates_a5(self):
        s5 = PermGroup.from_cycles(5, "(1 2)", "(1 2 3 4 5)")
        a5 = s5.normal_closure([parse_cycles("(1 2 3)", 5)])
        assert a5.order() == 60

    def test_identity_seed(self):
        g = PermGroup.from_cycles(4, "(1 2 3 4)")
        assert g.normal_closure([Permutation.identity(4)]).order() == 1

    def test_already_normal(self):
        g = tau_sigma_9()
        closed = g.normal_closure([g.generators[0]])
        assert closed.order() == 9
        assert is_normal(closed, g)

    def test_seed_outside_group(self):
        g = PermGroup.from_cycles(3, "(1 2 3)")
        with pytest.raises(NotASubgroup):
            g.normal_closure([parse_cycles("(1 2)", 3)])

    def test_generators_match_pinned_digest(self):
        # the generator tables of every closure in acceptance criterion 5's
        # corpus (500 seeded pairs) and of A7 = <(1 2 3)^S7>, each list ended
        # by b"|", are pinned: a change in which conjugates the fixed-point
        # loop keeps changes the digest
        h = hashlib.sha256()
        rng = Random(977)
        for _ in range(500):
            _, normal = random_group_with_normal(rng, max_degree=12)
            h.update(b"".join(g.table for g in normal.generators) + b"|")
        s7 = PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)")
        a7 = s7.normal_closure([parse_cycles("(1 2 3)", 7)])
        h.update(b"".join(g.table for g in a7.generators) + b"|")
        assert h.hexdigest() == (
            "6cea59353c1d53ffc1e9bc839c17c82614384d2b5848ca321b97dbfee1524300")
        assert a7.order() == 2520
        assert is_normal(a7, s7)


class TestConjugacyClasses:
    def test_s3(self):
        s3 = PermGroup.from_cycles(3, "(1 2)", "(1 2 3)")
        sizes = sorted(size for _, size in s3.conjugacy_classes())
        assert sizes == [1, 2, 3]

    def test_abelian_all_singletons(self):
        c6 = PermGroup.from_cycles(6, "(1 2 3 4 5 6)")
        assert all(size == 1 for _, size in c6.conjugacy_classes())

    def test_a5(self):
        a5 = PermGroup.from_cycles(5, "(1 2 3)", "(3 4 5)")
        sizes = sorted(size for _, size in a5.conjugacy_classes())
        assert sizes == [1, 12, 12, 15, 20]

    def test_budget_error_names_bound(self):
        s8 = PermGroup.from_cycles(8, "(1 2)", "(1 2 3 4 5 6 7 8)")
        with pytest.raises(BudgetExceeded, match="10000"):
            s8.conjugacy_classes()


class TestAllNormalSubgroups:
    def test_a5_is_simple(self):
        a5 = PermGroup.from_cycles(5, "(1 2 3)", "(3 4 5)")
        assert tuple(e.order for e in a5.all_normal_subgroups()) == (1, 60)

    def test_s5(self):
        s5 = PermGroup.from_cycles(5, "(1 2)", "(1 2 3 4 5)")
        assert tuple(e.order for e in s5.all_normal_subgroups()) == (1, 60, 120)

    def test_cyclic_divisor_lattice(self):
        c6 = PermGroup.from_cycles(6, "(1 2 3 4 5 6)")
        assert tuple(e.order for e in c6.all_normal_subgroups()) == (1, 2, 3, 6)

    @pytest.mark.parametrize("group", [
        PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)"),
        PermGroup.from_cycles(4, "(1 2 3 4)", "(1 3)"),
        PermGroup.from_cycles(6, "(1 2)", "(3 4)", "(5 6)"),
        PermGroup.from_cycles(6, "(1 2 4 3)", "(5 6)"),
        tau_sigma_9(),
    ], ids=["S4", "D8", "C2^3", "C4xC2", "tau_sigma_9"])
    def test_matches_brute_force_oracle(self, group):
        lattice = group.all_normal_subgroups()
        found = [frozenset(sub.group.element_tables()) for sub in lattice]
        assert len(set(found)) == len(found)
        assert set(found) == normal_subgroup_oracle(group)
        for sub in lattice:
            assert sub.group.order() == sub.order
            assert sub.index * sub.order == group.order()

    @pytest.mark.parametrize("group", [
        PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)"),
        tau_sigma_9(),
    ], ids=["S4", "tau_sigma_9"])
    def test_builds_no_stabilizer_chain(self, group, monkeypatch):
        group.element_tables()  # builds the group's own chain and elements
        builds = []
        original = StabilizerChain.__init__

        def counting_init(chain, *args, **kwargs):
            builds.append(args)
            original(chain, *args, **kwargs)

        monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
        assert len(group.all_normal_subgroups()) > 2
        assert builds == []

    @pytest.mark.parametrize("degree, cycles, counts", [
        (10, ("(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)"),
         {1: 1, 2: 31, 4: 155, 8: 155, 16: 31, 32: 1}),
        (12, ("(1 2 3)", "(4 5 6)", "(7 8 9)", "(10 11 12)"),
         {1: 1, 3: 40, 9: 130, 27: 40, 81: 1}),
    ], ids=["C2^5", "C3^4"])
    def test_elementary_abelian_lattice(self, degree, cycles, counts):
        # every subgroup is normal, and the counts per order are the
        # Gaussian binomials
        group = PermGroup.from_cycles(degree, *cycles)
        lattice = group.all_normal_subgroups()
        assert Counter(e.order for e in lattice) == counts
        assert all(e.group.order() == e.order for e in lattice)

    def test_lattice_is_cached_and_budget_still_checked(self):
        s5 = PermGroup.from_cycles(5, "(1 2)", "(1 2 3 4 5)")
        first = s5.all_normal_subgroups()
        assert s5.all_normal_subgroups() is first

    def test_entries_are_normal_with_consistent_index(self):
        for group in (PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)"),
                      tau_sigma_9()):
            total = group.order()
            for sub in group.all_normal_subgroups():
                assert is_normal(sub.group, group)
                assert sub.index * sub.order == total


def lattice_record(group):
    """Mask, order and generator tables of each entry of a fresh copy's lattice."""
    fresh = PermGroup(group.generators, degree=group.degree)
    return [(sub.mask, sub.order, [g.table for g in sub.group.generators])
            for sub in fresh.all_normal_subgroups()]


def refute_small_groups(p, q, samples, seed):
    """The distinct transitive groups within the budget among the samples
    `refute(p, q, samples, seed)` draws."""
    rng = Random(seed)
    groups = {}
    for _ in range(samples):
        tables = refute_module._draw_generators(p, q, rng)
        if len(kernels.orbit(0, tables)) < p * q:
            continue
        group = PermGroup([Permutation._from_table(t) for t in tables], degree=p * q)
        if not group.order_exceeds(ENUMERATION_BUDGET):
            groups.setdefault(frozenset(group.element_tables()), group)
    return list(groups.values())


class TestClassClosureBound:
    def test_matches_unbounded_growth(self, monkeypatch):
        # the reference grows every class closure to the end, with no
        # Lagrange stop: the lattice must not change, and the stop must
        # save listing
        groups = (census_groups(5) + census_groups(7)
                  + refute_small_groups(3, 5, 2000, 1))
        assert len(groups) > 20
        listed = [0]
        extend = kernels.extend_elements

        def counting(subgroup, gens, limit):
            result = extend(subgroup, gens, limit)
            listed[0] += 0 if result is None else len(result) - len(subgroup)
            return result

        monkeypatch.setattr(kernels, "extend_elements", counting)
        bounded = [lattice_record(group) for group in groups]
        bounded_listed, listed[0] = listed[0], 0
        grow = group_module._grow
        monkeypatch.setattr(group_module, "_grow", lambda elements, gens, candidates, limit:
                            grow(elements, gens, candidates, ENUMERATION_BUDGET))
        assert bounded == [lattice_record(group) for group in groups]
        assert bounded_listed < listed[0]

    def test_s7_closures_stop_at_half(self, monkeypatch):
        # S_7's normal subgroups are 1, A_7 and S_7.  The first even class
        # lists A_7 (half of S_7, the only bound then); each later even
        # class stops past half of A_7, and each odd class past half of S_7
        s7 = PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)")
        s7.conjugacy_classes()  # lists S_7 itself
        sizes = []
        extend = kernels.extend_elements

        def recording(subgroup, gens, limit):
            result = extend(subgroup, gens, limit)
            if result is not None:
                sizes.append(len(result))
            return result

        monkeypatch.setattr(kernels, "extend_elements", recording)
        assert [sub.order for sub in s7.all_normal_subgroups()] == [1, 2520, 5040]
        assert max(sizes) == 2520
        assert sum(size > 1260 for size in sizes) == 1


def two_transitive_oracle(group):
    """Independent oracle: the orbit of the ordered pair (1, 2), walked on
    the generators, holds all n(n-1) ordered pairs of distinct points."""
    n = group.degree
    tables = [g.table for g in group.generators]
    seen = {(0, 1)}
    stack = [(0, 1)]
    while stack:
        a, b = stack.pop()
        for g in tables:
            pair = (g[a], g[b])
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return len(seen) == n * (n - 1)


def classical_groups(n):
    """S_n, A_n, C_n and D_n on {1..n}, from cycle strings."""
    full = "(" + " ".join(map(str, range(1, n + 1))) + ")"
    flip = "".join(f"({i} {n + 1 - i})" for i in range(1, n // 2 + 1))
    return [PermGroup.from_cycles(n, "(1 2)", full),
            PermGroup.from_cycles(n, *(f"(1 2 {k})" for k in range(3, n + 1))),
            PermGroup.from_cycles(n, full),
            PermGroup.from_cycles(n, full, flip)]


class TestTwoTransitivity:
    def test_matches_pair_orbit_oracle(self):
        groups = [entry.group for q in (2, 3, 5, 7) for entry in census(q)]
        groups += [g for n in range(2, 8) for g in classical_groups(n)]
        groups += [PermGroup.trivial(2), PermGroup.trivial(3)]
        rng = Random(2024)
        for _ in range(300):
            n = rng.randint(2, 9)
            groups.append(PermGroup([random_permutation(n, rng)
                                     for _ in range(rng.randint(1, 2))], degree=n))
        verdicts = [g.is_2_transitive() for g in groups]
        assert verdicts == [two_transitive_oracle(g) for g in groups]
        assert 0 < sum(verdicts) < len(groups)

    @pytest.mark.parametrize("n, p", [(6, 2), (9, 3), (21, 3)])
    def test_witness_groups_are_transitive_not_2_transitive(self, n, p):
        g = construct_witness(n, p).G
        assert g.is_transitive()
        assert not g.is_2_transitive()
        assert not two_transitive_oracle(g)

    def test_s5(self):
        assert PermGroup.from_cycles(5, "(1 2)", "(1 2 3 4 5)").is_2_transitive()

    def test_c5_pair_orbit_too_small(self):
        assert not PermGroup.from_cycles(5, "(1 2 3 4 5)").is_2_transitive()

    def test_a5(self):
        assert PermGroup.from_cycles(5, "(1 2 3)", "(3 4 5)").is_2_transitive()

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            PermGroup.trivial(1).is_2_transitive()


class TestEqualOrbitSizeProperty:
    def test_normal_subgroup_orbits_have_equal_length(self):
        # 500 seeded (transitive G, normal N) pairs at degree <= 12: all
        # orbits of N share one length, and that length divides the degree
        seed = 977
        print(f"equal-orbit-length property seed: {seed}")
        rng = Random(seed)
        for _ in range(500):
            group, normal = random_group_with_normal(rng)
            sizes = {len(o) for o in normal.orbits()}
            assert len(sizes) == 1
            (size,) = sizes
            assert group.degree % size == 0
            # Lagrange, while we have the pair
            assert group.order() % normal.order() == 0


def assert_inverse_transversals(chain):
    ident = bytes(range(chain.degree))
    assert len(chain.transversals) == len(chain.base)
    for i, trans in enumerate(chain.transversals):
        for x, rep in trans.items():
            inv = chain.inverse_rep(i, x)  # rep^-1 as a padded translation table
            assert len(inv) == 256
            assert rep.translate(inv) == ident
            assert chain.inverse_rep(i, x) is inv
        outside = set(range(chain.degree)) - trans.keys()
        assert all(chain.inverse_rep(i, x) is None for x in outside)


def s7_chain():
    return PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)").chain


def wreath_15_chain():
    rng = Random(15)
    gens = [WreathElement(top=random_permutation(3, rng),
                          base=tuple(random_permutation(5, rng) for _ in range(3))
                          ).as_permutation()
            for _ in range(2)]
    return PermGroup(gens, degree=15).chain


def s7_prefix_chain():
    s7 = PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)")
    return StabilizerChain(7, [g.table for g in s7.generators], base_prefix=[3, 5])


class TestInverseTransversals:
    def test_symmetric_group_s7(self):
        chain = s7_chain()
        assert chain.order() == 5040
        assert_inverse_transversals(chain)

    def test_degree_15_wreath_sample(self):
        chain = wreath_15_chain()
        assert chain.order() > 1
        assert_inverse_transversals(chain)

    def test_pointwise_stabilizer_chain(self):
        chain = s7_prefix_chain()
        assert chain.base[:2] == [3, 5]
        assert chain.order() == 5040
        assert_inverse_transversals(chain)


# the sha256 of repr((base, per-level strong generators, sorted transversal
# items)) of each chain, recorded when orbits began to grow in place: the
# same inputs must keep giving the same bases, level generators and
# representatives
PINNED_CHAINS = {
    "S7": (s7_chain, "3d0ab6b10f9b427389bcefe0b4697aa47d2b5618ef0437b8cec303ac8c7a45a4"),
    "wreath_15": (wreath_15_chain,
                  "cb4914c669b23f8176fba68c3c9204ef3ebdd6d4d31e02f82cadb4c877084abc"),
    "witness_253": (lambda: construct_witness(253, 11).G.chain,
                    "fd932e279eb0ade27aa47fe38d623597a0067350c8670d4ee30eb81a1db7f907"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHAINS))
def test_pinned_chain(name):
    build, digest = PINNED_CHAINS[name]
    chain = build()
    key = (chain.base, [chain.stabilizer_gens(k) for k in range(len(chain.base))],
           [sorted(t.items()) for t in chain.transversals])
    assert hashlib.sha256(repr(key).encode()).hexdigest() == digest


@pytest.mark.parametrize("build", [s7_chain, wreath_15_chain, s7_prefix_chain],
                         ids=["S7", "wreath_15", "S7_base_prefix"])
def test_each_schreier_generator_is_sifted_once(build, monkeypatch):
    # every edge (x, s) of a level's final orbit graph whose Schreier
    # generator u_{s[x]}^-1 * s * u_x is not the identity was sifted from
    # the next level exactly once during the build, and nothing else was
    sifted = Counter()
    original = StabilizerChain._sift_from

    def counting(chain, start, table):
        sifted[start, table] += 1
        return original(chain, start, table)

    monkeypatch.setattr(StabilizerChain, "_sift_from", counting)
    chain = build()
    monkeypatch.undo()
    ident = bytes(range(chain.degree))
    expected = Counter()
    for i, trans in enumerate(chain.transversals):
        for x, rep in trans.items():
            for s in chain._level_gens[i]:
                sg = rep.translate(s).translate(chain.inverse_rep(i, s[x]))[:chain.degree]
                if sg != ident:
                    expected[i + 1, sg] += 1
    assert expected
    assert sifted == expected
    assert chain._edges == [[] for _ in chain.base]


def test_chain_build_and_sift_call_no_kernel(monkeypatch):
    s7 = [g.table for g in PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)").generators]
    wreath = wreath_15_chain().stabilizer_gens(0)
    calls = []

    def counting(name):
        real = getattr(kernels, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(kernels, "compose", counting("compose"))
    monkeypatch.setattr(kernels, "inverse", counting("inverse"))
    for degree, gens in ((7, s7), (15, wreath)):
        chain = StabilizerChain(degree, gens)
        assert chain.order() > 1
        assert all(chain.contains(g) for g in gens)
    assert calls == []


def random_cycle(degree, rng):
    """A cycle through 2..degree random points, in random order."""
    table = bytearray(range(degree))
    points = rng.sample(range(degree), rng.randint(2, degree))
    for a, b in zip(points, points[1:] + points[:1]):
        table[a] = b
    return Permutation._from_table(bytes(table))


@pytest.mark.parametrize("seed", range(60))
def test_chain_matches_element_closure(seed):
    # random cycles give a mix of orders, from 2 up to |S_8| = 40320
    rng = Random(seed)
    degree = rng.randint(2, 8)
    group = PermGroup([random_cycle(degree, rng) for _ in range(rng.randint(1, 3))],
                      degree=degree)
    tables = [g.table for g in group.generators]
    members = kernels.close_elements(group.degree, tables, 10**5)
    member_set = set(members)
    chain = group.chain
    assert chain.order() == len(members)
    for t in rng.sample(members, min(len(members), 100)):
        assert chain.contains(t)
    for _ in range(100):
        t = random_permutation(group.degree, rng).table
        assert chain.contains(t) == (t in member_set)
    assert_inverse_transversals(chain)


@pytest.mark.parametrize("build", [s7_chain, wreath_15_chain, s7_prefix_chain],
                         ids=["S7", "wreath_15", "S7_base_prefix"])
def test_level_generators_generate_each_stabilizer(build):
    # level k's generators fix base[:k] pointwise and generate a group whose
    # order is the product of the transversal sizes from level k on
    chain = build()
    assert chain.stabilizer_gens(len(chain.base)) == []
    for k in range(len(chain.base) + 1):
        gens = chain.stabilizer_gens(k)
        assert all(g[b] == b for g in gens for b in chain.base[:k])
        expected = math.prod(len(t) for t in chain.transversals[k:])
        if expected > 20000:  # the wreath's top levels, too large to list
            continue
        assert len(kernels.close_elements(chain.degree, gens, expected)) == expected


def random_wreath_15(rng):
    """2-3 elements of S5 wr S3.  The base entries come from D5 or S5, and
    one entry is shared by all blocks or the three are independent, so the
    orders range from a few dozen to |S5 wr S3|."""
    pool = (PermGroup.from_cycles(5, "(1 2 3 4 5)", "(2 5)(3 4)").elements()
            if rng.random() < 0.5 else None)

    def entry():
        return rng.choice(pool) if pool else random_permutation(5, rng)

    gens = []
    for _ in range(rng.randint(2, 3)):
        base = (entry(),) * 3 if rng.random() < 0.5 else (entry(), entry(), entry())
        gens.append(WreathElement(top=random_permutation(3, rng), base=base).as_permutation())
    return gens


@pytest.mark.parametrize("seed", range(24))
def test_order_limit_abort_is_exact(seed):
    rng = Random(seed)
    if seed % 2:
        degree, gens = 15, random_wreath_15(rng)
    else:
        degree = rng.randint(2, 8)
        gens = [random_cycle(degree, rng) for _ in range(rng.randint(1, 3))]
    order = PermGroup(gens, degree=degree).order()
    for limit in (order - 1, order):
        group = PermGroup(gens, degree=degree)
        assert group.order_exceeds(limit) == (order > limit)
        assert group.order() == order


def witness_groups():
    """G, N1 and N2 of every witness with n <= 64."""
    witnesses = [construct_witness(n, p) for n in range(2, 65) for p in valid_primes(n)]
    return [group for w in witnesses for group in (w.G, w.N1, w.N2)]


def census_groups():
    return [entry.group for q in (5, 7) for entry in census(q)]


def random_groups():
    rng = Random(59)
    groups = []
    for _ in range(40):
        degree = rng.randint(2, 9)
        groups.append(PermGroup([random_cycle(degree, rng) for _ in range(rng.randint(0, 3))],
                                degree=degree))
    return groups


def chain_parts(chain):
    return (chain.base, [list(t.items()) for t in chain.transversals],
            [chain.stabilizer_gens(k) for k in range(len(chain.base))])


@pytest.mark.parametrize("corpus", [witness_groups, census_groups, random_groups],
                         ids=["witness", "census", "random"])
def test_order_bound_is_exact(corpus):
    # a chain whose Schreier check stops at the bound |G| is the chain the
    # full check builds, a bound it never reaches changes nothing, and a
    # bound below |G| is caught
    for group in corpus():
        tables = group._tables
        full = StabilizerChain(group.degree, tables)
        order = full.order()
        for bound in (order, 2 * order):
            bounded = StabilizerChain(group.degree, tables, order_bound=bound)
            assert chain_parts(bounded) == chain_parts(full)
        with pytest.raises(PermwitError, match="exceeds the proven bound"):
            StabilizerChain(group.degree, tables, order_bound=order - 1)


def assert_representatives_are_valid(chain, in_group):
    # each representative lies in the group, maps its base point to its
    # orbit point and fixes every earlier base point
    for i, (b, trans) in enumerate(zip(chain.base, chain.transversals)):
        for x, rep in trans.items():
            assert in_group(rep)
            assert rep[b] == x
            assert all(rep[c] == c for c in chain.base[:i])


def assert_matches_brute_force(chain, tables):
    """Brute-force oracle for a group within the enumeration budget: the
    order is the number of elements Dimino's method lists, every element
    sifts to the identity, and every representative is valid."""
    elements = kernels.close_elements(chain.degree, tables, ENUMERATION_BUDGET)
    assert elements is not None
    assert chain.order() == len(elements)
    ident = bytes(range(chain.degree))
    assert all(chain.sift(t) == ident for t in elements)
    assert_representatives_are_valid(chain, set(elements).__contains__)


def small_group(seed):
    """A group of degree at most 15 within the enumeration budget, drawn
    from the seed: random cycles, or a sample of S5 wr S3."""
    rng = Random(seed)
    while True:
        if seed % 2:
            degree, gens = 15, random_wreath_15(rng)
        else:
            degree = rng.randint(2, 15)
            gens = [random_cycle(degree, rng) for _ in range(rng.randint(1, 3))]
        group = PermGroup(gens, degree=degree)
        if not group.order_exceeds(ENUMERATION_BUDGET):
            return group


@pytest.mark.parametrize("build", [
    lambda: PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)"),
    lambda: construct_witness(253, 11).G,
], ids=["S7", "witness_253"])
def test_named_chains_match_brute_force(build):
    group = build()
    assert_matches_brute_force(group.chain, group._tables)


@pytest.mark.parametrize("seed", range(30))
def test_seeded_chains_match_brute_force(seed):
    group = small_group(seed)
    assert_matches_brute_force(group.chain, group._tables)


def test_wreath_15_chain_is_valid():
    # S5 wr S3 has 120^3 * 6 elements, too many to list: its generators
    # map blocks to blocks, so every representative must too, and random
    # words in the generators must sift to the identity
    chain = wreath_15_chain()
    assert chain.order() == 120 ** 3 * 6
    blocks = [set(range(k, k + 5)) for k in (0, 5, 10)]

    def keeps_blocks(table):
        return all({table[x] for x in block} in blocks for block in blocks)

    assert_representatives_are_valid(chain, keeps_blocks)
    gens = chain.stabilizer_gens(0)
    rng = Random(15)
    ident = bytes(range(15))
    for _ in range(200):
        word = ident
        for _ in range(20):
            word = kernels.compose(rng.choice(gens), word)
        assert chain.sift(word) == ident


@pytest.mark.parametrize("build", [s7_chain, wreath_15_chain, s7_prefix_chain],
                         ids=["S7", "wreath_15", "S7_base_prefix"])
def test_strong_generators_are_padded_and_cut_back(build):
    chain = build()
    strong = [g for level in chain._level_gens for g in level]
    assert strong
    assert all(len(g) == 256 for g in strong)
    for k in range(len(chain.base) + 1):
        gens = chain.stabilizer_gens(k)
        assert all(len(g) == chain.degree for g in gens)
        assert all(g[b] == b for g in gens for b in chain.base[:k])


@pytest.mark.parametrize("cycles", [
    (5, "(1 2)", "(1 2 3 4 5)"),
    (9, "(1 2 3 4 5 6 7 8 9)", "(2 5 8)(3 9 6)"),
], ids=["S5", "tau_sigma_9"])
def test_identity_and_repeated_generators_change_nothing(cycles):
    degree, *strings = cycles
    plain = PermGroup.from_cycles(degree, *strings)
    ident = Permutation.identity(degree)
    a, b = plain.generators
    padded = PermGroup([ident, a, ident, b, a, b], degree=degree)
    assert padded.chain.base == plain.chain.base
    assert padded.chain._level_gens == plain.chain._level_gens
    assert padded.orbits() == plain.orbits()
    assert padded.element_tables() == plain.element_tables()
    assert ([e.order for e in padded.all_normal_subgroups()]
            == [e.order for e in plain.all_normal_subgroups()])


class TestPointwiseStabilizer:
    def test_stabilizer_of_point_in_s4(self):
        s4 = PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)")
        stab = s4.pointwise_stabilizer([1])
        assert stab.order() == 6
        assert all(g(1) == 1 for g in stab.generators)

    def test_stabilizer_of_block(self):
        g = PermGroup.from_cycles(6, "(1 2 3)", "(4 5 6)", "(4 5)")
        stab = g.pointwise_stabilizer([4, 5, 6])
        assert stab.order() == 3

    def test_matches_element_oracle_on_random_groups(self):
        # brute force at degree <= 7: the stabilizer's elements are exactly
        # the group's elements that fix every listed point
        seed = 7411
        print(f"pointwise-stabilizer oracle seed: {seed}")
        rng = Random(seed)
        for _ in range(60):
            n = rng.randint(2, 7)
            group = PermGroup([random_permutation(n, rng)
                               for _ in range(rng.randint(1, 3))], degree=n)
            points = rng.sample(range(1, n + 1), rng.randint(0, n))
            expected = {t for t in group.element_tables()
                        if all(t[x - 1] == x - 1 for x in points)}
            stab = group.pointwise_stabilizer(points)
            assert set(stab.element_tables()) == expected, (group.generators, points)


def chain_generators(tables, degree):
    """Reference: the generator choice of `group_from_elements` defined by a
    stabilizer chain rebuilt for each generator picked."""
    tables = sorted(set(tables))
    ident = bytes(range(degree))
    gens = []
    chain = None
    for t in tables:
        if t == ident:
            continue
        if chain is None or not chain.contains(t):
            gens.append(t)
            chain = StabilizerChain(degree, gens)
            if chain.order() == len(tables):
                break
    return gens


def census_groups(q):
    return [entry.group for entry in census(q)]


class TestGroupFromElements:
    def test_recovers_group_with_few_generators(self):
        s4 = PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)")
        rebuilt = group_from_elements(s4.element_tables(), 4)
        assert rebuilt.order() == 24
        assert len(rebuilt.generators) <= 3

    @pytest.mark.parametrize("groups", [
        lambda: [PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)")],
        lambda: [tau_sigma_9()],
        lambda: [affine_group(7)],
        lambda: census_groups(5),
        lambda: census_groups(7),
    ], ids=["S4", "tau_sigma_9", "AGL(1,7)", "census5", "census7"])
    def test_matches_chain_based_choice(self, groups):
        for group in groups():
            tables = group.element_tables()
            gens = [g.table for g in group_from_elements(tables, group.degree).generators]
            assert gens == chain_generators(tables, group.degree)

    def test_builds_no_stabilizer_chain(self, monkeypatch):
        s5 = PermGroup.from_cycles(5, "(1 2)", "(1 2 3 4 5)")
        tables = s5.element_tables()
        builds = []
        original = StabilizerChain.__init__

        def counting_init(chain, *args, **kwargs):
            builds.append(args)
            original(chain, *args, **kwargs)

        monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
        rebuilt = group_from_elements(tables, 5)
        assert builds == []
        gens = [g.table for g in rebuilt.generators]
        assert len(kernels.close_elements(5, gens, 120)) == 120

    def test_rejects_tables_that_are_not_a_group(self):
        ident = bytes(range(3))
        cycle = parse_cycles("(1 2 3)", 3).table
        with pytest.raises(ValueError, match="not form a group"):
            group_from_elements([ident, cycle], 3)
        # C4 = <(1 2 3 4)> has four elements too, but does not hold (1 3)
        tables = [parse_cycles(c, 4).table
                  for c in ("()", "(1 2 3 4)", "(1 3)", "(1 4)(2 3)")]
        with pytest.raises(ValueError, match="not form a group"):
            group_from_elements(tables, 4)


class TestRandomElement:
    def test_members_and_determinism(self):
        g = PermGroup.from_cycles(5, "(1 2)", "(1 2 3 4 5)")
        a = [g.random_element(Random(7)) for _ in range(5)]
        b = [g.random_element(Random(7)) for _ in range(5)]
        assert a == b
        assert all(x in g for x in a)
