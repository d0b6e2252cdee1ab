import math
import os
import types

import pytest

from permwit import census as census_module
from permwit import kernels
from permwit import workers as workers_module
from permwit.errors import BudgetExceeded, HypothesisError, PermwitError
from permwit.group import PermGroup, StabilizerChain, group_from_elements
from permwit.census import (
    _agl_conjugates,
    _conjugate_set,
    _cycle_group,
    _double_coset,
    _enumerate_all_overgroups,
    _enumerate_class_reps,
    _extensions,
    _normalizer_tables,
    _partition_into_classes,
    _symmetric_elements,
    affine_group,
    applicable_primes,
    census,
    census_report,
    verify_burnside,
    verify_contain,
    verify_lemma_pq,
    verify_wielandt,
)
from permwit.witness import standard_cycle


@pytest.fixture(scope="module")
def census5():
    return census(5)


@pytest.fixture(scope="module")
def census7():
    return census(7)


def on_cpus(monkeypatch, count):
    """Make the worker map see `count` CPUs: with one the census routes run
    one after the other in this process, with two side by side at q = 7."""
    monkeypatch.setattr(workers_module, "_cpus", lambda: list(range(count)))


class TestAffineGroup:
    def test_orders(self):
        assert affine_group(2).order() == 2
        assert affine_group(3).order() == 6
        assert affine_group(5).order() == 20
        assert affine_group(7).order() == 42

    def test_transitive_and_2transitive(self):
        g = affine_group(7)
        assert g.is_transitive()
        assert g.is_2_transitive()

    def test_composite_rejected(self):
        with pytest.raises(HypothesisError):
            affine_group(6)


class TestCensusCounts:
    def test_degree_two(self):
        assert [e.order for e in census(2)] == [2]

    def test_degree_three(self):
        assert [e.order for e in census(3)] == [3, 6]

    def test_degree_five(self, census5):
        assert [e.order for e in census5] == [5, 10, 20, 60, 120]

    def test_degree_seven(self, census7):
        assert [e.order for e in census7] == [7, 14, 21, 42, 168, 2520, 5040]

    def test_every_entry_contains_standard_cycle(self, census5, census7):
        for entries in (census5, census7):
            for e in entries:
                assert e.group.contains(standard_cycle(e.q))
                assert e.group.is_transitive()
                assert e.order % e.q == 0

    def test_dichotomy_flags(self, census7):
        for e in census7:
            assert e.in_affine or e.is_2transitive
        by_order = {e.order: e for e in census7}
        assert by_order[42].in_affine and by_order[42].is_2transitive
        assert by_order[168].is_2transitive and not by_order[168].in_affine
        assert not by_order[7].is_2transitive

    def test_simplicity_flags(self, census5, census7):
        simple5 = {e.order for e in census5 if e.is_simple}
        simple7 = {e.order for e in census7 if e.is_simple}
        assert simple5 == {5, 60}
        assert simple7 == {7, 168, 2520}

    def test_normal_subgroups_transitive_or_trivial(self, census5, census7):
        # the premise of the no-witness claim at prime degree: every normal
        # subgroup of a transitive group of prime degree is transitive or trivial
        for entries in (census(2), census(3), census5, census7):
            for e in entries:
                orders = [sub.order for sub in e.normal_subgroups]
                assert orders[0] == 1 and orders[-1] == e.order
                for sub in e.normal_subgroups[1:]:
                    assert sub.group.is_transitive(), (e.q, e.order, sub.order)

    def test_out_of_budget(self):
        with pytest.raises(BudgetExceeded, match="q <= 7"):
            census(11)
        with pytest.raises(HypothesisError):
            census(9)


class TestWielandt:
    def test_c5(self, census5):
        r = verify_wielandt(census5[0])
        assert r.applicable and r.normalizer_order == 20 and r.normalizer_index == 4
        assert r.index_divides_q_minus_1 and r.quotient_cyclic and r.passed

    def test_a5(self, census5):
        r = verify_wielandt(next(e for e in census5 if e.order == 60))
        assert r.normalizer_order == 120 and r.normalizer_index == 2 and r.passed

    def test_psl32(self, census7):
        r = verify_wielandt(next(e for e in census7 if e.order == 168))
        assert r.applicable and r.normalizer_index in (1, 2)
        assert (7 - 1) % r.normalizer_index == 0 and r.passed

    def test_not_applicable_for_nonsimple(self, census5):
        r = verify_wielandt(next(e for e in census5 if e.order == 20))
        assert not r.applicable and r.passed

    def test_all_entries_pass(self, census5, census7):
        for entries in (census5, census7):
            assert all(verify_wielandt(e).passed for e in entries)


class TestBurnside:
    def test_affine_branch(self, census5):
        r = verify_burnside(census5[0])
        assert r.in_affine and r.passed

    def test_doubly_transitive_branch(self, census5):
        s5 = next(e for e in census5 if e.order == 120)
        r = verify_burnside(s5)
        assert not r.in_affine
        assert r.doubly_transitive and r.simple_normal_order == 60

    def test_order42_affine(self, census7):
        r = verify_burnside(next(e for e in census7 if e.order == 42))
        assert r.in_affine and r.passed

    def test_all_entries_pass(self, census5, census7):
        for entries in (census5, census7):
            assert all(verify_burnside(e).passed for e in entries)


class TestLemmaSweep:
    def test_q5_p3(self, census5):
        r = verify_lemma_pq(5, 3, census5)
        assert r.passed and r.pairs_checked == 14
        assert not r.violations and not r.strong_violations

    def test_q7_p5(self, census7):
        r = verify_lemma_pq(7, 5, census7)
        assert r.passed and not r.violations

    def test_only_trivial_b_hits_p(self, census5):
        # at q=5, p=3: whenever 3 divides [A:B], B must be trivial
        for entry in census5:
            for sub in entry.normal_subgroups:
                if sub.index % 3 == 0:
                    assert sub.order == 1

    def test_hypothesis_error_when_p_divides(self, census5):
        with pytest.raises(HypothesisError, match="divides"):
            verify_lemma_pq(5, 2, census5)

    def test_applicable_primes(self):
        assert applicable_primes(5) == [3]
        assert applicable_primes(7) == [5]
        assert applicable_primes(13) == [5, 7, 11]


class TestContainment:
    def test_q5(self, census5):
        r = verify_contain(5, census5)
        assert r.passed
        assert r.centralizer_of_cycle_order == 5
        assert r.groups_with_simple_transitive_normal == 5

    def test_q7(self, census7):
        r = verify_contain(7, census7)
        assert r.passed and r.centralizer_of_cycle_order == 7

    def test_mask_inclusion_is_containment(self, census5, census7):
        # a mask holds the classes of the entry's conjugacy_classes() whose
        # representative lies in the subgroup, so inclusion of masks is
        # inclusion of subgroups
        for entry in census5 + census7:
            reps = [rep.table for rep, _ in entry.group.conjugacy_classes()]
            for sub in entry.normal_subgroups:
                members = set(sub.group.element_tables())
                assert sub.mask == sum(1 << i for i, rep in enumerate(reps)
                                       if rep in members)
            for h_sub in entry.normal_subgroups:
                for n_sub in entry.normal_subgroups:
                    assert (not h_sub.mask & ~n_sub.mask) == all(
                        n_sub.group.contains(g) for g in h_sub.group.generators)

    def test_s5_normals_contain_a5(self, census5):
        s5 = next(e for e in census5 if e.order == 120)
        a5 = next(s for s in s5.normal_subgroups if s.order == 60)
        for sub in s5.normal_subgroups:
            if sub.order > 1:
                assert all(sub.group.contains(g) for g in a5.group.generators)


class TestReports:
    def test_report_does_not_depend_on_the_worker_count(self, monkeypatch):
        for q in (5, 7):
            reports = []
            for cpus in (1, 2):
                on_cpus(monkeypatch, cpus)
                reports.append(census_report(q))
            assert reports[0] == reports[1]

    def test_small_census_starts_no_process(self, monkeypatch):
        # at q = 5 a route takes about as long as a fork round trip
        on_cpus(monkeypatch, 2)

        def no_fork():
            raise AssertionError("a process was started")

        monkeypatch.setattr(os, "fork", no_fork)
        assert [e.order for e in census(5)] == [5, 10, 20, 60, 120]

    def test_census_report_shape(self, census5):
        r = census_report(5)
        assert r["passed"] and r["complete"]
        assert r["orders"] == [5, 10, 20, 60, 120]
        assert set(r["index_divisibility"]) == {"3"}
        assert all(w["passed"] for w in r["wielandt"])

    def test_each_census_fact_is_computed_once(self, monkeypatch):
        # on one CPU, so that the records see both routes' work
        on_cpus(monkeypatch, 1)
        calls = {"normalizer": 0}
        normalizer_tables = census_module._normalizer_tables

        def counting_normalizer(*args):
            calls["normalizer"] += 1
            return normalizer_tables(*args)

        # each lattice computation builds a new tuple, so every call on one
        # group must return the same tuple; holding the groups keeps their
        # ids unique
        lattices = []
        all_normal_subgroups = PermGroup.all_normal_subgroups

        def recording_lattice(group, *args, **kwargs):
            result = all_normal_subgroups(group, *args, **kwargs)
            lattices.append((group, result))
            return result

        entries = []
        run_census = census_module.census

        def recording_census(q):
            entries.extend(run_census(q))
            return entries

        monkeypatch.setattr(census_module, "_normalizer_tables", counting_normalizer)
        census_module._symmetric_elements.cache_clear()
        monkeypatch.setattr(census_module, "census", recording_census)
        monkeypatch.setattr(PermGroup, "all_normal_subgroups", recording_lattice)
        report = census_report(7)
        assert report["passed"]
        assert calls["normalizer"] == 3  # one per simple entry
        assert census_module._symmetric_elements.cache_info().misses == 1  # one S_q
        first = {}
        assert lattices
        for group, lattice in lattices:
            assert first.setdefault(id(group), lattice) is lattice
        # a normal subgroup that is an entry takes its simplicity from that
        # entry.  At q = 7 every transitive proper normal subgroup is one:
        # C_7, C_7:C_2 and C_7:C_3 in the affine entries and A_7 in S_7, so
        # only the 7 entries have their lattices computed
        assert len(entries) == 7
        assert set(first) == {id(e.group) for e in entries}
        proper = [sub for e in entries for sub in e.normal_subgroups
                  if 1 < sub.order < e.order and sub.group.is_transitive()]
        assert sorted(sub.order for sub in proper) == [7, 7, 7, 14, 21, 2520]

    def test_power_rule_bounds_chain_builds(self, monkeypatch):
        # handling g covers the double cosets of its generating powers, so
        # no chain is built for a closure already known to be <A, g>; on one
        # CPU, so that the count covers both routes
        on_cpus(monkeypatch, 1)
        builds = []
        init = StabilizerChain.__init__

        def counting_init(chain, *args, **kwargs):
            builds.append(1)
            init(chain, *args, **kwargs)

        monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
        assert census_report(7)["passed"]
        assert len(builds) <= 250

    def test_simple_transitive_normals_match_every_lattice(self, census5, census7):
        for entry in census5 + census7:
            reference = [sub for sub in entry.normal_subgroups
                         if sub.order > 1 and sub.group.is_transitive()
                         and len(sub.group.all_normal_subgroups()) == 2]
            assert entry.simple_transitive_normals == tuple(reference)
            # with no entry to match, each one's lattice is computed
            assert all(census_module._is_simple(sub, []) for sub in reference)


def _agl_tables(q):
    return [p.table for p in affine_group(q).elements()]


def _exact(entry):
    return tuple(sorted(entry.group.element_tables()))


class TestCosetOracles:
    """The coset-wise helpers against element-by-element brute force."""

    def test_double_coset(self, census5):
        sq = _symmetric_elements(5)
        for entry in census5[:3]:
            a = entry.group.element_tables()
            for g in sq[::7]:
                brute = {kernels.compose(kernels.compose(x, g), y)
                         for x in a for y in a}
                assert _double_coset(a, g) == brute

    @pytest.mark.parametrize("q", [5, 7])
    def test_agl_conjugates(self, q, census5, census7):
        agl = _agl_tables(q)
        for entry in {5: census5, 7: census7}[q]:
            exact = _exact(entry)
            brute = {_conjugate_set(exact, u) for u in agl}
            assert _agl_conjugates(exact, agl) == brute

    def test_symmetric_group_needs_no_conjugation(self, monkeypatch):
        calls = []

        def counting(tables, u):
            calls.append(u)
            return _conjugate_set(tables, u)

        monkeypatch.setattr(census_module, "_conjugate_set", counting)
        sq = tuple(_symmetric_elements(7))
        assert _agl_conjugates(sq, _agl_tables(7)) == {sq}
        assert calls == []

    @pytest.mark.parametrize("q", [5, 7])
    def test_normalizer_tables(self, q, census5, census7):
        sq = _symmetric_elements(q)
        for entry in {5: census5, 7: census7}[q]:
            members = set(entry.group.element_tables())
            gens = [g.table for g in entry.group.generators]
            brute = [x for x in sq
                     if all(kernels.compose(x, kernels.compose(t, kernels.inverse(x)))
                            in members for t in gens)]
            assert _normalizer_tables(entry.group, sq) == brute

    @pytest.mark.parametrize("q, orders", [(5, [5, 10, 20]), (7, [7, 14, 21, 42])])
    def test_route_b_inside_affine_ambient(self, q, orders):
        # the overgroups of C_q in AGL(1,q) are C_q : H for the subgroups H
        # of the cyclic multiplier group, one per divisor of q-1
        ambient = sorted(_agl_tables(q))
        found = _enumerate_all_overgroups(q, ambient)
        assert sorted(len(exact) for exact in found) == orders
        cycle = standard_cycle(q).table
        for exact in found:
            members = set(exact)
            assert members <= set(ambient) and cycle in members
            assert all(kernels.compose(a, b) in members for a in exact for b in exact)

    def test_partition_detects_a_missing_conjugate(self):
        agl = _agl_tables(7)
        overgroups = _enumerate_all_overgroups(7, _symmetric_elements(7))
        assert len(_partition_into_classes(overgroups, agl)) == 7
        orbit = max((_agl_conjugates(f, agl) for f in overgroups), key=len)
        assert len(orbit) > 1
        with pytest.raises(PermwitError, match="cross-check"):
            _partition_into_classes(overgroups - {max(orbit)}, agl)


def _in_affine_by_conjugation(group, agl):
    """Reference: some AGL(1,q)-conjugate of the group lies in AGL(1,q),
    found by trying every conjugator."""
    if agl.order() % group.order() != 0:
        return False
    gen_tables = [g.table for g in group.generators]
    for u in agl.element_tables():
        uinv = kernels.inverse(u)
        if all(agl.chain.contains(kernels.compose(u, kernels.compose(t, uinv)))
               for t in gen_tables):
            return True
    return False


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_in_affine_matches_conjugator_search(q, census5, census7):
    entries = {5: census5, 7: census7}.get(q) or census(q)
    agl = affine_group(q)
    flags = [e.in_affine for e in entries]
    assert flags == [_in_affine_by_conjugation(e.group, agl) for e in entries]
    # the affine entries are exactly the overgroups of C_q in AGL(1,q)
    assert sum(flags) == sum(1 for d in range(1, q) if (q - 1) % d == 0)


def _same_cyclic_group(g):
    """The powers g^k, k prime to the order m of g, by repeated products."""
    powers = [g]
    while powers[-1] != bytes(range(len(g))):
        powers.append(kernels.compose(g, powers[-1]))
    m = len(powers)
    return [powers[k - 1] for k in range(1, m) if math.gcd(k, m) == 1]


def _dimino_to_half(start, ambient, powers=True):
    """Reference for `_extensions`: close every <A, g> by Dimino's method,
    and take a closure that passes half the ambient order to be the
    ambient group, by Lagrange.  Once g is handled, A g A is covered, and
    with `powers` so is A g^k A for every power g^k with <g^k> = <g>."""
    gens = [p.table for p in group_from_elements(start, len(start[0])).generators]
    covered = set(start)
    half = len(ambient) // 2
    for g in ambient:
        if g in covered:
            continue
        closure = kernels.extend_elements(start, gens + [g], half)
        yield tuple(ambient) if closure is None else tuple(sorted(closure))
        for h in _same_cyclic_group(g) if powers else [g]:
            covered |= _double_coset(start, h)


def _census_kernels(extend_elements):
    """`kernels` as `census` sees it, with `extend_elements` replaced."""
    return types.SimpleNamespace(**{**vars(kernels), "extend_elements": extend_elements})


class TestExtensions:
    def test_matches_dimino_to_half(self, census5, census7):
        s5 = _symmetric_elements(5)
        s7 = _symmetric_elements(7)
        cases = [
            (s5, [(bytes(range(5)),), _cycle_group(5)] + [_exact(e) for e in census5]),
            (s7, [_cycle_group(7), _exact(next(e for e in census7 if e.order == 14))]),
            (sorted(_agl_tables(7)), [_cycle_group(7)]),
        ]
        for ambient, starts in cases:
            # one record per ambient, as in one `_overgroups` call
            listed = {}
            for start in starts:
                expected = list(_dimino_to_half(start, ambient))
                assert list(_extensions(start, ambient, listed)) == expected
                # covering the powers' double cosets loses no closure
                assert set(expected) == set(_dimino_to_half(start, ambient, powers=False))

    def test_each_route_lists_each_closure_once(self, monkeypatch):
        listed = []

        def recording(subgroup, gens, limit):
            result = kernels.extend_elements(subgroup, gens, limit)
            listed.append(tuple(sorted(result)))
            return result

        monkeypatch.setattr(census_module, "kernels", _census_kernels(recording))
        sq = _symmetric_elements(7)
        agl = _agl_tables(7)
        for route in (lambda: _enumerate_class_reps(7, sq, agl),
                      lambda: _enumerate_all_overgroups(7, sq)):
            listed.clear()
            route()
            # the proper closures of order 14, 21, 42 and 2520, and the two
            # groups of order 168 that C_7 lies in; S_7 is never listed
            assert len(listed) == len(set(listed)) == 6
            assert all(len(exact) < len(sq) for exact in listed)

    def test_a_dropped_coset_is_caught(self, monkeypatch):
        def dropping(subgroup, gens, limit):
            result = kernels.extend_elements(subgroup, gens, limit)
            return result[:-len(subgroup)]

        monkeypatch.setattr(census_module, "kernels", _census_kernels(dropping))
        for cpus in (1, 2):  # with two, one route runs in a forked child
            on_cpus(monkeypatch, cpus)
            with pytest.raises(PermwitError, match="stabilizer chain"):
                census(7)
