"""Refute's per-sample analysis and its group cache.

The positive control: on witness groups, where counterexamples to the pq
statement exist, the analysis must find them.  The cache: a group drawn
more than once, from any generating set, is analysed once."""

import pytest

import permwit.refute as refute_module
from permwit import kernels
from permwit.group import ENUMERATION_BUDGET, PermGroup
from permwit.perm import Permutation, parse_cycles
from permwit.refute import _analyze_sample
from permwit.witness import construct_witness, verify_candidate
from permwit.wreath import WreathElement


@pytest.mark.parametrize("n, p", [(6, 2), (9, 3), (21, 3)])
def test_analysis_reports_witness_counterexamples(n, p):
    w = construct_witness(n, p)
    assert w.G.is_transitive() and not w.G.order_exceeds(ENUMERATION_BUDGET)
    outcome = _analyze_sample(w.G)
    assert outcome.pairs >= 1
    assert outcome.counterexamples
    for found in outcome.counterexamples:
        g_group, n1, n2 = (PermGroup.from_cycles(n, *found[key])
                           for key in ("G", "N1", "N2"))
        assert verify_candidate(g_group, n1, n2).passed


def count_sample_lattices(monkeypatch):
    """Record every sample refute draws, and count the lattices computed
    for sample groups.  Returns (samples, orders of the lattices' groups)."""
    draw = refute_module._draw_generators
    samples, computed = [], []

    def recording_draw(p, q, rng):
        gens = draw(p, q, rng)
        samples.append(gens)
        return gens

    lattice = PermGroup.all_normal_subgroups

    def counting_lattice(group):
        if group._normals is None and list(group.generators) in samples:
            computed.append(group.order())
        return lattice(group)

    monkeypatch.setattr(refute_module, "_draw_generators", recording_draw)
    monkeypatch.setattr(PermGroup, "all_normal_subgroups", counting_lattice)
    return samples, computed


def test_one_group_drawn_twice_is_analysed_once(monkeypatch):
    ident, r, s = (parse_cycles(c, 5) for c in ("()", "(1 2 3 4 5)", "(2 5)(3 4)"))
    top, one = parse_cycles("(1 2 3)", 3), Permutation.identity(3)
    # two generating sets of D5 wr C3
    first = [WreathElement(top=top, base=(ident, ident, ident)).as_permutation(),
             WreathElement(top=one, base=(r, ident, ident)).as_permutation(),
             WreathElement(top=one, base=(s, ident, ident)).as_permutation()]
    second = [WreathElement(top=top ** 2, base=(s, ident, r)).as_permutation(),
              WreathElement(top=one, base=(r * s, r, ident)).as_permutation()]
    groups = [PermGroup(gens, degree=15) for gens in (first, second)]
    assert [g.order() for g in groups] == [3000, 3000]
    assert all(g in groups[0] for g in second)

    draws = iter([first, second])
    monkeypatch.setattr(refute_module, "_draw_generators", lambda p, q, rng: next(draws))
    samples, computed = count_sample_lattices(monkeypatch)
    report = refute_module.refute(3, 5, 2, 1)
    assert samples == [first, second]
    assert report.small_groups_tested == 2
    assert computed == [3000]


def test_one_lattice_per_distinct_small_group(monkeypatch):
    samples, computed = count_sample_lattices(monkeypatch)
    report = refute_module.refute(3, 5, 2000, 1)
    assert len(samples) == 2000
    # oracle: transitivity by orbit, elements by closure; only the budget
    # test reads a stabilizer chain
    element_sets = set()
    small = 0
    for gens in samples:
        tables = [g.table for g in gens]
        if len(kernels.orbit(0, tables)) < 15:
            continue
        if PermGroup(gens, degree=15).order_exceeds(ENUMERATION_BUDGET):
            continue
        small += 1
        element_sets.add(frozenset(kernels.close_elements(15, tables, ENUMERATION_BUDGET)))
    assert report.small_groups_tested == small
    assert small > len(element_sets) > 1
    assert len(computed) == len(element_sets)
