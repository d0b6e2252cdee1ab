"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings as they happen.  Everything is exact or seeded; there are no
tolerances to tune.
"""

import time
from random import Random

import pytest

from permwit import kernels
from permwit.census import (
    census,
    verify_burnside,
    verify_contain,
    verify_lemma_pq,
    verify_wielandt,
)
from permwit.errors import HypothesisError
from permwit.group import PermGroup
from permwit.refute import refute
from permwit.witness import construct_witness, valid_primes, verify_witness
from permwit.wreath import embed

from samplers import random_group_with_normal, random_permutation


def report(number, description, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {description} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def census5():
    return census(5)


@pytest.fixture(scope="module")
def census7():
    return census(7)


def test_criterion_1_witnesses_for_every_valid_degree_and_prime():
    start = time.monotonic()
    pairs = [(n, p) for n in range(2, 101) for p in valid_primes(n)]
    expected_degrees = {4, 6, 8, 9, 10, 12, 14, 16, 18, 20, 21, 22, 25, 26, 27}
    assert expected_degrees <= {n for n, _ in pairs}
    failures = []
    for n, p in pairs:
        w = construct_witness(n, p)
        rep = verify_witness(w)
        if not (rep.passed
                and w.G.order() == n * p
                and w.N1.order() == n
                and w.N2.order() == n):
            failures.append((n, p))
    ok = not failures and len(pairs) == 74
    report(1, f"witness construction and verification for all "
              f"{len(pairs)} valid (n, p) pairs with n <= 100", ok,
           time.monotonic() - start)


def test_criterion_2_census_exactness(census5, census7):
    start = time.monotonic()
    ok = True
    ok &= [e.order for e in census(3)] == [3, 6]
    ok &= [e.order for e in census5] == [5, 10, 20, 60, 120]
    ok &= [e.order for e in census7] == [7, 14, 21, 42, 168, 2520, 5040]
    # census() itself raises if the AGL-dedupe route and the
    # element-fingerprint route disagree; re-run the routes here so the
    # agreement is checked visibly
    from permwit.census import (
        _enumerate_all_overgroups,
        _enumerate_class_reps,
        _partition_into_classes,
        _symmetric_elements,
        affine_group,
    )
    for q, expected in ((3, 2), (5, 5), (7, 7)):
        sq = _symmetric_elements(q)
        agl = affine_group(q).element_tables()
        route_a = sorted(_enumerate_class_reps(q, sq, agl))
        route_b = _partition_into_classes(_enumerate_all_overgroups(q, sq), agl)
        ok &= route_a == route_b and len(route_a) == expected
    report(2, "census counts 2/5/7 with the expected order multisets and "
              "agreeing dedupe routes", bool(ok), time.monotonic() - start)


def test_criterion_3_lemma_chain_zero_violations(census5, census7):
    start = time.monotonic()
    ok = True
    for q, entries in ((5, census5), (7, census7)):
        ok &= all(verify_wielandt(e).passed for e in entries)
        ok &= all(verify_burnside(e).passed for e in entries)
        contain = verify_contain(q, entries)
        ok &= contain.passed and contain.centralizer_of_cycle_order == q
    sweep53 = verify_lemma_pq(5, 3, census5)
    sweep75 = verify_lemma_pq(7, 5, census7)
    ok &= sweep53.passed and not sweep53.violations
    ok &= sweep75.passed and not sweep75.violations
    report(3, "normalizer, dichotomy, containment and divisibility sweeps "
              "pass with zero violations at q in {5, 7}", bool(ok),
           time.monotonic() - start)


def test_criterion_4_refutation_evidence():
    start = time.monotonic()
    r35 = refute(3, 5, samples=10000, seed=1)
    r57 = refute(5, 7, samples=1000, seed=1)
    elapsed = time.monotonic() - start
    ok = (r35.passed and r35.counterexamples_found == 0
          and r57.passed and r57.counterexamples_found == 0
          and elapsed < 1200)
    report(4, f"refutation runs (3,5)x10^4 and (5,7)x10^3: "
              f"{r35.samples_tested + r57.samples_tested} samples, "
              f"0 counterexamples", ok, elapsed)


def test_criterion_5_property_suites():
    start = time.monotonic()
    ok = True

    # equal orbit lengths of normal subgroups: 500 seeded pairs, n <= 12
    seed = 977
    rng = Random(seed)
    for _ in range(500):
        group, normal = random_group_with_normal(rng, max_degree=12)
        sizes = {len(o) for o in normal.orbits()}
        ok &= len(sizes) == 1 and group.degree % next(iter(sizes)) == 0

    # stabilizer-chain order equals plain closure enumeration (<= 5040)
    corpus = [
        PermGroup.from_cycles(5, "(1 2)", "(1 2 3 4 5)"),
        PermGroup.from_cycles(5, "(1 2 3)", "(3 4 5)"),
        PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)"),
        PermGroup.from_cycles(9, "(1 2 3 4 5 6 7 8 9)", "(2 5 8)(3 9 6)"),
    ]
    rng2 = Random(20260810)
    for _ in range(40):
        n = rng2.randint(2, 7)
        corpus.append(PermGroup(
            [random_permutation(n, rng2) for _ in range(2)], degree=n))
    for g in corpus:
        elems = kernels.close_elements(
            g.degree, [x.table for x in g.generators], 6000)
        ok &= elems is not None and len(elems) == g.order()

    # wreath embedding: homomorphism + injectivity at degrees 6 and 21,
    # hypothesis rejections at degree 35
    rng3 = Random(11)
    for n, p in ((6, 2), (21, 3)):
        w = construct_witness(n, p)
        emb = embed(w.G, w.N1, w.N2)
        ok &= emb.conditions.all_hold
        for _ in range(200):
            g = w.G.random_element(rng3)
            h = w.G.random_element(rng3)
            ok &= (emb.apply(g * h).as_permutation()
                   == emb.apply(g).as_permutation() * emb.apply(h).as_permutation())
        image = PermGroup([img.as_permutation() for _, img in emb.image_map],
                          degree=n)
        ok &= image.order() == w.G.order()
    for p in (5, 7):
        try:
            construct_witness(35, p)
            ok = False
        except HypothesisError:
            pass

    report(5, "property suites: equal orbit lengths (500 pairs), chain-vs-"
              "enumeration orders, wreath embedding checks", bool(ok),
           time.monotonic() - start)


def test_criterion_6_sharpness_at_degree_21():
    start = time.monotonic()
    w = construct_witness(21, 3)
    rep = verify_witness(w)
    emb = embed(w.G, w.N1, w.N2)
    ok = (rep.passed
          and (emb.p, emb.q) == (3, 7)
          and emb.conditions.n1_transitive_on_pairs
          and emb.conditions.n2_in_top_kernel
          and all(emb.conditions.n2_projections_transitive))
    report(6, "degree 21 = 3*7 with 3 | 7-1: witness passes and embeds with "
              "all three conditions (nonexistence hypothesis is sharp)", ok,
           time.monotonic() - start)
