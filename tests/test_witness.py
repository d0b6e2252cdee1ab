import pytest

from permwit import group as group_module
from permwit import quotient as quotient_module
from permwit import witness as witness_module
from permwit.errors import DegreeMismatch, HypothesisError
from permwit.group import PermGroup, StabilizerChain
from permwit.numthy import euler_phi, is_prime
from permwit.perm import Permutation, parse_cycles
from permwit.quotient import QUOTIENT_BUDGET
from permwit.witness import (
    Clause,
    Witness,
    build_sigma,
    construct_witness,
    standard_cycle,
    valid_primes,
    verify_candidate,
    verify_witness,
)


class TestBuildSigma:
    def test_degree_six_unit_five(self):
        assert build_sigma(6, 5) == parse_cycles("(2 6)(3 5)", 6)

    def test_unit_one_gives_identity(self):
        for n in (2, 5, 12):
            assert build_sigma(n, 1).is_identity()

    def test_degree_nine_unit_four(self):
        assert build_sigma(9, 4) == parse_cycles("(2 5 8)(3 9 6)", 9)

    def test_fixes_point_one_and_conjugates_cycle(self):
        import math
        for n in range(2, 40):
            for i in range(1, n):
                if math.gcd(i, n) != 1:
                    continue
                sigma = build_sigma(n, i)
                assert sigma(1) == 1
                assert standard_cycle(n).conjugate(sigma) == standard_cycle(n) ** i

    def test_non_unit_rejected(self):
        with pytest.raises(HypothesisError):
            build_sigma(6, 3)


class TestConstructWitness:
    def test_degree_six(self):
        w = construct_witness(6, 2)
        assert (w.G.order(), w.N1.order(), w.N2.order()) == (12, 6, 6)
        assert w.N2.orbits() == [(1, 3, 5), (2, 4, 6)]
        assert verify_witness(w).passed

    def test_degree_nine(self):
        w = construct_witness(9, 3)
        assert w.G.order() == 27
        assert w.N1.order() == w.N2.order() == 9
        assert w.N2.orbits() == [(1, 4, 7), (2, 5, 8), (3, 6, 9)]

    def test_degree_twentyone(self):
        w = construct_witness(21, 3)
        assert verify_witness(w).passed
        assert [len(o) for o in w.N2.orbits()] == [7, 7, 7]

    def test_degree_fifteen_rejected(self):
        with pytest.raises(HypothesisError, match=r"phi\(15\)"):
            construct_witness(15, 3)

    def test_error_names_failing_hypothesis(self):
        with pytest.raises(HypothesisError, match="does not divide n=10"):
            construct_witness(10, 3)
        with pytest.raises(HypothesisError, match="not prime"):
            construct_witness(12, 4)

    def test_degree_35_has_no_witness_for_either_prime(self):
        for p in (5, 7):
            with pytest.raises(HypothesisError):
                construct_witness(35, p)


class TestVerifyWitness:
    def test_all_clauses_pass_when_constructed(self):
        report = verify_witness(construct_witness(6, 2))
        assert report.passed
        assert set(report.clauses) == set("abcde")

    def test_replacing_n2_by_n1_fails_clause_c(self):
        w = construct_witness(6, 2)
        fake = Witness(n=w.n, p=w.p, i=w.i, tau=w.tau, sigma=w.sigma,
                       G=w.G, N1=w.N1, N2=w.N1)
        report = verify_witness(fake)
        assert not report.passed
        assert not report.clauses["c"].ok
        assert report.clauses["a"].ok and report.clauses["b"].ok

    def test_independent_nontransitivity_certificate(self):
        w = construct_witness(21, 3)
        report = verify_witness(w)
        assert report.clauses["e"].ok
        assert w.N2.order() == 21
        assert not w.sigma.is_identity()
        assert w.sigma.fixed_points()[0] == 1

    def test_normality_tested_once_per_subgroup(self, monkeypatch):
        w = construct_witness(21, 3)
        calls = []

        def counting_is_normal(n_group, g_group):
            calls.append(n_group)
            return group_module.is_normal(n_group, g_group)

        for module in (witness_module, quotient_module):
            monkeypatch.setattr(module, "is_normal", counting_is_normal)
        report = verify_witness(w)
        assert report.passed
        assert calls == [w.N1, w.N2]

    def test_inconsistent_degrees_error(self):
        w = construct_witness(6, 2)
        with pytest.raises(DegreeMismatch):
            verify_candidate(w.G, w.N1, PermGroup.trivial(5))


class TestVerifyCandidate:
    def test_arbitrary_triple_without_expected_index(self):
        w = construct_witness(10, 2)
        report = verify_candidate(w.G, w.N1, w.N2)
        assert report.passed

    def test_quotients_isomorphic_clause(self):
        w = construct_witness(8, 2)
        report = verify_candidate(w.G, w.N1, w.N2, expected_index=2)
        assert report.clauses["d"].ok


# the coset walks bound |G| by n * p, which G's chain reaches after its
# first breadth-first pass, so its Schreier check never starts
@pytest.mark.parametrize("n, p", [(253, 11), (210, 3), (128, 2)])
def test_g_chain_sifts_no_schreier_generator(n, p, monkeypatch):
    # a Schreier generator is sifted from level i + 1 >= 1; contains and
    # sift start at level 0
    starts = []
    original = StabilizerChain._sift_from

    def recording(chain, start, table):
        starts.append((chain, start))
        return original(chain, start, table)

    monkeypatch.setattr(StabilizerChain, "_sift_from", recording)
    w = construct_witness(n, p)
    assert verify_witness(w).passed
    g_chain = w.G.chain
    assert any(chain is g_chain for chain, _ in starts)
    assert [start for chain, start in starts if chain is g_chain and start > 0] == []


def s7_a7_trivial():
    return (PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)"),
            PermGroup.from_cycles(7, "(1 2 3)", "(3 4 5 6 7)"),
            PermGroup.trivial(7))


# triples with a trivial N, of index 5040, past QUOTIENT_BUDGET, so a walk
# of its cosets stops unfinished; the coset walks verify_candidate makes
# (the larger N first, the other only when that walk stops unfinished or
# clause (d) needs it) and the clauses it gives
PAST_BUDGET = {
    "S7_A7_1": (lambda: s7_a7_trivial(), 1, {
        "a": Clause(True, "G transitive on 7 points"),
        "b": Clause(False, "indices differ: [G:N1]=2, [G:N2]=5040"),
        "c": Clause(True, "N2 normal, not transitive, index 5040"),
        "d": Clause(False, "not evaluated: clause (b) or (c) failed"),
    }),
    "S7_1_1": (lambda: (s7_a7_trivial()[0], PermGroup.trivial(7), PermGroup.trivial(7)), 2, {
        "a": Clause(True, "G transitive on 7 points"),
        "b": Clause(False, "N1 is not transitive, expected the opposite"),
        "c": Clause(True, "N2 normal, not transitive, index 5040"),
        "d": Clause(False, "not evaluated: clause (b) or (c) failed"),
    }),
    "S7_1_A7": (lambda: (s7_a7_trivial()[0], PermGroup.trivial(7), s7_a7_trivial()[1]), 1, {
        "a": Clause(True, "G transitive on 7 points"),
        "b": Clause(False, "N1 is not transitive, expected the opposite"),
        "c": Clause(False, "N2 is transitive, expected the opposite"),
        "d": Clause(False, "not evaluated: clause (b) or (c) failed"),
    }),
}


@pytest.mark.parametrize("name", sorted(PAST_BUDGET))
def test_walks_past_the_budget_stop(name, monkeypatch):
    triple, walks, clauses = PAST_BUDGET[name]
    g_group, n1, n2 = triple()
    keys_per_walk = []
    coset_key = quotient_module._coset_key

    def counting_coset_key(chain):
        key = coset_key(chain)
        keys_per_walk.append(0)

        def counted(x):
            keys_per_walk[-1] += 1
            return key(x)
        return counted

    monkeypatch.setattr(quotient_module, "_coset_key", counting_coset_key)
    assert verify_candidate(g_group, n1, n2).clauses == clauses
    assert len(keys_per_walk) == walks
    assert max(keys_per_walk) <= (QUOTIENT_BUDGET + 1) * len(g_group.generators)


class TestHypothesisSweep:
    def test_every_valid_pair_up_to_forty(self):
        pairs = [(n, p) for n in range(2, 41) for p in valid_primes(n)]
        assert (6, 2) in pairs and (9, 3) in pairs and (21, 3) in pairs
        assert all(n % p == 0 and euler_phi(n) % p == 0 for n, p in pairs)
        for n, p in pairs:
            w = construct_witness(n, p)
            report = verify_witness(w)
            assert report.passed, (n, p, report.to_json_dict())
            # index and size invariants
            assert w.G.order() == n * p
            assert w.N1.order() == w.N2.order() == n
            assert not w.sigma.is_identity()
            sizes = {len(o) for o in w.N2.orbits()}
            assert len(sizes) == 1
            (size,) = sizes
            assert n % size == 0 and size < n

    def test_smallest_valid_prime(self):
        assert valid_primes(6)[0] == 2
        assert valid_primes(9)[0] == 3
        assert valid_primes(21)[0] == 3
        assert valid_primes(15) == []
        assert valid_primes(7) == []


class TestSerialization:
    def test_json_fields(self):
        w = construct_witness(9, 3)
        d = w.to_json_dict(verify_witness(w))
        assert d["n"] == 9 and d["p"] == 3 and d["i"] == 4
        assert d["tau"] == "(1 2 3 4 5 6 7 8 9)"
        assert d["sigma"] == "(2 5 8)(3 9 6)"
        assert d["N2"] == ["(2 5 8)(3 9 6)", "(1 4 7)(2 5 8)(3 6 9)"]
        assert d["report"]["passed"] is True
