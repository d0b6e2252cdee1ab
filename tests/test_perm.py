from random import Random

import pytest
from hypothesis import given, strategies as st

from permwit.errors import CycleParseError, DegreeMismatch
from permwit.group import PermGroup
from permwit.perm import Permutation, parse_cycles

from samplers import random_permutation


def perm(text, degree):
    return parse_cycles(text, degree)


class TestConstruction:
    def test_one_based_images(self):
        assert Permutation([2, 3, 1]) == perm("(1 2 3)", 3)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation([1, 1, 3])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Permutation([0, 2, 3])

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError, match="degree"):
            Permutation([])
        with pytest.raises(ValueError, match="degree"):
            Permutation.identity(257)

    def test_identity(self):
        e = Permutation.identity(4)
        assert e.is_identity() and e.degree == 4


class TestCompose:
    def test_involution_squared(self):
        t = perm("(1 2)", 2)
        assert (t * t).is_identity()

    def test_identity_law(self):
        g = perm("(1 4 2)", 5)
        assert Permutation.identity(5) * g == g
        assert g * Permutation.identity(5) == g

    def test_three_cycle_times_transposition(self):
        # left action: (a*b)(x) = a(b(x))
        a = perm("(1 2 3)", 3)
        b = perm("(1 2)", 3)
        c = a * b
        assert c == perm("(1 3)", 3)
        for x in range(1, 4):
            assert c(x) == a(b(x))

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            perm("(1 2)", 2) * perm("(1 2)", 3)

    def test_inverse_law(self):
        rng = Random(3)
        for _ in range(50):
            g = random_permutation(rng.randint(1, 30), rng)
            assert (g * g.inverse()).is_identity()
            assert (g.inverse() * g).is_identity()


class TestConjugate:
    def test_by_identity(self):
        g = perm("(1 2 3)", 5)
        assert g.conjugate(Permutation.identity(5)) == g

    def test_nine_cycle_to_fourth_power(self):
        # sigma: point k -> 4(k-1) mod 9 + 1 conjugates the 9-cycle to its 4th power
        tau = perm("(1 2 3 4 5 6 7 8 9)", 9)
        sigma = Permutation([(4 * (k - 1)) % 9 + 1 for k in range(1, 10)])
        got = tau.conjugate(sigma)
        want = tau ** 4
        assert got == want
        for x in range(1, 10):
            assert got(x) == sigma(tau(sigma.inverse()(x)))

    def test_preserves_cycle_type(self):
        rng = Random(11)
        for _ in range(100):
            n = rng.randint(2, 20)
            g = random_permutation(n, rng)
            h = random_permutation(n, rng)
            lengths = sorted(len(c) for c in g.cycles())
            assert sorted(len(c) for c in g.conjugate(h).cycles()) == lengths

    def test_commutes_with_power(self):
        rng = Random(12)
        for _ in range(50):
            n = rng.randint(2, 15)
            g = random_permutation(n, rng)
            h = random_permutation(n, rng)
            k = rng.randint(-6, 6)
            assert (g ** k).conjugate(h) == g.conjugate(h) ** k


class TestPower:
    def test_nine_cycle_power_coprime_is_nine_cycle(self):
        tau = perm("(1 2 3 4 5 6 7 8 9)", 9)
        assert [len(c) for c in (tau ** 4).cycles()] == [9]

    def test_zeroth_power(self):
        assert (perm("(1 5)(2 3)", 5) ** 0).is_identity()

    def test_six_cycle_squared(self):
        assert perm("(1 2 3 4 5 6)", 6) ** 2 == perm("(1 3 5)(2 4 6)", 6)

    def test_negative_power_is_inverse_power(self):
        g = perm("(1 2 3 4 5)", 5)
        assert g ** -2 == g.inverse() ** 2

    def test_order(self):
        assert perm("(1 2 3)(4 5)", 5).order() == 6
        assert Permutation.identity(3).order() == 1


class TestParsePrint:
    def test_identity_text(self):
        assert parse_cycles("()", 5).is_identity()
        assert Permutation.identity(5).cycle_string() == "()"

    def test_six_cycle(self):
        g = parse_cycles("(1 2 3 4 5 6)", 6)
        assert [g(k) for k in range(1, 7)] == [2, 3, 4, 5, 6, 1]

    def test_round_trip_example(self):
        assert parse_cycles("(2 6)(3 5)", 6).cycle_string() == "(2 6)(3 5)"

    def test_whitespace_insensitive(self):
        assert parse_cycles(" ( 1   2 3)  (4  5) ", 5) == parse_cycles("(1 2 3)(4 5)", 5)

    def test_fixed_points_omitted(self):
        assert parse_cycles("(2 3)", 9).cycle_string() == "(2 3)"

    def test_singleton_cycle_is_fixed_point(self):
        assert parse_cycles("(3)(1 2)", 3) == parse_cycles("(1 2)", 3)

    def test_repeated_point_error(self):
        with pytest.raises(CycleParseError, match="repeated point 2"):
            parse_cycles("(1 2)(2 3)", 4)

    def test_out_of_range_error(self):
        with pytest.raises(CycleParseError, match="out of range"):
            parse_cycles("(1 7)", 6)

    def test_malformed_parens(self):
        with pytest.raises(CycleParseError, match="unclosed"):
            parse_cycles("(1 2", 3)
        with pytest.raises(CycleParseError, match="expected"):
            parse_cycles("1 2)", 3)
        with pytest.raises(CycleParseError, match="expected"):
            parse_cycles("(1 2)x", 3)

    def test_error_position(self):
        with pytest.raises(CycleParseError) as exc:
            parse_cycles("(1 2)(3 9)", 6)
        assert exc.value.position == 8

    def test_empty_input_error(self):
        with pytest.raises(CycleParseError):
            parse_cycles("   ", 3)

    def test_round_trip_1000_random(self):
        rng = Random(20260810)
        for _ in range(1000):
            n = rng.randint(1, 20)
            g = random_permutation(n, rng)
            assert parse_cycles(g.cycle_string(), n) == g

    @pytest.mark.parametrize("degree", [1, 2, 7, 100, 256])
    def test_round_trip_up_to_max_degree(self, degree):
        # against a render of cycles(); three-digit labels from degree 100
        rng = Random(degree)
        for _ in range(20):
            g = random_permutation(degree, rng)
            text = g.cycle_string()
            expected = "".join("(" + " ".join(map(str, c)) + ")" for c in g.cycles())
            assert text == (expected or "()")
            assert parse_cycles(text, degree) == g

    def test_cycle_string_is_rendered_once(self):
        e = Permutation.identity(256)
        assert e.cycle_string() == "()"
        assert e.cycle_string() is e.cycle_string()
        g = random_permutation(256, Random(5))
        assert g.cycle_string() is g.cycle_string() is str(g)

    @given(st.integers(1, 40), st.randoms(use_true_random=False))
    def test_round_trip_hypothesis(self, n, rnd):
        g = random_permutation(n, rnd)
        assert parse_cycles(g.cycle_string(), n) == g


class TestOrbit:
    def test_no_generators(self):
        assert PermGroup.trivial(1).orbit_of(1) == {1}

    def test_full_cycle_is_transitive(self):
        for n in (1, 2, 6, 13):
            gens = [parse_cycles(f"({' '.join(map(str, range(1, n + 1)))})", n)
                    if n > 1 else Permutation.identity(1)]
            assert PermGroup(gens).orbit_of(1) == set(range(1, n + 1))

    def test_degree_six_pair(self):
        group = PermGroup([perm("(1 3 5)(2 4 6)", 6), perm("(2 6)(3 5)", 6)])
        assert group.orbit_of(1) == {1, 3, 5}
        assert group.orbit_of(2) == {2, 4, 6}

    def test_orbits_partition_points(self):
        rng = Random(5)
        for _ in range(30):
            n = rng.randint(1, 15)
            group = PermGroup([random_permutation(n, rng) for _ in range(2)])
            seen = set()
            for point in range(1, n + 1):
                orb = group.orbit_of(point)
                assert point in orb
                if point in seen:
                    assert orb <= seen
                else:
                    assert not (orb & seen)
                    seen |= orb
            assert seen == set(range(1, n + 1))

    def test_mismatched_generators(self):
        with pytest.raises(DegreeMismatch):
            PermGroup([perm("(1 2)", 2), perm("(1 2)", 3)]).orbit_of(1)


class TestMisc:
    def test_call_out_of_range(self):
        with pytest.raises(ValueError):
            perm("(1 2)", 2)(3)

    def test_hash_and_sort(self):
        a = perm("(1 2)", 3)
        b = parse_cycles("(1 2)", 3)
        assert hash(a) == hash(b) and a == b
        assert sorted([a, Permutation.identity(3)])[0].is_identity()

    def test_repr_round_trips(self):
        g = perm("(1 4)(2 3)", 5)
        assert eval(repr(g)) == g
