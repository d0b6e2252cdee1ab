from random import Random

import pytest

from permwit.errors import BlockStructureError, HypothesisError
from permwit.group import PermGroup, is_normal
from permwit.perm import Permutation, parse_cycles
from permwit.witness import construct_witness
from permwit.wreath import (
    BlockSystem,
    Embedding,
    WreathElement,
    blocks_from_orbits,
    embed,
)

from samplers import random_permutation


def random_wreath(p, q, rng):
    return WreathElement(
        top=random_permutation(p, rng),
        base=tuple(random_permutation(q, rng) for _ in range(p)))


class TestWreathElement:
    def test_identity(self):
        w = WreathElement.identity(3, 5)
        assert w.as_permutation().is_identity()
        for _ in range(3):
            rng = Random(1)
            v = random_wreath(3, 5, rng)
            assert (w * v).as_permutation() == v.as_permutation()

    def test_action_is_bijective(self):
        rng = Random(2)
        for _ in range(100):
            p, q = rng.choice([(2, 3), (3, 5), (2, 7)])
            w = random_wreath(p, q, rng)
            images = {w.apply(i, j) for i in range(1, p + 1)
                      for j in range(1, q + 1)}
            assert len(images) == p * q

    def test_top_transposition_squared(self):
        w = WreathElement(top=parse_cycles("(1 2)", 2),
                          base=(Permutation.identity(4),) * 2)
        assert (w * w).as_permutation().is_identity()

    def test_shape_mismatch(self):
        rng = Random(3)
        with pytest.raises(BlockStructureError):
            random_wreath(2, 3, rng) * random_wreath(3, 2, rng)

    def test_base_length_must_match_top(self):
        with pytest.raises(BlockStructureError):
            WreathElement(top=Permutation.identity(3),
                          base=(Permutation.identity(2),) * 2)

    def test_round_trip_through_permutation(self):
        rng = Random(4)
        for _ in range(50):
            w = random_wreath(3, 5, rng)
            again = WreathElement.from_permutation(w.as_permutation(), 3, 5)
            assert again.top == w.top and again.base == w.base

    def test_from_permutation_rejects_block_crossers(self):
        with pytest.raises(BlockStructureError):
            WreathElement.from_permutation(parse_cycles("(1 4)", 6), 2, 3)
        with pytest.raises(BlockStructureError):
            WreathElement.from_permutation(parse_cycles("(1 2 3 4 5)", 6), 2, 3)

    def test_text_form(self):
        w = WreathElement(top=parse_cycles("(1 2)", 2),
                          base=(parse_cycles("(1 2 3)", 3),
                                Permutation.identity(3)))
        assert w.text() == "top=(1 2); base=[(1 2 3), ()]"


class TestMultiplication:
    def test_matches_pair_action_pointwise(self):
        rng = Random(5)
        for _ in range(200):
            p, q = rng.choice([(2, 3), (3, 5), (2, 5)])
            a, b = random_wreath(p, q, rng), random_wreath(p, q, rng)
            c = a * b
            for i in range(1, p + 1):
                for j in range(1, q + 1):
                    assert c.apply(i, j) == a.apply(*b.apply(i, j))

    def test_associative(self):
        rng = Random(6)
        for _ in range(100):
            a, b, c = (random_wreath(3, 4, rng) for _ in range(3))
            left = (a * b) * c
            right = a * (b * c)
            assert left.as_permutation() == right.as_permutation()

    def test_explicit_component_rule(self):
        rng = Random(7)
        a, b = random_wreath(3, 5, rng), random_wreath(3, 5, rng)
        c = a * b
        assert c.top == a.top * b.top
        for i in range(1, 4):
            assert c.base[i - 1] == a.base[b.top(i) - 1] * b.base[i - 1]


class TestProjections:
    def test_top_is_homomorphism_everywhere(self):
        rng = Random(8)
        for _ in range(100):
            a, b = random_wreath(2, 3, rng), random_wreath(2, 3, rng)
            assert (a * b).top == a.top * b.top

    def test_base_identity(self):
        w = WreathElement.identity(3, 4)
        assert w.base[1].is_identity()

    def test_base_multiplicative_on_top_kernel(self):
        rng = Random(9)
        for _ in range(100):
            a, b = (WreathElement(
                top=Permutation.identity(2),
                base=(random_permutation(3, rng), random_permutation(3, rng)))
                for _ in range(2))
            ab = a * b
            for i in (1, 2):
                assert ab.base[i - 1] == a.base[i - 1] * b.base[i - 1]

    def test_base_not_multiplicative_in_general(self):
        # exhibit a pair outside the top kernel breaking multiplicativity
        rng = Random(10)
        found = False
        for _ in range(200):
            a, b = random_wreath(2, 3, rng), random_wreath(2, 3, rng)
            ab = a * b
            if any(ab.base[i - 1] != a.base[i - 1] * b.base[i - 1] for i in (1, 2)):
                found = True
                break
        assert found


class TestBlockSystems:
    def test_degree_21_witness_blocks(self):
        w = construct_witness(21, 3)
        blocks = blocks_from_orbits(w.N2)
        assert blocks.count == 3 and blocks.size == 7

    def test_degree_6_witness_blocks(self):
        w = construct_witness(6, 2)
        blocks = blocks_from_orbits(w.N2)
        assert blocks.blocks == ((1, 3, 5), (2, 4, 6))

    def test_transitive_group_rejected(self):
        with pytest.raises(HypothesisError, match="transitive"):
            blocks_from_orbits(PermGroup.from_cycles(6, "(1 2 3 4 5 6)"))

    def test_unequal_orbits_rejected(self):
        with pytest.raises(HypothesisError, match="not all equal"):
            blocks_from_orbits(PermGroup.from_cycles(5, "(1 2 3)"))

    def test_relabeling_standardizes_blocks(self):
        w = construct_witness(6, 2)
        blocks = blocks_from_orbits(w.N2)
        rho = blocks.relabeling()
        for idx, block in enumerate(blocks.blocks):
            assert sorted(rho(x) for x in block) == \
                list(range(3 * idx + 1, 3 * idx + 4))


class TestEmbedding:
    def embed_witness(self, n, p):
        w = construct_witness(n, p)
        return w, embed(w.G, w.N1, w.N2)

    def test_degree_21_conditions(self):
        w, emb = self.embed_witness(21, 3)
        assert (emb.p, emb.q) == (3, 7)
        assert emb.conditions.all_hold
        assert emb.conditions.n2_projections_transitive == (True, True, True)

    def test_degree_6_n1_transitive_on_pairs(self):
        w, emb = self.embed_witness(6, 2)
        assert emb.conditions.n1_transitive_on_pairs

    @pytest.mark.parametrize("n, p", [(6, 2), (21, 3)])
    def test_intransitive_n1_fails_condition_i(self, n, p):
        # N1 = N2 meets every hypothesis but is intransitive: a verdict, not
        # an error; (ii) and (iii) still hold, as the blocks are N2's orbits
        w = construct_witness(n, p)
        conditions = embed(w.G, w.N2, w.N2).conditions
        assert conditions.n1_transitive_on_pairs is False
        assert conditions.n2_in_top_kernel is True
        assert conditions.n2_projections_transitive == (True,) * p
        assert conditions.all_hold is False

    def test_unequal_orders_rejected(self):
        w = construct_witness(21, 3)
        # <tau^3> is normal with three orbits of size 7, but has order 7 != 21
        small = PermGroup([w.tau ** 3], degree=21)
        with pytest.raises(HypothesisError, match="differ"):
            embed(w.G, w.N1, small)

    def test_transitive_n1_that_is_not_normal_rejected(self):
        s6 = PermGroup.from_cycles(6, "(1 2)", "(1 2 3 4 5 6)")
        c6 = PermGroup.from_cycles(6, "(1 2 3 4 5 6)")
        n2 = PermGroup.from_cycles(6, "(1 2 3)(4 5 6)")  # 2 blocks of size 3
        assert c6.is_transitive() and not is_normal(c6, s6)
        with pytest.raises(HypothesisError, match=r"^N1 is not a normal subgroup of G$"):
            embed(s6, c6, n2)

    def test_composite_block_count_rejected(self):
        w = construct_witness(8, 2)  # blocks of size 4: not prime
        with pytest.raises(HypothesisError, match="prime"):
            embed(w.G, w.N1, w.N2)

    def test_embedding_is_homomorphism_on_random_words(self):
        rng = Random(11)
        for n, p in ((6, 2), (21, 3)):
            w, emb = self.embed_witness(n, p)
            for _ in range(200):
                g = w.G.random_element(rng)
                h = w.G.random_element(rng)
                lhs = emb.apply(g * h).as_permutation()
                rhs = (emb.apply(g).as_permutation()
                       * emb.apply(h).as_permutation())
                assert lhs == rhs

    def test_embedding_is_injective(self):
        for n, p in ((6, 2), (21, 3)):
            w, emb = self.embed_witness(n, p)
            image = PermGroup(
                [img.as_permutation() for _, img in emb.image_map],
                degree=n)
            assert image.order() == w.G.order()

