import math

import pytest

from permwit.census import verify_lemma_pq
from permwit.errors import HypothesisError
from permwit.numthy import (
    euler_phi,
    factorize,
    is_prime,
    mult_order,
    pq_hypothesis_failure,
    primitive_root,
    unit_of_order,
)
from permwit.refute import refute


def phi_by_counting(n):
    return sum(1 for k in range(1, n) if math.gcd(k, n) == 1) if n > 1 else 1


def test_factorize_round_trip():
    for n in range(1, 2000):
        f = factorize(n)
        assert math.prod(p ** e for p, e in f) == n
        primes = [p for p, _ in f]
        assert primes == sorted(primes)
        assert all(is_prime(p) for p in primes)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_euler_phi_examples():
    assert euler_phi(9) == 6
    assert euler_phi(21) == 12
    assert euler_phi(1) == 1
    for p in (2, 3, 5, 7, 11, 97):
        assert euler_phi(p) == p - 1


def test_euler_phi_matches_direct_count():
    for n in range(1, 501):
        assert euler_phi(n) == phi_by_counting(n)


def test_euler_phi_zero_rejected():
    with pytest.raises(ValueError):
        euler_phi(0)


def test_mult_order_examples():
    assert mult_order(1, 10) == 1
    assert mult_order(4, 9) == 3   # 4^2 = 7, 4^3 = 64 = 1 mod 9
    assert mult_order(2, 9) == 6   # 2, 4, 8, 7, 5, 1
    assert mult_order(2, 7) == 3


def test_mult_order_is_least():
    for n in range(2, 80):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            k = mult_order(a, n)
            assert pow(a, k, n) == 1
            assert all(pow(a, j, n) != 1 for j in range(1, k))


def test_mult_order_rejects_non_unit():
    with pytest.raises(ValueError):
        mult_order(6, 9)
    with pytest.raises(ValueError):
        mult_order(3, 1)


def test_unit_of_order_examples():
    assert unit_of_order(3, 9) == 4    # first unit with order divisible by 3 is 2; 2^2 = 4
    assert unit_of_order(2, 6) == 5    # units mod 6 are {1, 5}
    assert unit_of_order(3, 5) is None  # 3 does not divide phi(5) = 4


def test_unit_of_order_rejects_composite():
    with pytest.raises(ValueError):
        unit_of_order(4, 9)


def test_unit_of_order_exists_iff_p_divides_phi():
    primes = [p for p in range(2, 20) if is_prime(p)]
    for n in range(2, 201):
        phi = euler_phi(n)
        for p in primes:
            got = unit_of_order(p, n)
            if phi % p == 0:
                assert got is not None
                assert mult_order(got, n) == p
                assert pow(got, p, n) == 1
            else:
                assert got is None


def test_primitive_root():
    assert primitive_root(2) == 1
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    for q in (11, 13, 17):
        g = primitive_root(q)
        assert mult_order(g, q) == q - 1
    with pytest.raises(ValueError):
        primitive_root(8)


def test_pq_hypothesis_failure_matches_definition():
    for p in range(1, 41):
        for q in range(1, 41):
            holds = is_prime(p) and is_prime(q) and p < q and (q - 1) % p != 0
            assert (pq_hypothesis_failure(p, q) is None) == holds


@pytest.mark.parametrize("p, q", [(2, 5), (3, 7), (4, 7), (5, 3)])
def test_hypothesis_checks_share_one_message(p, q):
    # refute and the census divisibility sweep both raise the one message
    # of pq_hypothesis_failure
    expected = pq_hypothesis_failure(p, q)
    assert expected is not None
    for check in (lambda: refute(p, q, samples=0, seed=1),
                  lambda: verify_lemma_pq(q, p, [])):
        with pytest.raises(HypothesisError) as caught:
            check()
        assert str(caught.value) == expected
