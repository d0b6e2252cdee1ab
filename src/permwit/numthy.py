"""Elementary number theory: factorization, Euler phi, multiplicative orders.

Trial division throughout -- inputs here are permutation degrees, so tiny.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple


def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """The (prime, exponent) pairs of n, primes increasing."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    m = n
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def pq_hypothesis_failure(p: int, q: int) -> Optional[str]:
    """Why (p, q) fails the degree-pq nonexistence hypothesis, or None when
    p < q are primes and p does not divide q-1."""
    if not (is_prime(p) and is_prime(q)):
        return f"need primes, got p={p}, q={q}"
    if p >= q:
        return f"need p < q, got p={p}, q={q}"
    if (q - 1) % p == 0:
        return (f"{p} divides {q}-1 = {q - 1}, so degree {p * q} admits witness "
                f"groups (p divides phi({p * q}); try: permwit witness {p * q} "
                f"--prime {p}); nonexistence only holds when p does not divide q-1")
    return None


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"euler_phi is undefined for {n}")
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def mult_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 (mod n)."""
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    k = euler_phi(n)
    for p, _ in factorize(k):
        while k % p == 0 and pow(a, k // p, n) == 1:
            k //= p
    return k


def unit_of_order(p: int, n: int) -> Optional[int]:
    """Some unit of multiplicative order exactly p mod n, or None.

    Deterministic: scan a = 2..n-1 over units and return a^(ord(a)/p) for
    the first a whose order is divisible by p.  Succeeds iff p divides
    phi(n).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    for a in range(2, n):
        if math.gcd(a, n) != 1:
            continue
        d = mult_order(a, n)
        if d % p == 0:
            return pow(a, d // p, n)
    return None


def primitive_root(q: int) -> int:
    """Smallest primitive root mod a prime q."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q == 2:
        return 1
    for g in range(2, q):
        if mult_order(g, q) == q - 1:
            return g
    raise AssertionError(f"no primitive root found for prime {q}")
