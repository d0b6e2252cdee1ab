"""Construction and verification of witness triples (G, N1, N2).

A witness of degree n is a transitive G <= S_n with two normal subgroups
of equal prime index p: N1 transitive, N2 not, and G/N1 isomorphic to
G/N2.  One exists whenever some prime p divides both n and phi(n); the
construction conjugates the full n-cycle by a multiplication map of order
p on the residues mod n.

Construction only builds the triple; `verify_witness` checks it, once, and
its report is the verdict.  Verification never trusts the construction:
orders, indices, orbits and the quotient isomorphism are all recomputed
from scratch, and the non-transitivity of N2 gets a second, independent
certificate (|N2| = n together with a fixed point of a non-identity
element).
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional

from permwit.errors import DegreeMismatch, HypothesisError, PermwitError
from permwit.group import PermGroup, is_normal
from permwit.numthy import euler_phi, factorize, is_prime, unit_of_order
from permwit.perm import MAX_DEGREE, Permutation
from permwit.quotient import _coset_table, find_isomorphism, walk_cosets


class Clause(NamedTuple):
    ok: bool
    detail: str


class VerificationReport(NamedTuple):
    clauses: Dict[str, Clause]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.clauses.values())

    def to_json_dict(self) -> dict:
        return {"clauses": {name: c._asdict() for name, c in self.clauses.items()},
                "passed": self.passed}


class Witness(NamedTuple):
    n: int
    p: int
    i: int
    tau: Permutation
    sigma: Permutation
    G: PermGroup
    N1: PermGroup
    N2: PermGroup

    def to_json_dict(self, report: VerificationReport) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "i": self.i,
            "tau": self.tau.cycle_string(),
            "sigma": self.sigma.cycle_string(),
            "G": [g.cycle_string() for g in self.G.generators],
            "N1": [g.cycle_string() for g in self.N1.generators],
            "N2": [g.cycle_string() for g in self.N2.generators],
            "verified": report.passed,
            "report": report.to_json_dict(),
        }


def standard_cycle(n: int) -> Permutation:
    """The n-cycle (1 2 ... n)."""
    return Permutation._from_table(bytes(list(range(1, n)) + [0]))


def build_sigma(n: int, i: int) -> Permutation:
    """The multiplication-by-i map on residues mod n, as a permutation.

    Point k stands for residue k-1, so the map sends point k to the point
    of residue i*(k-1) mod n.  It fixes point 1 and conjugates the
    standard n-cycle to its i-th power.
    """
    if math.gcd(i, n) != 1:
        raise HypothesisError(f"{i} is not a unit mod {n}")
    return Permutation._from_table(bytes((i * r) % n for r in range(n)))


def valid_primes(n: int) -> List[int]:
    """Primes p with p | n and p | phi(n), ascending."""
    if not 2 <= n <= MAX_DEGREE:  # before factorize's trial division
        raise HypothesisError(f"degree must be in 2..{MAX_DEGREE}, got {n}")
    phi = euler_phi(n)
    return [p for p, _ in factorize(n) if phi % p == 0]


def construct_witness(n: int, p: int) -> Witness:
    """Build the degree-n witness for the prime p; `verify_witness` checks it.

    Requires p | n and p | phi(n); the error message names whichever
    hypothesis fails.
    """
    if max(n, p) > MAX_DEGREE:  # before is_prime's trial division
        raise HypothesisError(
            f"degree and prime must be at most {MAX_DEGREE}, got n={n}, p={p}")
    if not is_prime(p):
        raise HypothesisError(f"{p} is not prime")
    if n < 2:
        raise HypothesisError(f"degree must be in 2..{MAX_DEGREE}, got {n}")
    failures = []
    if n % p != 0:
        failures.append(f"{p} does not divide n={n}")
    if euler_phi(n) % p != 0:
        failures.append(f"{p} does not divide phi({n})={euler_phi(n)}")
    if failures:
        raise HypothesisError(
            "witness construction hypothesis fails: " + "; ".join(failures))
    i = unit_of_order(p, n)
    assert i is not None
    tau = standard_cycle(n)
    sigma = build_sigma(n, i)
    if tau.conjugate(sigma) != tau ** i:
        raise PermwitError("internal error: sigma does not conjugate tau to tau^i")
    g_group = PermGroup([tau, sigma])
    n1 = PermGroup([tau])
    n2 = PermGroup([sigma, tau ** p])
    return Witness(n=n, p=p, i=i, tau=tau, sigma=sigma, G=g_group, N1=n1, N2=n2)


def verify_candidate(g_group: PermGroup, n1: PermGroup, n2: PermGroup,
                     expected_index: Optional[int] = None) -> VerificationReport:
    """Check the witness clauses (a)-(d) for an arbitrary proposed triple.

    (a) G transitive; (b) N1 normal, transitive, of the expected index;
    (c) N2 normal, not transitive, of the expected index; (d) the two
    quotients are isomorphic.  When `expected_index` is None both indices
    only have to agree with each other.
    """
    if n1.degree != g_group.degree or n2.degree != g_group.degree:
        raise DegreeMismatch("inconsistent degrees among groups")
    # walk N1's and N2's cosets first: a finished walk of c cosets proves
    # |G| <= c |N| (`walk_cosets`), and the least such bound lets G's chain
    # stop its Schreier check once it is reached; that chain then gives
    # clause (a)'s transitivity, and clause (d) reuses the walks
    walks = [walk_cosets(g_group, sub) for sub in (n1, n2)]
    order_g = g_group.order(min((len(w.reps) * sub.order()
                                 for w, sub in zip(walks, (n1, n2)) if w.finished),
                                default=None))
    clause_a = Clause(
        g_group.is_transitive(),
        f"G transitive on {g_group.degree} points")

    def subgroup_clause(sub: PermGroup, name: str, want_transitive: bool) -> Clause:
        try:
            normal = is_normal(sub, g_group)
        except PermwitError as exc:
            return Clause(False, f"{name}: {exc}")
        if not normal:
            return Clause(False, f"{name} is not normal in G")
        transitive = sub.is_transitive()
        if transitive != want_transitive:
            return Clause(False, f"{name} is {'' if transitive else 'not '}transitive, "
                                 f"expected the opposite")
        index = order_g // sub.order()
        if expected_index is not None and index != expected_index:
            return Clause(False, f"[G:{name}] = {index}, expected {expected_index}")
        return Clause(True, f"{name} normal, "
                            f"{'transitive' if transitive else 'not transitive'}, "
                            f"index {index}")

    clause_b = subgroup_clause(n1, "N1", want_transitive=True)
    clause_c = subgroup_clause(n2, "N2", want_transitive=False)

    if expected_index is None:
        idx1 = order_g // n1.order()
        idx2 = order_g // n2.order()
        if idx1 != idx2 and clause_b.ok and clause_c.ok:
            clause_b = Clause(False, f"indices differ: [G:N1]={idx1}, [G:N2]={idx2}")

    if clause_b.ok and clause_c.ok:
        # both clauses tested normality, so the quotients skip that test
        t1 = _coset_table(g_group, n1, walks[0])
        t2 = _coset_table(g_group, n2, walks[1])
        mapping = find_isomorphism(t1, t2)
        clause_d = Clause(
            mapping is not None,
            f"G/N1 and G/N2 of order {t1.order} "
            f"{'isomorphic' if mapping is not None else 'NOT isomorphic'}")
    else:
        clause_d = Clause(False, "not evaluated: clause (b) or (c) failed")
    return VerificationReport({"a": clause_a, "b": clause_b, "c": clause_c, "d": clause_d})


def verify_witness(w: Witness) -> VerificationReport:
    """Clauses (a)-(d) plus the constructed-witness certificate (e).

    Clause (e) re-proves non-transitivity independently of the orbit
    computation: |N2| = n and some non-identity element of N2 (sigma)
    fixes a point, so N2 cannot act transitively on n points.
    """
    report = verify_candidate(w.G, w.N1, w.N2, expected_index=w.p)
    return VerificationReport({**report.clauses, "e": _certificate(w)})


def _certificate(w: Witness) -> Clause:
    """Clause (e) of `verify_witness`."""
    order_n2 = w.N2.order()
    if order_n2 != w.n:
        return Clause(False, f"|N2| = {order_n2}, expected n = {w.n}")
    if w.sigma.is_identity():
        return Clause(False, "sigma is the identity")
    if not w.N2.contains(w.sigma):
        return Clause(False, "sigma is not an element of N2")
    fixed = w.sigma.fixed_points()
    return Clause(
        bool(fixed),
        f"|N2| = n = {w.n} and sigma fixes point(s) {fixed[:3]}"
        if fixed else "sigma has no fixed point")
