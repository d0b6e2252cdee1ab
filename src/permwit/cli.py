"""Command-line driver.

    permwit witness <n> [--prime p]
    permwit verify <file>
    permwit census <q>
    permwit embed <file>
    permwit refute <p> <q> [--samples N] [--seed S]

JSON goes to stdout, a human-readable summary to stderr.  Exit codes:
0 = pass, 1 = mathematical failure, 2 = input error.  `verify` and
`embed` expect a file with three groups G, N1, N2 separated by `---`
lines (see permwit.groupfile for the format).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from permwit.census import EXACT_LIMIT, census_report
from permwit.errors import PermwitError
from permwit.groupfile import parse_multi_group_file
from permwit.refute import refute
from permwit.witness import (
    construct_witness,
    valid_primes,
    verify_candidate,
    verify_witness,
)
from permwit.workers import worker_processes
from permwit.wreath import embed
from permwit.numthy import factorize, pq_hypothesis_failure

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT_ERROR = 2


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _witness_unavailable_message(n: int) -> str:
    head = (f"no prime divides both {n} and phi({n}), so the constructive "
            f"route does not apply; ")
    # squarefree: a prime whose square divides n also divides phi(n)
    primes = [p for p, _ in factorize(n)]
    if len(primes) == 1:
        return head + (f"no witness of degree {n} exists, since {n} is prime: "
                       f"a normal subgroup of a transitive group of prime degree "
                       f"is transitive or trivial, so N2 would be trivial and "
                       f"[G:N2] = |G| > [G:N1]")
    if len(primes) == 2 and pq_hypothesis_failure(*primes) is None:
        p, q = primes
        pq = f"{n} = {p}*{q} with {p} not dividing {q}-1, so "
        if q <= EXACT_LIMIT:
            return head + pq + (f"no witness of degree {n} exists at all "
                                f"(see: permwit refute {p} {q})")
        return head + pq + (f"by the paper's theorem no witness of degree {n} "
                            f"exists; this tool's machine evidence covers only "
                            f"q <= {EXACT_LIMIT}")
    return head + (f"{n} = {'*'.join(map(str, primes))} is squarefree with "
                   f"{len(primes)} prime factors, a case neither the construction "
                   f"nor the nonexistence theorem covers, so whether degree {n} "
                   f"admits a witness is open")


def cmd_witness(args: argparse.Namespace) -> int:
    n = args.n
    if args.prime is not None:
        p = args.prime
    else:
        primes = valid_primes(n)
        if not primes:
            _info(_witness_unavailable_message(n))
            return EXIT_INPUT_ERROR
        p = primes[0]
    w = construct_witness(n, p)
    report = verify_witness(w)
    _emit({"command": "witness", **w.to_json_dict(report)})
    _info(f"witness n={n} p={p} i={w.i}: "
          f"{'all clauses pass' if report.passed else 'FAILED'}")
    return EXIT_PASS if report.passed else EXIT_MATH_FAIL


def cmd_verify(args: argparse.Namespace) -> int:
    g_group, n1, n2 = parse_multi_group_file(args.file)
    report = verify_candidate(g_group, n1, n2)
    _emit({
        "command": "verify",
        "file": args.file,
        "degree": g_group.degree,
        "orders": {"G": g_group.order(), "N1": n1.order(), "N2": n2.order()},
        "report": report.to_json_dict(),
    })
    _info(f"verify {args.file}: "
          f"{'all clauses pass' if report.passed else 'FAILED'}")
    return EXIT_PASS if report.passed else EXIT_MATH_FAIL


def cmd_census(args: argparse.Namespace) -> int:
    report = census_report(args.q)
    _emit({"command": "census", **report})
    passed = report["passed"]
    _info(f"census q={args.q}: {report['entry_count']} classes, "
          f"orders {report['orders']}"
          + ("" if passed else " -- VERDICT FAILURES"))
    return EXIT_PASS if passed else EXIT_MATH_FAIL


def cmd_embed(args: argparse.Namespace) -> int:
    g_group, n1, n2 = parse_multi_group_file(args.file)
    embedding = embed(g_group, n1, n2)
    _emit({"command": "embed", "file": args.file, **embedding.to_json_dict()})
    _info(f"embed {args.file}: conditions "
          f"{'hold' if embedding.conditions.all_hold else 'FAILED'}")
    return EXIT_PASS if embedding.conditions.all_hold else EXIT_MATH_FAIL


def cmd_refute(args: argparse.Namespace) -> int:
    start = time.monotonic()
    report = refute(args.p, args.q, samples=args.samples, seed=args.seed)
    elapsed = time.monotonic() - start
    _emit({"command": "refute", **report.to_json_dict()})
    _info(f"refute p={args.p} q={args.q}: {report.verdict} "
          f"({report.samples_tested} samples, "
          f"{report.small_groups_tested} within budget, "
          f"{report.counterexamples_found} counterexamples, "
          f"{worker_processes(report.samples_tested)} worker processes) "
          f"in {elapsed:.1f}s")
    return EXIT_PASS if report.passed else EXIT_MATH_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permwit",
        description="permutation-group witnesses, prime-degree censuses, "
                    "and the degree-pq refutation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_wit = sub.add_parser("witness",
                           help="construct and verify a witness of degree n")
    p_wit.add_argument("n", type=int)
    p_wit.add_argument("--prime", type=int, default=None,
                       help="index prime (default: smallest valid)")
    p_wit.set_defaults(func=cmd_witness)

    p_ver = sub.add_parser("verify",
                           help="verify a (G, N1, N2) triple from a group file")
    p_ver.add_argument("file")
    p_ver.set_defaults(func=cmd_verify)

    p_cen = sub.add_parser("census",
                           help="enumerate transitive groups of prime degree q")
    p_cen.add_argument("q", type=int)
    p_cen.set_defaults(func=cmd_census)

    p_emb = sub.add_parser("embed",
                           help="embed a (G, N1, N2) triple into the wreath group")
    p_emb.add_argument("file")
    p_emb.set_defaults(func=cmd_embed)

    p_ref = sub.add_parser("refute",
                           help="nonexistence evidence for degree p*q")
    p_ref.add_argument("p", type=int)
    p_ref.add_argument("q", type=int)
    p_ref.add_argument("--samples", type=int, default=1000)
    p_ref.add_argument("--seed", type=int, default=1)
    p_ref.set_defaults(func=cmd_refute)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PermwitError, OSError) as exc:
        _info(f"error: {exc}")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
