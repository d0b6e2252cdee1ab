import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import permwit.census as census_module
import permwit.group as group_module
import permwit.quotient as quotient_module
import permwit.refute as refute_module
import permwit.witness as witness_module
import permwit.workers as workers_module
import permwit.wreath as wreath_module
from permwit.cli import main
from permwit.group import PermGroup
from permwit.witness import construct_witness, valid_primes

from groupfiles import format_groups


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def witness_file(tmp_path, n, p, mutate=None):
    w = construct_witness(n, p)
    groups = [w.G, w.N1, w.N2]
    if mutate:
        groups = mutate(w, groups)
    path = tmp_path / f"w{n}.grp"
    path.write_text(format_groups(groups))
    return str(path)


class TestWitnessCommand:
    def test_degree_nine_auto_prime(self, capsys):
        code, payload, err = run_cli(capsys, "witness", "9")
        assert code == 0
        assert payload["p"] == 3 and payload["i"] == 4
        assert payload["report"]["passed"] is True
        assert "all clauses pass" in err

    def test_explicit_prime(self, capsys):
        code, payload, _ = run_cli(capsys, "witness", "100", "--prime", "5")
        assert code == 0 and payload["p"] == 5

    def test_no_valid_prime_is_input_error(self, capsys):
        code, payload, err = run_cli(capsys, "witness", "15")
        assert code == 2 and payload is None
        assert "no witness of degree 15 exists" in err

    def test_unknown_degree_message(self, capsys):
        code, _, err = run_cli(capsys, "witness", "7")
        assert code == 2
        assert "no witness of degree 7 exists, since 7 is prime" in err
        code, _, err = run_cli(capsys, "witness", "255")
        assert code == 2
        assert "255 = 3*5*17" in err and "is open" in err

    def test_invalid_prime_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "witness", "9", "--prime", "5")
        assert code == 2 and "hypothesis fails" in err

    @pytest.mark.parametrize("n", ["0", "-3", "1", "300"])
    def test_degree_out_of_range_is_input_error(self, capsys, n):
        code, payload, err = run_cli(capsys, "witness", n)
        assert code == 2 and payload is None
        assert err.startswith("error:")


# the phrase that names each route for a degree with no valid prime
ROUTE_PHRASES = {
    "prime": "is prime: a normal subgroup",
    "census": "(see: permwit refute",
    "theorem": "by the paper's theorem",
    "open": "is open",
}


def test_every_degree_has_a_route(capsys):
    # each degree 2..256 is constructive or names exactly one route, and
    # every refute command a message names runs
    routes = Counter()
    for n in range(2, 257):
        if valid_primes(n):
            routes["constructive"] += 1
            continue
        code, payload, err = run_cli(capsys, "witness", str(n))
        assert code == 2 and payload is None
        named = [route for route, phrase in ROUTE_PHRASES.items() if phrase in err]
        assert len(named) == 1, (n, err)
        routes[named[0]] += 1
        for p, q in re.findall(r"permwit refute (\d+) (\d+)", err):
            assert main(["refute", p, q, "--samples", "0"]) == 0, (n, err)
            capsys.readouterr()
    assert routes == {"constructive": 169, "prime": 54, "census": 2,
                      "theorem": 29, "open": 1}


class TestVerifyCommand:
    def test_valid_triple(self, capsys, tmp_path):
        path = witness_file(tmp_path, 6, 2)
        code, payload, _ = run_cli(capsys, "verify", path)
        assert code == 0
        assert payload["report"]["passed"] is True
        assert payload["orders"] == {"G": 12, "N1": 6, "N2": 6}

    def test_n2_equal_n1_fails_clause_c(self, capsys, tmp_path):
        path = witness_file(tmp_path, 6, 2,
                            mutate=lambda w, groups: [w.G, w.N1, w.N1])
        code, payload, _ = run_cli(capsys, "verify", path)
        assert code == 1
        assert payload["report"]["clauses"]["c"]["ok"] is False

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("degree: 6\n(1 2\n---\ndegree: 6\n---\ndegree: 6\n")
        code, payload, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and payload is None
        assert "line 2" in err

    @pytest.mark.parametrize("text, message", [
        ("degree: 2\n(1 2)\n---\n---\ndegree: 1\n", "line 4: empty group section"),
        ("degree: 2\n---\ndegree: 2\n",
         "expected 3 groups separated by '---' lines, found 2 sections"),
    ])
    def test_whole_file_problems_name_no_line_0(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.grp"
        path.write_text(text)
        code, payload, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and payload is None
        assert err == f"error: {message}\n"

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "/nonexistent/file.grp")
        assert code == 2

    def test_directory_is_input_error(self, capsys, tmp_path):
        code = main(["verify", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:")


@pytest.mark.parametrize("command", ["verify", "embed"])
def test_non_utf8_file_is_input_error(capsys, tmp_path, command):
    path = tmp_path / "binary.grp"
    path.write_bytes(bytes(range(256)) * 2)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("command", ["verify", "embed"])
def test_degree_above_maximum_is_input_error(capsys, tmp_path, command):
    path = tmp_path / "big.grp"
    path.write_text("degree: 257\n---\ndegree: 257\n---\ndegree: 257\n")
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "257" in captured.err


HUGE = "1000000000000000003"  # a prime, so trial division runs to its square root


@pytest.mark.parametrize("argv", [
    ["witness", HUGE],
    ["witness", "6", "--prime", HUGE],
    ["census", HUGE],
    ["refute", HUGE, "1000000000000000009"],
], ids=" ".join)
def test_huge_argument_is_prompt_input_error(capsys, argv):
    start = time.monotonic()
    code = main(argv)
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:")
    assert elapsed < 2


class TestCensusCommand:
    def test_degree_five(self, capsys):
        code, payload, err = run_cli(capsys, "census", "5")
        assert code == 0
        assert payload["entry_count"] == 5
        assert payload["orders"] == [5, 10, 20, 60, 120]
        assert payload["passed"] is True
        assert "5 classes" in err

    def test_out_of_budget(self, capsys):
        code, _, err = run_cli(capsys, "census", "11")
        assert code == 2 and "q <= 7" in err
        assert err.startswith("error:")


class TestEmbedCommand:
    def test_degree_21(self, capsys, tmp_path):
        path = witness_file(tmp_path, 21, 3)
        code, payload, _ = run_cli(capsys, "embed", path)
        assert code == 0
        assert payload["p"] == 3 and payload["q"] == 7
        conds = payload["conditions"]
        assert conds["n1_transitive_on_pairs"] is True
        assert conds["n2_in_top_kernel"] is True
        assert conds["n2_projections_transitive"] == [True, True, True]
        first_image = payload["generator_images"][0]["image"]
        assert first_image.startswith("top=(") and "base=[" in first_image

    def test_bad_shape_is_input_error(self, capsys, tmp_path):
        path = witness_file(tmp_path, 8, 2)  # 2 blocks of composite size 4
        code, _, err = run_cli(capsys, "embed", path)
        assert code == 2 and "prime" in err


class TestRefuteCommand:
    def test_small_run_consistent(self, capsys):
        code, payload, err = run_cli(
            capsys, "refute", "3", "5", "--samples", "200", "--seed", "1")
        assert code == 0
        assert payload["verdict"] == "consistent"
        assert payload["counterexamples_found"] == 0
        assert payload["samples_tested"] == 200
        assert payload["seed"] == 1
        assert all(payload["census_verdicts"].values())
        assert "consistent" in err
        assert re.search(r" in \d+\.\ds$", err.strip())

    def test_stderr_names_the_cpus(self, capsys, monkeypatch):
        # the CPUs the worker maps may use, however few processes a run forks
        for cpus, clause in ((1, " counterexamples) on 1 CPU in "),
                             (2, " counterexamples) on 2 CPUs in ")):
            monkeypatch.setattr(workers_module, "_cpus", lambda: list(range(cpus)))
            for samples in ("0", "5", "50"):
                code, _, err = run_cli(capsys, "refute", "3", "5", "--samples", samples)
                assert code == 0 and clause in err
        # without os.fork every map runs in process, on one CPU
        monkeypatch.undo()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(os, "fork")
        code, _, err = run_cli(capsys, "refute", "3", "5", "--samples", "50")
        assert code == 0 and " counterexamples) on 1 CPU in " in err

    def test_stdout_is_one_json_document(self):
        # a fresh interpreter whose stdout is a pipe, so that it is block
        # buffered while the workers fork
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(
            [sys.executable, "-m", "permwit.cli", "refute", "3", "5",
             "--samples", "300", "--seed", "1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        payload, end = json.JSONDecoder().raw_decode(done.stdout)
        assert done.stdout[end:] == "\n"
        assert payload["command"] == "refute" and payload["samples_tested"] == 300

    def test_hypothesis_error_points_to_witness(self, capsys):
        code, _, err = run_cli(capsys, "refute", "2", "5")
        assert code == 2
        assert "witness 10" in err

    def test_deterministic_output_byte_for_byte(self, capsys):
        code1 = main(["refute", "3", "5", "--samples", "150", "--seed", "9"])
        out1 = capsys.readouterr().out
        code2 = main(["refute", "3", "5", "--samples", "150", "--seed", "9"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        assert "elapsed" not in out1  # timing goes to stderr only

    @pytest.mark.parametrize("argv", [
        ("census", "5"),
        ("refute", "3", "5", "--samples", "300", "--seed", "2"),
    ], ids=["census_5", "refute_3_5"])
    def test_output_is_independent_of_the_hash_seed(self, argv):
        # set and dict iteration order changes with PYTHONHASHSEED, which
        # only a fresh interpreter picks up
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for seed in ("0", "987654"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH")) if p))
            done = subprocess.run([sys.executable, "-m", "permwit.cli", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert outs[0] == outs[1] and outs[0]

    def test_negative_samples_is_input_error(self, capsys):
        code, payload, err = run_cli(
            capsys, "refute", "3", "5", "--samples", "-5")
        assert code == 2 and payload is None
        assert err.startswith("error:")

    def test_out_of_budget_q(self, capsys):
        code, _, _ = run_cli(capsys, "refute", "3", "11")
        assert code == 2


class TestExitCodeSeparation:
    def test_math_failure_vs_input_error(self, capsys, tmp_path):
        bad_math = witness_file(tmp_path, 6, 2,
                                mutate=lambda w, groups: [w.G, w.N1, w.N1])
        assert run_cli(capsys, "verify", bad_math)[0] == 1
        bad_input = tmp_path / "broken.grp"
        bad_input.write_text("degree: -1\n")
        assert run_cli(capsys, "verify", str(bad_input))[0] == 2


def test_witness_is_verified_once(capsys, monkeypatch):
    calls = []
    verify_candidate = witness_module.verify_candidate

    def counting_verify_candidate(*args, **kwargs):
        calls.append(args)
        return verify_candidate(*args, **kwargs)

    monkeypatch.setattr(witness_module, "verify_candidate", counting_verify_candidate)
    code, payload, _ = run_cli(capsys, "witness", "21")
    assert code == 0 and payload["verified"] is True
    assert len(calls) == 1


def _no_quotient_isomorphism(monkeypatch, tmp_path):
    monkeypatch.setattr(witness_module, "find_isomorphism", lambda *args: None)
    return ["witness", "21"]


# No real input makes condition (iii) fail: the blocks are N2's own orbits,
# so N2 is transitive on each of them whenever embed's hypotheses hold.  A
# failed (iii) can only be forced by patching is_transitive; a failed (i)
# comes from a real file (GOLDEN's "embed w21_n1_is_n2.grp").
def _intransitive_block_projections(monkeypatch, tmp_path):
    path = witness_file(tmp_path, 21, 3)
    is_transitive = PermGroup.is_transitive
    monkeypatch.setattr(PermGroup, "is_transitive",
                        lambda group: group.degree != 7 and is_transitive(group))
    return ["embed", path]


def _never_doubly_transitive(monkeypatch, tmp_path):
    monkeypatch.setattr(PermGroup, "is_2_transitive", lambda group: False)
    return ["census", "5"]


def _refute_never_doubly_transitive(monkeypatch, tmp_path):
    _never_doubly_transitive(monkeypatch, tmp_path)
    return ["refute", "3", "5", "--samples", "0"]


# one forced mathematical failure per command: each must reach the report,
# exit 1 and show the failed verdict, never exit 2 or raise
@pytest.mark.parametrize("force, failed", [
    pytest.param(_no_quotient_isomorphism,
                 lambda out: out["verified"] is False
                 and out["report"]["clauses"]["d"]["ok"] is False,
                 id="witness"),
    pytest.param(_intransitive_block_projections,
                 lambda out: out["conditions"]["n2_projections_transitive"]
                 == [False, False, False],
                 id="embed"),
    pytest.param(_never_doubly_transitive,
                 lambda out: out["passed"] is False
                 and [b["order"] for b in out["burnside"] if not b["passed"]]
                 == [60, 120],
                 id="census"),
    pytest.param(_refute_never_doubly_transitive,
                 lambda out: out["census_verdicts"]["burnside"] is False
                 and out["verdict"] == "THEOREM-VIOLATION",
                 id="refute"),
])
def test_mathematical_failure_is_a_verdict(capsys, monkeypatch, tmp_path, force, failed):
    argv = force(monkeypatch, tmp_path)
    code, payload, err = run_cli(capsys, *argv)
    assert code == 1
    assert failed(payload)
    assert len(err.splitlines()) == 1 and not err.startswith("error:")
    assert "Traceback" not in err


# the exit code and the sha256 of stdout of each command, recorded from an
# earlier version of the program: reports must stay byte-identical, so any
# change to their printed bytes fails here
GOLDEN = {
    "census 2": (0, "a0a9480d1a454449b40efa40aec14b26dcd0d96debdd3ff4d0ecdf8cf52d2d7f"),
    "census 3": (0, "a341f262c5173c3008f1fe0aec6a3592c20dc9b143e52465dabfbdc9973799f9"),
    "census 5": (0, "3d8e12a2e3479d0d036211c5b791ed9b32363250bb997513c4bb2eda6121dbcf"),
    "census 7": (0, "1bbd2bb4eb889a62daf6f68150c48bf59392f04ea53c55e46af8563985c477dd"),
    "refute 3 5 --samples 300 --seed 1":
        (0, "9a4bcac0091b19bc11a1a9040d0681bb4442800ef2249ae4eefb7e6f23c02aa2"),
    "refute 5 7 --samples 100 --seed 1":
        (0, "47142795e81a190fac315bc450e5368de09dfb1e3526628cccd91d8d1b1fc30b"),
    "witness 9": (0, "e47856968814b7762969e8259d95a4c107cdd9d6f7fbb931bb87e57ffc504777"),
    "witness 21": (0, "ba4804d870682e0be9b6208ea2f2840ab9de719384d859782d6fead629982286"),
    "witness 100": (0, "415705a57d393989365d77ee07a65cc6c341f4467e5ce49abc7ddefe8d2e2167"),
    # three-digit labels; p = 11, and p = 2 with 127 transpositions in sigma
    "witness 253": (0, "7a8d96fb585dc8906498050b4d805a59df68bf16ef4ba7a722b59064464616f9"),
    "witness 254": (0, "947eee7d4fe6de8790b9fb5dd222e1cf3de3f332504b11277e770ed975f557de"),
    "witness 255": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify w21.grp":
        (0, "fe6b88e7cde0009d6f77a19d1a880a3e2593cd56f787ab9c305a25c2f2875f4c"),
    "verify w21_n2_is_n1.grp":
        (1, "0f0cddde2a01031b94e5114a9474ad466699dbd8f361ef893f522752f509e4b1"),
    "embed w21.grp":
        (0, "82d4270fdba022fb3b192bf25823e7a1a0a7f3bb4d6dbf76cc44b1079465bed6"),
    # N1 = N2 is intransitive: condition (i) fails, (ii) and (iii) hold
    "embed w21_n1_is_n2.grp":
        (1, "1d100c5c8214b698a353428b1938e2a84ecd3f7f2b8758c925760daa09ed3c05"),
    "verify w21_n1_is_n2.grp":
        (1, "1364c93b29e86ba6bca22c03253e2ca05f53218ca3d40f599040406a286c0d68"),
    # S7 with N2 trivial: N2's coset walk stops past QUOTIENT_BUDGET cosets
    "verify s7_a7_1.grp":
        (1, "1ae9a0bd65a574852a3a5f9c5479b672965482891ec46f77712855338297aee8"),
    "verify s7_1_1.grp":
        (1, "9d9d68338389a404376b795c4a0bf78b0ce48a9fce8f520be872f830eb871343"),
}


def _s7_a7_trivial():
    return (PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)"),
            PermGroup.from_cycles(7, "(1 2 3)", "(3 4 5 6 7)"),
            PermGroup.trivial(7))


# the group files that verify and embed read: the degree-21 witness triple,
# that triple with N2 = N1 (clause c fails, clause d is not evaluated), and
# that triple with N1 = N2 (an intransitive N1), and S7 with (A7, 1) and
# (1, 1), whose trivial N has index 5040.
# Each is written under a fixed name relative to the working directory, so
# the "file" key the report echoes is the same in every run.
GOLDEN_FILES = {
    "w21.grp": lambda w: [w.G, w.N1, w.N2],
    "w21_n2_is_n1.grp": lambda w: [w.G, w.N1, w.N1],
    "w21_n1_is_n2.grp": lambda w: [w.G, w.N2, w.N2],
    "s7_a7_1.grp": lambda w: list(_s7_a7_trivial()),
    "s7_1_1.grp": lambda w: [_s7_a7_trivial()[0], PermGroup.trivial(7), PermGroup.trivial(7)],
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(capsys, monkeypatch, tmp_path, command):
    name = command.split()[-1]
    if name in GOLDEN_FILES:
        monkeypatch.chdir(tmp_path)
        groups = GOLDEN_FILES[name](construct_witness(21, 3))
        Path(name).write_text(format_groups(groups))
    code = main(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]


# the keys a record's JSON may add after its fields: each is a property
DERIVED_KEYS = {"passed", "verdict", "counterexamples_found", "centralizer_ok"}
# records whose JSON renders groups and permutations as cycle strings, so
# its keys are not its fields
OWN_JSON = {"CensusEntry", "Embedding", "Witness"}


def test_json_keys_are_fields_plus_derived_keys():
    entries = census_module.census(5)
    witness = construct_witness(21, 3)
    records = ([census_module.verify_wielandt(e) for e in entries]
               + [census_module.verify_burnside(e) for e in entries]
               + [census_module.verify_lemma_pq(5, 3, entries),
                  census_module.verify_contain(5, entries),
                  witness_module.verify_witness(witness),
                  refute_module.refute(3, 5, 20, 1),
                  wreath_module.blocks_from_orbits(witness.N2)])
    with_json = {name for module in (census_module, group_module, quotient_module,
                                     refute_module, witness_module, wreath_module)
                 for name, obj in vars(module).items()
                 if isinstance(obj, type) and issubclass(obj, tuple)
                 and obj.__module__ == module.__name__ and hasattr(obj, "to_json_dict")}
    assert with_json == {type(r).__name__ for r in records} | OWN_JSON
    for record in records:
        data = record.to_json_dict()
        fields = list(type(record)._fields)
        assert list(data)[:len(fields)] == fields, type(record).__name__
        extra = list(data)[len(fields):]
        assert set(extra) <= DERIVED_KEYS, type(record).__name__
        for key in extra:
            assert data[key] == getattr(record, key)
