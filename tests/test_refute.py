"""Refute's per-sample analysis and its group cache.

The positive control: on witness groups, where counterexamples to the pq
statement exist, the analysis must find them.  The cache: a group drawn
more than once, from any generating set, is analysed once.  The draw:
one seeded stream gives the same tables in every version.  The workers:
the report is the same whatever the number of worker processes or of
batches, no worker outlives the call, and an error in a worker reaches
the caller."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import permwit.refute as refute_module
import permwit.workers as workers_module
from permwit import kernels
from permwit.census import census
from permwit.errors import BudgetExceeded
from permwit.group import ENUMERATION_BUDGET, PermGroup
from permwit.perm import Permutation, parse_cycles
from permwit.refute import _analyze_sample
from permwit.witness import construct_witness, verify_candidate
from permwit.wreath import WreathElement


@pytest.mark.parametrize("n, p", [(6, 2), (9, 3), (21, 3)])
def test_analysis_reports_witness_counterexamples(n, p):
    w = construct_witness(n, p)
    assert w.G.is_transitive() and not w.G.order_exceeds(ENUMERATION_BUDGET)
    pairs, counterexamples = _analyze_sample([g.table for g in w.G.generators])
    assert pairs >= 1
    assert counterexamples
    for found in counterexamples:
        g_group, n1, n2 = (PermGroup.from_cycles(n, *found[key])
                           for key in ("G", "N1", "N2"))
        assert verify_candidate(g_group, n1, n2).passed


# sha256 over the first 500 draws of one Random(1) stream, each draw fed
# as its table count followed by its tables: a changed table, or a changed
# use of the stream, changes it
DRAW_STREAM = {
    (3, 5): "c867d3b36d714f3c25ae5c4dcf6604b32a6c164f63d385b49163bd5de04863bf",
    (5, 7): "680298e9eba810887816112235efb437c7d6ea71fabfc14578edd237d566cdbe",
}


@pytest.mark.parametrize("p, q", sorted(DRAW_STREAM))
def test_draw_stream_is_pinned(p, q):
    rng = Random(1)
    digest = hashlib.sha256()
    for _ in range(500):
        tables = refute_module._draw_generators(p, q, rng)
        assert all(sorted(t) == list(range(p * q)) for t in tables)
        digest.update(bytes([len(tables)]) + b"".join(tables))
    assert digest.hexdigest() == DRAW_STREAM[p, q]


def on_cpus(monkeypatch, count):
    """Make the worker map see `count` CPUs: one runs everything in
    process, two spread the work over this process and a forked child."""
    monkeypatch.setattr(workers_module, "_cpus", lambda: list(range(count)))


def record_analysis(monkeypatch):
    """Record every sample refute draws, and the order of every group it
    hands to the analysis map.  Returns (samples, orders)."""
    draw = refute_module._draw_generators
    samples, orders = [], []

    def recording_draw(p, q, rng):
        tables = draw(p, q, rng)
        samples.append(tables)
        return tables

    map_in_order = refute_module.map_in_order

    def recording_map(func, items, chunksize):
        if func is _analyze_sample:
            orders.extend(refute_module._group(tables).order() for tables in items)
        return map_in_order(func, items, chunksize)

    monkeypatch.setattr(refute_module, "_draw_generators", recording_draw)
    monkeypatch.setattr(refute_module, "map_in_order", recording_map)
    return samples, orders


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

    tables = [[g.table for g in gens] for gens in (first, second)]
    for cpus in (1, 2):
        draws = iter(tables)
        monkeypatch.setattr(refute_module, "_draw_generators",
                            lambda p, q, rng: next(draws))
        on_cpus(monkeypatch, cpus)
        samples, orders = record_analysis(monkeypatch)
        report = refute_module.refute(3, 5, 2, 1)
        monkeypatch.undo()
        assert samples == tables
        assert report.small_groups_tested == 2
        assert orders == [3000]


def test_one_lattice_per_distinct_small_group(monkeypatch):
    runs = []
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        samples, orders = record_analysis(monkeypatch)
        report = refute_module.refute(3, 5, 2000, 1)
        monkeypatch.undo()
        assert len(samples) == 2000
        runs.append((report.small_groups_tested, len(orders)))
    # oracle: transitivity by orbit, elements by closure; only the budget
    # test reads a stabilizer chain
    element_sets = set()
    small = 0
    for tables in samples:
        if len(kernels.orbit(0, tables)) < 15:
            continue
        gens = [Permutation._from_table(t) for t in tables]
        if PermGroup(gens, degree=15).order_exceeds(ENUMERATION_BUDGET):
            continue
        small += 1
        element_sets.add(frozenset(kernels.close_elements(15, tables, ENUMERATION_BUDGET)))
    assert small > len(element_sets) > 1
    assert runs == [(small, len(element_sets))] * 2


@pytest.mark.parametrize("p, q, samples, seed",
                         [(3, 5, 2000, 1), (3, 5, 2000, 2), (3, 5, 2000, 3), (5, 7, 300, 1)])
def test_report_does_not_depend_on_the_worker_count(monkeypatch, p, q, samples, seed):
    reports = []
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        reports.append(refute_module.refute(p, q, samples, seed).to_json_dict())
    assert reports[0] == reports[1]


def test_samples_are_held_one_batch_at_a_time(monkeypatch):
    # a run of several batches gives the report of one batch: the draw,
    # the dedupe and the sums keep sample order across batches
    expected = {seed: refute_module.refute(3, 5, 2000, seed).to_json_dict()
                for seed in (1, 2)}
    map_in_order = refute_module.map_in_order
    screened = []  # the sample count of each screen map

    def recording_map(func, items, chunksize):
        if func is refute_module._screen:
            screened.append(len(items))
        return map_in_order(func, items, chunksize)

    for cpus in (1, 2):
        for seed in (1, 2):
            on_cpus(monkeypatch, cpus)
            monkeypatch.setattr(refute_module, "_BATCH", 300)
            monkeypatch.setattr(refute_module, "map_in_order", recording_map)
            screened.clear()
            report = refute_module.refute(3, 5, 2000, seed).to_json_dict()
            monkeypatch.undo()
            assert screened == [300] * 6 + [200]
            assert report == expected[seed]


def test_importing_the_cli_does_not_import_multiprocessing():
    # importing multiprocessing cost 14-22 ms a call, so neither the CLI's
    # import nor a run that forks workers may load it
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import permwit.cli; "
            "import permwit.census as c, permwit.refute as r, permwit.workers as w; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing')); "
            "w._cpus = lambda: [0, 1]; r.refute(3, 5, 50, 1); c.census_report(7); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
    done = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"


def test_importing_permwit_does_not_import_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, and its class
    # generator runs once per decorated class: 40-60% of the CLI's import
    # time from compiled bytecode, which every command pays
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import permwit.cli, "
            "permwit.census, permwit.refute, permwit.witness, permwit.wreath; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_refute(monkeypatch):
    on_cpus(monkeypatch, 2)
    report = refute_module.refute(3, 5, 200, 1)
    assert report.samples_tested == 200
    assert_no_child_left()
    assert len(census(7)) == 7
    assert_no_child_left()


def test_a_worker_error_reaches_the_caller(monkeypatch):
    on_cpus(monkeypatch, 2)

    def failing(tables):
        raise BudgetExceeded("x")

    monkeypatch.setattr(refute_module, "_analyze_sample", failing)
    with pytest.raises(BudgetExceeded, match="^x$"):
        refute_module.refute(3, 5, 200, 1)
    assert_no_child_left()


def test_no_sample_starts_no_process(monkeypatch):
    on_cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    assert refute_module.refute(3, 5, 0, 1).samples_tested == 0


def test_output_written_before_refute_is_written_once():
    # a forked worker flushes the standard streams it inherits when it
    # exits, so buffered output must be flushed before the workers start
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import permwit.refute as r, permwit.workers as w; w._cpus = lambda: [0, 1]; "
            "print('before'); print(r.refute(3, 5, 200, 1).samples_tested)")
    done = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "before\n200\n"
