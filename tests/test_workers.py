"""The fork-and-pipe worker map: results in item order from every worker,
each chunk run exactly once, errors raised as the builtin map would raise
them, no child left behind and the caller's CPU affinity restored; and the
number of processes that `census` and `refute` start through it."""

import os
import time

import pytest

import permwit.workers as workers_module
from permwit.census import census, census_report
from permwit.errors import CycleParseError, HypothesisError
from permwit.refute import refute
from permwit.workers import map_in_order

PARENT = os.getpid()


def on_cpus(monkeypatch, count):
    """Make the worker map see `count` CPUs, and so run up to `count`
    workers; CPUs this process may not run on leave a worker unpinned."""
    monkeypatch.setattr(workers_module, "_cpus", lambda: list(range(count)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def slow(x):
    # every item takes a while, so that every worker claims some
    time.sleep(0.005)
    return x * x, os.getpid()


@pytest.fixture
def affinity():
    before = os.sched_getaffinity(0)
    yield
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()


@pytest.mark.parametrize("cpus, chunksize", [(2, 1), (2, 3), (3, 2)])
def test_results_come_back_in_item_order(affinity, monkeypatch, cpus, chunksize):
    on_cpus(monkeypatch, cpus)
    out = map_in_order(slow, list(range(20)), chunksize)
    assert [y for y, _ in out] == [x * x for x in range(20)]
    pids = {pid for _, pid in out}
    assert PARENT in pids and len(pids) > 1


def test_more_workers_than_cpus_run_each_item_once(affinity, monkeypatch):
    # a lost update of the shared counter would run a chunk twice or skip it
    on_cpus(monkeypatch, 4)
    start = time.monotonic()
    out = map_in_order(slow, list(range(300)), 1)
    assert [y for y, _ in out] == [x * x for x in range(300)]
    assert len({pid for _, pid in out}) > 1
    assert time.monotonic() - start < 60


def test_one_worker_or_one_chunk_runs_in_process(monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    on_cpus(monkeypatch, 1)
    assert map_in_order(str, [1, 2], 1) == ["1", "2"]
    on_cpus(monkeypatch, 2)
    assert map_in_order(str, [1, 2], 2) == ["1", "2"]
    assert map_in_order(str, [], 1) == []


def test_an_error_in_a_child_keeps_its_type_and_message(affinity, monkeypatch):
    on_cpus(monkeypatch, 2)

    def failing_in_child(x):
        if os.getpid() != PARENT:
            raise HypothesisError(f"item {x}")
        time.sleep(0.02)
        return x

    with pytest.raises(HypothesisError, match=r"^item \d+$"):
        map_in_order(failing_in_child, list(range(10)), 1)


def test_the_first_failed_item_is_raised(affinity, monkeypatch):
    def failing(x):
        if x in (3, 7):
            raise ValueError(f"item {x}")
        return x

    for cpus in (1, 2, 3):
        on_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match="^item 3$"):
            map_in_order(failing, list(range(10)), 1)


def test_an_error_that_takes_no_message_is_named(affinity, monkeypatch):
    on_cpus(monkeypatch, 2)

    def failing_in_child(x):
        if os.getpid() != PARENT:
            raise CycleParseError("bad cycle", 4)
        time.sleep(0.02)
        return x

    with pytest.raises(ChildProcessError, match="CycleParseError"):
        map_in_order(failing_in_child, list(range(10)), 1)


def test_a_child_that_dies_is_reported(affinity, monkeypatch):
    on_cpus(monkeypatch, 2)

    def dying_in_child(x):
        if os.getpid() != PARENT:
            os._exit(3)
        time.sleep(0.02)
        return x

    with pytest.raises(ChildProcessError, match="status 3"):
        map_in_order(dying_in_child, list(range(10)), 1)


def test_an_interrupt_in_the_caller_kills_the_children(affinity, monkeypatch):
    on_cpus(monkeypatch, 3)

    def interrupted_in_parent(x):
        if os.getpid() == PARENT:
            raise KeyboardInterrupt
        time.sleep(10)
        return x

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_in_order(interrupted_in_parent, list(range(10)), 1)
    assert time.monotonic() - start < 5


def count_forks(monkeypatch):
    """Count the processes this process forks from now on."""
    fork = os.fork
    pids = []

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


# the processes each run forks on 1 and on 2 CPUs: a refute map of one
# chunk (at most 50 samples) and the census at q <= 5 run in process;
# census(7) forks for route B, and a refute map of several chunks forks
# one child on 2 CPUs
FORKS = {
    (refute, (3, 5, 0, 1)): (0, 0),
    (refute, (3, 5, 5, 1)): (0, 0),
    (refute, (3, 5, 50, 1)): (0, 0),
    (refute, (3, 5, 200, 1)): (0, 1),
    (refute, (3, 5, 2000, 1)): (0, 1),
    (refute, (5, 7, 300, 1)): (0, 2),
    (census, (5,)): (0, 0),
    (census, (7,)): (0, 1),
}


@pytest.mark.parametrize("run, args", FORKS,
                         ids=[f"{run.__name__}{args}".replace(",)", ")") for run, args in FORKS])
def test_fork_counts_are_pinned(monkeypatch, run, args):
    for cpus, forks in zip((1, 2), FORKS[run, args]):
        on_cpus(monkeypatch, cpus)
        pids = count_forks(monkeypatch)
        run(*args)
        monkeypatch.undo()
        assert len(pids) == forks, (cpus, len(pids))
    assert_no_child_left()


def test_without_fork_every_map_runs_in_process(monkeypatch):
    on_cpus(monkeypatch, 1)
    expected = refute(3, 5, 200, 1).to_json_dict(), census_report(7)
    monkeypatch.undo()
    affinity = os.sched_getaffinity(0)
    # two CPUs to run on, but no os.fork to start a worker with
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert workers_module._cpus() == [0]
    assert (refute(3, 5, 200, 1).to_json_dict(), census_report(7)) == expected
    monkeypatch.undo()
    assert os.sched_getaffinity(0) == affinity
