"""The fork-and-pipe worker map: results in item order from every worker,
each chunk run exactly once, errors raised as the builtin map would raise
them, no child left behind and the caller's CPU affinity restored."""

import os
import time

import pytest

from permwit.errors import CycleParseError, HypothesisError
from permwit.workers import map_in_order

PARENT = os.getpid()


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


@pytest.mark.parametrize("processes, chunksize", [(2, 1), (2, 3), (3, 2)])
def test_results_come_back_in_item_order(affinity, processes, chunksize):
    out = map_in_order(processes, slow, list(range(20)), chunksize)
    assert [y for y, _ in out] == [x * x for x in range(20)]
    pids = {pid for _, pid in out}
    assert PARENT in pids and len(pids) > 1


def test_more_workers_than_cpus_run_each_item_once(affinity):
    # a lost update of the shared counter would run a chunk twice or skip it
    start = time.monotonic()
    out = map_in_order(4, slow, list(range(300)), 1)
    assert [y for y, _ in out] == [x * x for x in range(300)]
    assert len({pid for _, pid in out}) > 1
    assert time.monotonic() - start < 60


def test_one_worker_or_one_chunk_runs_in_process(monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    assert map_in_order(0, str, [1, 2], 1) == ["1", "2"]
    assert map_in_order(1, str, [1, 2], 1) == ["1", "2"]
    assert map_in_order(2, str, [1, 2], 2) == ["1", "2"]
    assert map_in_order(2, str, [], 1) == []


def test_an_error_in_a_child_keeps_its_type_and_message(affinity):
    def failing_in_child(x):
        if os.getpid() != PARENT:
            raise HypothesisError(f"item {x}")
        time.sleep(0.02)
        return x

    with pytest.raises(HypothesisError, match=r"^item \d+$"):
        map_in_order(2, failing_in_child, list(range(10)), 1)


def test_the_first_failed_item_is_raised(affinity):
    def failing(x):
        if x in (3, 7):
            raise ValueError(f"item {x}")
        return x

    for processes in (0, 2, 3):
        with pytest.raises(ValueError, match="^item 3$"):
            map_in_order(processes, failing, list(range(10)), 1)


def test_an_error_that_takes_no_message_is_named(affinity):
    def failing_in_child(x):
        if os.getpid() != PARENT:
            raise CycleParseError("bad cycle", 4)
        time.sleep(0.02)
        return x

    with pytest.raises(ChildProcessError, match="CycleParseError"):
        map_in_order(2, failing_in_child, list(range(10)), 1)


def test_a_child_that_dies_is_reported(affinity):
    def dying_in_child(x):
        if os.getpid() != PARENT:
            os._exit(3)
        time.sleep(0.02)
        return x

    with pytest.raises(ChildProcessError, match="status 3"):
        map_in_order(2, dying_in_child, list(range(10)), 1)


def test_an_interrupt_in_the_caller_kills_the_children(affinity):
    def interrupted_in_parent(x):
        if os.getpid() == PARENT:
            raise KeyboardInterrupt
        time.sleep(10)
        return x

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_in_order(3, interrupted_in_parent, list(range(10)), 1)
    assert time.monotonic() - start < 5
