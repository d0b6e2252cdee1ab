"""One fork-and-pipe map, by which `census` and `refute` spread their work
over the CPUs this process may run on.

`map_in_order(processes, func, items, chunksize)` returns func of each
item, in item order.  The items are cut into chunks of `chunksize`.  The
caller is worker 0 and forks min(processes, chunks) - 1 more; with at most
one worker the map is the builtin one, in process.  Each worker runs on
its own CPU, and the caller's own CPU affinity is restored when the map
returns or raises.

- *Dealing.*  Workers claim chunk indices from one shared counter, which
  travels through a pipe as a 4-byte token: a worker reads it, so that
  the others wait, and writes back the next index.  Claims are made in
  increasing order, so costly items cannot pile up on one worker the way
  a fixed deal would let them.
- *Inputs and results.*  A child is a fork, so it reads `func` and the
  items from its copy of the caller's memory, and nothing is pickled: any
  callable will do.  It sends its results back through its own pipe,
  encoded with `marshal`, so a result must be built of the types marshal
  writes (None, bool, int, str, bytes, and tuples, lists and dicts of
  them).
- *Failures.*  A worker whose func raises claims no more chunks and stops
  the others from claiming.  Once every child has been reaped, the map
  raises the error of the first chunk in item order, as the builtin map
  would; an error from a child keeps its type and message.  No child
  outlives the call: on an interrupt in the caller the children are
  killed and reaped.
- *Output.*  The standard streams are flushed before each fork, and a
  child leaves with `os._exit`, so nothing written before the map is
  written twice.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (index of the failed chunk, the exception)
_Failure = Tuple[int, BaseException]


def _cpus() -> List[int]:
    """The CPUs this process may run on."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return list(range(os.cpu_count() or 1))


def worker_processes(items: int) -> int:
    """The number of processes, this one included, that `map_in_order`
    may spread `items` items over: one per CPU this process may run on, or
    none when there is no item, one CPU or no fork, and the work then runs
    in process."""
    if items == 0 or not hasattr(os, "fork"):
        return 0
    cpus = len(_cpus())
    return cpus if cpus > 1 else 0


def _pin(cpu: int) -> None:
    """Keep this process on `cpu`.  A forked child starts on its parent's
    CPU, and the kernel may leave it there for longer than a map lasts, so
    that the workers take turns on one CPU."""
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # no affinity here, or a CPU not ours
        pass


def _claim(token: Tuple[int, int], stop: Optional[int] = None) -> int:
    """Take the counter from the token pipe and put back the next index, or
    `stop` to end all claims; return the index taken."""
    index = int.from_bytes(os.read(token[0], 4), "little")
    os.write(token[1], (index + 1 if stop is None else stop).to_bytes(4, "little"))
    return index


def _work(func: Callable, items: Sequence, chunksize: int, chunks: int,
          token: Tuple[int, int], results: Dict[int, list]) -> Optional[_Failure]:
    """Claim chunks and put func of each item of a chunk into `results`
    under the chunk's index, until no chunk is left; on an error, stop
    every worker's claims and return the failed chunk and the error."""
    while True:
        index = _claim(token)
        if index >= chunks:
            return None
        start = index * chunksize
        try:
            results[index] = [func(x) for x in items[start:start + chunksize]]
        except Exception as exc:
            _claim(token, stop=chunks)
            return index, exc


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_all(fd: int) -> bytes:
    parts = []
    while True:
        part = os.read(fd, 1 << 16)
        if not part:
            return b"".join(parts)
        parts.append(part)


def _child(func: Callable, items: Sequence, chunksize: int, chunks: int,
           token: Tuple[int, int], cpu: int, out: int) -> None:
    """The body of a forked worker: work, send (results, error) through
    `out`, and leave without running any of the caller's cleanup."""
    status = 1
    try:
        _pin(cpu)
        results: Dict[int, list] = {}
        failure = _work(func, items, chunksize, chunks, token, results)
        error = None
        if failure is not None:
            index, exc = failure
            error = (index, type(exc).__module__, type(exc).__qualname__, str(exc))
        _write_all(out, marshal.dumps((results, error)))
        status = 0
    except BaseException:
        # never unwind into the caller's code: report, and leave with status 1
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def _rebuild(module: str, qualname: str, message: str) -> BaseException:
    """The exception a child raised, from its class's name and its message;
    a class that cannot be found or built from a message gives a
    ChildProcessError that names it."""
    cls = sys.modules.get(module)
    for name in qualname.split("."):
        cls = getattr(cls, name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except TypeError:  # its constructor takes more than a message
            pass
    return ChildProcessError(f"{module}.{qualname}: {message}")


def _reap(pid: int) -> int:
    """Wait for child `pid` and return its exit code."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def map_in_order(processes: int, func: Callable, items: Sequence, chunksize: int) -> list:
    """[func(x) for x in items], spread over min(processes, chunks) workers
    (this process and forked children), each on its own CPU; see the
    module docstring."""
    chunks = -(-len(items) // chunksize)
    workers = min(processes, chunks)
    if workers <= 1:
        return [func(x) for x in items]
    cpus = _cpus()
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    token = os.pipe()
    children: List[Tuple[int, int]] = []  # (pid, read end of its pipe), not yet reaped
    try:
        os.write(token[1], (0).to_bytes(4, "little"))
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            sys.stdout.flush()
            sys.stderr.flush()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _child(func, items, chunksize, chunks, token, cpus[k % len(cpus)], write_end)
            os.close(write_end)
            children.append((pid, read_end))
        _pin(cpus[0])
        results: Dict[int, list] = {}
        failures: List[_Failure] = []
        failure = _work(func, items, chunksize, chunks, token, results)
        if failure is not None:
            failures.append(failure)
        sent = []
        while children:
            pid, read_end = children[0]
            data = _read_all(read_end)
            code = _reap(pid)
            children.pop(0)
            os.close(read_end)
            sent.append((pid, data, code))
    finally:
        if children:  # left early: an interrupt, or a failed fork
            import signal
            for pid, read_end in children:
                os.close(read_end)
                os.kill(pid, signal.SIGKILL)
                _reap(pid)
        os.close(token[0])
        os.close(token[1])
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
    for pid, data, code in sent:
        if code != 0 or not data:
            raise ChildProcessError(f"worker process {pid} exited with status {code}")
        child_results, error = marshal.loads(data)
        results.update(child_results)
        if error is not None:
            failures.append((error[0], _rebuild(*error[1:])))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [y for index in range(chunks) for y in results[index]]
