"""An order-keeping map that spreads independent items over the CPUs.

``map_ordered(fn, items)`` deals the items round-robin over one process
per CPU this process may run on: the calling process takes ``items[0::n]``
and each ``os.fork`` child ``items[i::n]``. The function and the items
reach the children through the fork; only the results come back, pickled
over a pipe. Every item is computed by the same code on the same inputs
as in a plain loop, so with single-threaded BLAS the results are bitwise
the loop's whatever the number of workers. With one CPU it is the loop.

The workers are forked rather than spawned: a spawned worker would pay a
fresh import of numpy and winmt and need the model and its inputs
pickled, where a fork shares them. winmt starts no threads of its own,
and OpenBLAS, when it runs threads, shuts them down before a fork.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkerError(RuntimeError):
    """A worker process ended without sending its results."""


def available_cpus() -> int:
    """The number of CPUs this process may run on; 1 without ``os.fork`` or
    ``os.sched_getaffinity``."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run(fn: Callable[[T], R], shard: Sequence[T]) -> tuple[list[R], Exception | None]:
    """The results of ``shard`` in order, up to its first failing item, and
    that item's exception (None when every item succeeds)."""
    results = []
    for item in shard:
        try:
            results.append(fn(item))
        except Exception as exc:
            return results, exc
    return results, None


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else a RuntimeError with its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker(fn: Callable[[T], R], shard: Sequence[T], read_fd: int, write_fd: int) -> None:
    """In a forked child: run ``shard``, send the outcome over ``write_fd`` and
    leave by ``os._exit``, so no inherited buffer is flushed, no atexit handler
    runs and no code of the caller runs on."""
    status = 1
    try:
        os.close(read_fd)
        results, exc = _run(fn, shard)
        try:
            data = pickle.dumps((results, None if exc is None else _portable(exc)),
                                pickle.HIGHEST_PROTOCOL)
        except Exception as err:  # an unpicklable result fails the shard's first item
            data = pickle.dumps(([], _portable(err)), pickle.HIGHEST_PROTOCOL)
        view = memoryview(data)
        while view:
            view = view[os.write(write_fd, view):]
        status = 0
    finally:
        os._exit(status)


def _ended(status: int) -> str:
    """How a child with wait status ``status`` ended."""
    code = os.waitstatus_to_exitcode(status)
    return f"killed by signal {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"


def map_ordered(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``[fn(item) for item in items]``, computed on up to ``available_cpus()``
    processes.

    An exception in any worker is raised again here with its type and
    message; when several items fail, it is the first failing item's, as
    in the loop. A worker that dies without a result raises ``WorkerError``
    with its exit status. Every child is reaped before this returns or
    raises; when this process fails itself, the children are killed first.
    """
    n = min(len(items), available_cpus())
    if n <= 1:
        return [fn(item) for item in items]
    workers: list[list] = []  # [pid, read fd or None once read]
    shards: list[tuple[list[R], Exception | None]] = []
    delivered = False
    try:
        for i in range(1, n):
            read_fd, write_fd = os.pipe()
            workers.append([None, read_fd])
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(fn, items[i::n], read_fd, write_fd)
                workers[-1][0] = pid
            finally:
                os.close(write_fd)
        shards.append(_run(fn, items[0::n]))
        for worker in workers:
            with open(worker[1], "rb") as fh:
                worker[1] = None
                try:
                    shards.append(pickle.load(fh))
                except Exception as exc:
                    status = os.waitpid(worker[0], 0)[1]
                    worker[0] = None
                    raise WorkerError(f"worker process ended without its results "
                                      f"({_ended(status)})") from exc
        delivered = True
    finally:
        for pid, fd in workers:
            if fd is not None:
                os.close(fd)
            if pid is not None and not delivered:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        for pid, _ in workers:
            if pid is not None:
                os.waitpid(pid, 0)
    # shard s holds items s, s + n, ...; the loop would stop at the first failure
    failures = [(s + n * len(results), exc) for s, (results, exc) in enumerate(shards)
                if exc is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [shards[i % n][0][i // n] for i in range(len(items))]
