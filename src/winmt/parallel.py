"""Work spread over the CPUs by forked workers, all of one kind.

``serve(fn)`` forks one worker and returns its ``Server``. The worker runs
``fn(*args)`` for each request ``send(*args)`` passes it, one at a time,
and sends each outcome back pickled over a pipe; the caller waits for it
with ``result()`` and stops and reaps the worker with ``close()``.
Requests go to the worker pickled over a second pipe. The function, and
whatever it holds, reaches the worker through the fork and is never
pickled. Large arrays that change between requests are better passed
through ``shared_arrays``, memory that the caller and a worker forked
after it both write.

``map_ordered(fn, items)`` deals the items round-robin over one process
per CPU this process may run on: the calling process takes ``items[0::n]``
and a served worker holding ``items[i::n]`` gets one empty request for
them. Every item is computed by the same code on the same inputs as in a
plain loop, so with single-threaded BLAS the results are bitwise the
loop's whatever the number of workers.

With one CPU, or inside a worker, ``serve`` forks nothing and returns
None, and the map is the loop, so a worker never forks workers of its own
that would compete with its parent for the CPUs.

The workers are forked rather than spawned: a spawned worker would pay a
fresh import of numpy and winmt and need the model and its inputs
pickled, where a fork shares them. winmt starts no threads of its own,
and OpenBLAS, when it runs threads, shuts them down before a fork.
"""

from __future__ import annotations

import functools
import mmap
import os
import pickle
import signal
from typing import Callable, Generic, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

_in_worker = False  # set in each forked worker, whose maps run in-process and which serves nothing


class WorkerError(RuntimeError):
    """A worker process ended without sending its results."""


def available_cpus() -> int:
    """The number of CPUs this process may run on; 1 without ``os.fork`` or
    ``os.sched_getaffinity``."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _workers() -> int:
    """How many processes may compute at once: 1 inside a worker."""
    return 1 if _in_worker else available_cpus()


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


def _run_in_worker(fn: Callable[[T], R],
                   shard: Sequence[T]) -> tuple[list[R], Exception | None]:
    """``_run`` with the exception made fit to send back."""
    results, exc = _run(fn, shard)
    return results, None if exc is None else _portable(exc)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _send_outcome(fn: Callable[[], R], write_fd: int) -> None:
    """Call ``fn`` and send its outcome, (value, None) or (None, exception),
    pickled over ``write_fd``."""
    try:
        outcome = fn(), None
    except Exception as exc:
        outcome = None, _portable(exc)
    try:
        data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
    except Exception as err:  # an unpicklable result
        data = pickle.dumps((None, _portable(err)), pickle.HIGHEST_PROTOCOL)
    _write_all(write_fd, data)


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
    n = min(len(items), _workers())
    if n <= 1:
        return [fn(item) for item in items]
    workers: list[Server] = []
    try:
        for i in range(1, n):
            workers.append(serve(functools.partial(_run_in_worker, fn, items[i::n])))
            workers[-1].send()
        shards = [_run(fn, items[0::n])]
        for worker in workers:
            try:
                shards.append(worker.result())
            except WorkerError:
                raise
            except Exception as exc:  # an unpicklable result fails the shard's first item
                shards.append(([], exc))
    finally:
        for worker in workers:
            worker.close()
    # shard s holds items s, s + n, ...; the loop would stop at the first failure
    failures = [(s + n * len(results), exc) for s, (results, exc) in enumerate(shards)
                if exc is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [shards[i % n][0][i // n] for i in range(len(items))]


def _serve(fn: Callable[..., R], requests_fd: int, replies_fd: int,
           unused: tuple[int, int]) -> None:
    """In a forked child: send the outcome of ``fn(*args)`` over
    ``replies_fd`` for each request ``args`` read from ``requests_fd``, until
    the stop message or the end of the requests, and leave by ``os._exit``,
    so no inherited buffer is flushed, no atexit handler runs and no code of
    the caller runs on. ``unused`` are the caller's ends of the two pipes."""
    global _in_worker
    _in_worker = True
    status = 1
    try:
        for fd in unused:
            os.close(fd)
        with open(requests_fd, "rb") as requests:
            while True:
                try:
                    message = pickle.load(requests)
                except EOFError:  # no process holds the write end any more
                    break
                if message is None:  # the stop message
                    break
                _send_outcome(functools.partial(fn, *message), replies_fd)
        status = 0
    finally:
        os._exit(status)


class Server(Generic[R]):
    """A forked worker that runs one function on each request ``send``
    passes it, one request at a time. ``result`` waits for the outcome of
    the request last sent; ``close`` stops and reaps the worker. Call
    ``close`` before dropping the object."""

    def __init__(self, pid: int, requests_fd: int, replies_fd: int):
        self._pid: int | None = pid
        self._requests: int | None = requests_fd
        self._replies = open(replies_fd, "rb")
        self._busy = False  # a request is sent and its outcome not yet read

    def send(self, *args) -> None:
        """Pass ``args`` to the worker, which starts on the function of them
        at once; a worker that ``result`` found ended raises ``WorkerError``."""
        data = pickle.dumps(args, pickle.HIGHEST_PROTOCOL)
        if self._pid is None:
            raise WorkerError("worker process has ended")
        self._busy = True
        try:
            _write_all(self._requests, data)
        except BrokenPipeError:  # the worker has ended; ``result`` says how
            pass

    def result(self) -> R:
        """The return value of the function on the request last sent, once
        the worker has sent it.

        An exception of the function is raised again here with its type
        and message, and the worker goes on serving. A worker that ends
        without sending the outcome is reaped and raises ``WorkerError``
        with its exit status.
        """
        try:
            value, exc = pickle.load(self._replies)
        except Exception as err:
            status = os.waitpid(self._pid, 0)[1]
            self._pid = None
            raise WorkerError(f"worker process ended without its results "
                              f"({_ended(status)})") from err
        self._busy = False
        if exc is not None:
            raise exc
        return value

    def close(self) -> None:
        """Stop the worker, by the stop message when it is idle and by
        SIGKILL while it works on a request, reap it and close its pipes;
        nothing once that is done."""
        if self._requests is not None:
            if self._pid is not None:
                if self._busy:
                    try:
                        os.kill(self._pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                else:
                    try:
                        _write_all(self._requests, pickle.dumps(None))
                    except BrokenPipeError:  # it has ended already
                        pass
            os.close(self._requests)
            self._requests = None
        self._replies.close()
        if self._pid is not None:
            os.waitpid(self._pid, 0)
            self._pid = None


def serve(fn: Callable[..., R]) -> Server[R] | None:
    """Fork a worker that runs ``fn`` on each request its ``Server`` sends;
    None, with nothing forked, on one CPU or inside a worker."""
    if _workers() <= 1:
        return None
    requests_r, requests_w = os.pipe()
    replies_r, replies_w = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _serve(fn, requests_r, replies_w, unused=(requests_w, replies_r))
    except BaseException:
        os.close(requests_w)
        os.close(replies_r)
        raise
    finally:
        os.close(requests_r)
        os.close(replies_w)
    return Server(pid, requests_w, replies_r)


def shared_arrays(like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Zeroed arrays of the shapes and dtypes of ``like``, by the same names,
    in one anonymous shared mapping: a worker forked after this call reads
    and writes the memory that the caller does."""
    offsets, end = [], 0
    for a in like.values():
        end = -(-end // 64) * 64  # each array starts on a cache line
        offsets.append(end)
        end += a.nbytes
    buf = mmap.mmap(-1, max(end, 1))
    return {name: np.frombuffer(buf, a.dtype, a.size, offset).reshape(a.shape)
            for (name, a), offset in zip(like.items(), offsets)}
