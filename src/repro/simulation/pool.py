"""The warm worker pool.

``run_batches``/``run_trials`` used to fork a fresh
``ProcessPoolExecutor`` per sweep, so every experiment invocation paid
interpreter startup and module import for each worker.  This module
keeps one executor alive and hands it back on the next call,
amortizing that cost across every study, experiment, and benchmark in
the process.  The pool is sized to the largest worker count requested
so far (growing recreates it); calls requesting fewer workers reuse
the big pool but cap their in-flight submissions with a sliding
window, so concurrency never exceeds the request and the process
never accumulates one resident pool per distinct worker count.  The
pool is shut down at interpreter exit.

Callers with work in flight hold a *lease* on their executor
(:func:`acquire_lease`/:func:`release_lease` or the
:func:`executor_lease` context manager).  Growing the pool while
leases are outstanding retires the old executor gracefully — it stops
accepting new work but finishes what leaseholders already submitted —
instead of cancelling their futures out from under them.

Determinism is unaffected: work units carry their own seeds, so *which*
pool (or how warm it is) never changes results.  There is one pool
mode: every process-parallel call runs on the warm pool.
"""

from __future__ import annotations

import atexit
import contextlib
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set

__all__ = [
    "get_executor",
    "discard_executor",
    "shutdown_pools",
    "submit_batches",
    "acquire_lease",
    "release_lease",
    "executor_lease",
    "active_leases",
]

_EXECUTOR: Optional[ProcessPoolExecutor] = None
_EXECUTOR_SIZE = 0
_LEASES: Dict[int, int] = {}  # id(executor) -> outstanding lease count


def acquire_lease(executor: Executor) -> None:
    """Mark *executor* as having caller work in flight.

    While any lease is outstanding, :func:`get_executor` growth retires
    the executor without cancelling its futures.
    """
    _LEASES[id(executor)] = _LEASES.get(id(executor), 0) + 1


def release_lease(executor: Executor) -> None:
    """Release one lease taken by :func:`acquire_lease`."""
    key = id(executor)
    count = _LEASES.get(key, 0)
    if count <= 1:
        _LEASES.pop(key, None)
    else:
        _LEASES[key] = count - 1


def active_leases(executor: Executor) -> int:
    """Outstanding lease count for *executor* (0 when unleased)."""
    return _LEASES.get(id(executor), 0)


@contextlib.contextmanager
def executor_lease(executor: Executor) -> Iterator[Executor]:
    """Hold a lease on *executor* for the duration of the block."""
    acquire_lease(executor)
    try:
        yield executor
    finally:
        release_lease(executor)


def get_executor(workers: int) -> ProcessPoolExecutor:
    """Return the warm executor, growing it if *workers* exceeds its size.

    Growth normally cancels the old executor's queue outright, but when
    a caller holds a lease (work legitimately in flight) the old
    executor is *retired* instead: no new submissions land on it, its
    running and queued futures complete normally, and its processes
    exit once the last one drains.
    """
    global _EXECUTOR, _EXECUTOR_SIZE
    if _EXECUTOR is None or _EXECUTOR_SIZE < workers:
        if _EXECUTOR is not None:
            if active_leases(_EXECUTOR):
                _EXECUTOR.shutdown(wait=False)
            else:
                _EXECUTOR.shutdown(wait=False, cancel_futures=True)
        _EXECUTOR = ProcessPoolExecutor(max_workers=workers)
        _EXECUTOR_SIZE = workers
    return _EXECUTOR


def discard_executor(executor: Optional[Executor] = None) -> None:
    """Shut down *executor*, by default the warm one (e.g. once broken).

    The warm pool is dropped only when *executor* still is it, so a
    caller recovering a pool that growth already retired never cancels
    its successor's work; the next :func:`get_executor` builds afresh.
    """
    global _EXECUTOR, _EXECUTOR_SIZE
    if executor is None or executor is _EXECUTOR:
        executor, _EXECUTOR, _EXECUTOR_SIZE = _EXECUTOR, None, 0
    if executor is not None:
        executor.shutdown(wait=False, cancel_futures=True)
        _LEASES.pop(id(executor), None)


def shutdown_pools() -> None:
    """Shut down the warm pool (registered via ``atexit``)."""
    discard_executor()


atexit.register(shutdown_pools)


def _windowed(
    pool: ProcessPoolExecutor, fn: Callable, batches: Sequence, workers: int
) -> List:
    """Submit with at most *workers* futures in flight; results in order.

    The window waits with ``FIRST_COMPLETED``, so a slow batch never
    gates the submission of new work behind it (the old implementation
    blocked on the *oldest* pending future — head-of-line blocking that
    idled workers whenever early batches ran long).  Completion order
    is decoupled from result order: results are assigned by submission
    index, so the returned list is identical for any completion order.
    On failure, every not-yet-started future is cancelled before the
    error propagates — a raising batch must not leak queued work into
    the warm pool for the next caller to trip over.
    """
    results: List = [None] * len(batches)
    index_of: Dict[Future, int] = {}
    pending: Set[Future] = set()

    def collect(done: Set[Future]) -> None:
        for future in done:
            results[index_of.pop(future)] = future.result()

    try:
        for index, batch in enumerate(batches):
            future = pool.submit(fn, batch)
            index_of[future] = index
            pending.add(future)
            if len(pending) >= workers:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                collect(done)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            collect(done)
    except BaseException:
        for future in pending:
            future.cancel()
        raise
    return results


def submit_batches(fn: Callable, batches: Sequence, workers: int) -> List:
    """Run ``fn(batch)`` for every batch on *workers* processes, in order.

    Runs on the warm pool through :func:`_windowed`.  If the pool turns
    out to be broken (a worker died), it is discarded and the whole
    batch list is retried once on a fresh pool — work units are
    idempotent by the engine's determinism contract, so the retry is
    safe.
    """
    for attempt in (0, 1):
        pool = get_executor(workers)
        try:
            with executor_lease(pool):
                return _windowed(pool, fn, batches, workers)
        except BrokenProcessPool:
            discard_executor(pool)
            if attempt:
                raise
    raise AssertionError("unreachable")  # pragma: no cover
