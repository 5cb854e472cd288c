"""Thread- and process-pool task execution for the parallel traversal.

Two pool backends behind one abstraction:

* **thread** — NumPy kernels release the GIL, so leaf base cases from
  different tasks overlap on multicore hosts.  Tasks are closures
  prepared by the scheduler; each task owns a *disjoint query range*, so
  state updates never race (see :mod:`repro.parallel.scheduler`).
* **process** — the scalar stack engine and the batched engine's
  Python loop hold the GIL between kernel calls, so CPU-bound tasks
  serialize on threads.  :func:`run_process_tasks` runs *picklable task
  payloads* on worker processes that reattach the program's arrays from
  shared memory (:mod:`repro.parallel.shm`) and execute
  :func:`repro.parallel.worker.run_task`.

Pools are **persistent**: created on first use and reused across
``execute()`` calls (keyed by worker count), so a service answering
repeated queries pays process spawn and import cost once (and only a
process run imports ``multiprocessing``).  :func:`shutdown_pools` tears
them down (registered via ``atexit``).
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, Sequence

__all__ = [
    "default_workers", "run_tasks", "run_process_tasks", "shutdown_pools",
]


def default_workers() -> int:
    """Worker count: ``$REPRO_WORKERS`` override, else the cores *this
    process may run on*.

    The environment override pins the pool size where the affinity mask
    can differ run to run (the test suites set it to exercise multi-worker
    routing on any host).  Without it, ``os.sched_getaffinity`` respects
    cgroup CPU sets and ``taskset`` restrictions (container CI, shared
    batch hosts), where ``os.cpu_count()`` reports the whole machine and
    oversubscribes the pool.  Falls back to ``cpu_count()`` on platforms
    without affinity support (macOS, Windows).
    """
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# persistent pools
# ---------------------------------------------------------------------------

_pools: dict[tuple[str, int], object] = {}
_pools_lock = threading.Lock()


def _pool(kind: str, workers: int):
    key = (kind, workers)
    with _pools_lock:
        pool = _pools.get(key)
        if pool is None:
            if kind == "thread":
                pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="portal-task"
                )
            else:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                # fork where available: instant start, inherited imports
                methods = multiprocessing.get_all_start_methods()
                ctx = multiprocessing.get_context(
                    "fork" if "fork" in methods else methods[0])
                pool = ProcessPoolExecutor(max_workers=workers,
                                           mp_context=ctx)
            _pools[key] = pool
        return pool


def _discard_pool(kind: str, workers: int) -> None:
    with _pools_lock:
        pool = _pools.pop((kind, workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every persistent pool (test isolation / interpreter
    exit), cancelling queued tasks and waiting for the rest: no worker
    outlives the call.  The next ``run_*`` call recreates what it needs."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _drain(futures):
    """Settle submitted futures with serial exception semantics: the
    earliest-submitted failure wins, and queued tasks that have not
    started yet are cancelled rather than run to completion (tasks
    already executing finish — they cannot be interrupted)."""
    wait(futures, return_when=FIRST_EXCEPTION)
    if any(f.done() and not f.cancelled() and f.exception() is not None
           for f in futures):
        # Something failed: stop queued tasks, then let the tasks
        # already executing settle so the scan below sees every
        # failure — the *earliest-submitted* one must win, which is
        # not necessarily the one that finished first.
        for pending in futures:
            pending.cancel()
        wait(futures)
        for f in futures:
            if f.cancelled():
                continue
            exc = f.exception()
            if exc is not None:
                raise exc from None
    return [f.result() for f in futures]


def run_tasks(tasks: Sequence[Callable[[], object]], workers: int | None = None):
    """Run callable ``tasks`` on the persistent thread pool; returns
    their results in order.  Exceptions propagate with serial semantics
    (see :func:`_drain`)."""
    workers = workers or default_workers()
    if workers <= 1 or len(tasks) <= 1:
        return [t() for t in tasks]
    pool = _pool("thread", workers)
    return _drain([pool.submit(t) for t in tasks])


def run_process_tasks(
    fn: Callable[[object], object],
    payloads: Sequence[object],
    workers: int | None = None,
):
    """Run ``fn(payload)`` for each payload on the persistent process
    pool; returns results in submission order.

    ``fn`` and every payload must be picklable (the scheduler ships
    program *keys* and shared-memory manifests, never closures).  A
    broken pool — a worker killed by the OOM killer or a signal — is
    discarded so the next call starts from a fresh pool, then the error
    propagates.
    """
    workers = workers or default_workers()
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    from concurrent.futures.process import BrokenProcessPool

    pool = _pool("process", workers)
    try:
        return _drain([pool.submit(fn, p) for p in payloads])
    except BrokenProcessPool:
        _discard_pool("process", workers)
        raise
