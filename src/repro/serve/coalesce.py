"""Cross-request query coalescing: many point queries, one traversal.

The traversal engines are query-vectorized, so *1 request x 1000
queries* pays the per-execute fixed cost (option resolution, cache
probes, binding, dispatch) once where *1000 requests x 1 query* pay it
a thousand times.  A stacked traversal is not free: against a
10 000-point reference set (d = 9, k = 5; one core of a 2-vCPU host,
raw ``run()`` time) one row takes about 0.95 ms and 32 rows 2.3 ms.
The 32 rows stay that cheap because the batched engine's row regime
keeps pruning per row (about 7 000 distances; a query-leaf traversal
computed all 320 000 and took 5.4 ms).  The :class:`Coalescer` makes
the second shape cheap by accumulating in-flight point queries per
**batch key** into one stacked query array, running a single execution
on the existing compile/tree caches, and scattering result slices back
to each awaiting client future.

Batch key
---------
``(handle, k-override, frozen per-request options)`` — queries may only
share a traversal when they would compile to the *same* program over the
same reference set.  Interleaved mixed-``k`` k-NN requests therefore
never share a batch; neither do requests that override execute()
options.

Flush triggers
--------------
A pending batch flushes on the first of:

* **full** — it reached ``AdmissionConfig.batch_max`` queries;
* **idle handle** — the handle has spare execute capacity, so the batch
  flushes at the end of the current event-loop tick (same-tick submits
  still coalesce; a lone client never pays the linger as latency);
* **linger** — the timer armed when the batch opened under a busy
  handle fires after ``linger_us``;
* **capacity freed** — an execute finished and the oldest pending batch
  of that handle is kicked immediately (back-to-back pipelining: while
  a batch runs, the next one accumulates).

Coalescing rule
---------------
A row answered in a batch is held to the same row answered alone:
comparative, count and list outputs are bitwise equal; a float sum of an
exact program holds DESIGN.md §8's sum rule
(``tests/contract.py::assert_sum_close``); an approximate program holds
the τ / θ rule.  Stacking changes the query tree, but exact pruning
never changes *which* reference points reach a query row; comparative
values are re-evaluated in one difference form after the traversal,
counts are sums of small integers and lists are sorted per row.  A float
sum's block GEMM rounds a row by the shape of the block it runs in, so
its last bits may move with the batch.  Approximate programs see coarser
query boxes when batched and approximate other node pairs.
``tests/serve/test_coalesce.py`` holds the nine point-query problems,
the kd and octree kinds and both parallel executors to the rule; see
docs/serving.md.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .admission import ServeError, ServiceOverloaded

__all__ = ["BatchResult", "Coalescer", "ServeResult"]


@dataclass
class ServeResult:
    """One request's slice of a (possibly coalesced) execution.

    ``values`` / ``indices`` follow :class:`repro.backend.state.Output`
    semantics restricted to this request's query rows; exactly the
    arrays a per-request ``execute()`` would have produced.
    """

    values: Any = None
    indices: Any = None

    @property
    def rows(self) -> int:
        for arr in (self.values, self.indices):
            if arr is not None:
                return len(arr)
        return 0

    def to_jsonable(self) -> dict:
        """JSON-encodable payload for the TCP frontend."""
        out: dict = {}
        if self.values is not None:
            out["values"] = _jsonable(self.values)
        if self.indices is not None:
            out["indices"] = _jsonable(self.indices)
        return out


def _jsonable(arr):
    if isinstance(arr, list):
        return [np.asarray(a).tolist() for a in arr]
    return np.asarray(arr).tolist()


class BatchResult:
    """Sliceable view over one batched execution's Output."""

    __slots__ = ("output",)

    def __init__(self, output):
        self.output = output

    def slice(self, lo: int, hi: int) -> ServeResult:
        out = self.output
        values = out.values
        if values is not None:
            values = values[lo:hi]
        indices = out.indices
        if indices is not None:
            indices = indices[lo:hi]
        return ServeResult(values=values, indices=indices)


@dataclass
class _Item:
    points: np.ndarray
    rows: int
    fut: asyncio.Future


@dataclass
class _Pending:
    """One open (not yet flushed) batch."""

    handle: Any               # service-side handle state (duck-typed)
    key: tuple
    meta: Any                 # opaque per-key execution metadata
    items: list[_Item] = field(default_factory=list)
    rows: int = 0
    timer: Any = None         # linger timer handle (has .cancel())


class Coalescer:
    """Accumulates point queries per batch key and runs them stacked.

    Single-threaded with respect to the event loop: ``submit`` and all
    flush paths run on the loop; only the blocking execution itself runs
    on the worker pool.  The ``handle`` objects passed to ``submit``
    must expose ``hid``, ``admission``, ``sem`` (an
    ``asyncio.Semaphore(max_concurrent)``), and the bookkeeping ints
    ``inflight`` / ``running``.
    """

    def __init__(
        self,
        *,
        execute: Callable[[Any, Any, np.ndarray], BatchResult],
        count: Callable[[dict], None],
        pool,
        loop: asyncio.AbstractEventLoop | None = None,
        schedule: Callable[[float, Callable], Any] | None = None,
    ):
        #: blocking ``(handle, meta, stacked_points) -> BatchResult``,
        #: run on the worker pool
        self._execute = execute
        self._count = count
        self._pool = pool
        self._loop = loop or asyncio.get_event_loop()
        #: ``(delay_s, callback) -> timer`` — injectable for fake-clock
        #: linger tests; the returned object needs only ``.cancel()``
        self._schedule = schedule or (
            lambda delay, cb: self._loop.call_later(delay, cb))
        self._pending: dict[tuple, _Pending] = {}
        self._tasks: set[asyncio.Task] = set()
        self._inflight_total = 0
        self._queue_peak = 0
        self._closed = False

    # -- introspection -----------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Admitted-but-uncompleted queries across all handles."""
        return self._inflight_total

    @property
    def queue_peak(self) -> int:
        return self._queue_peak

    def pending_batches(self) -> int:
        return len(self._pending)

    # -- admission + accumulation ------------------------------------------------
    def submit(self, handle, key: tuple, points: np.ndarray,
               meta=None) -> asyncio.Future:
        """Admit ``points`` under ``key`` and return the future of this
        request's :class:`ServeResult` slice.  Raises
        :class:`ServiceOverloaded` (after counting ``serve.shed``)
        instead of queueing past ``max_queue``."""
        if self._closed:
            raise ServeError("service is closed")
        adm = handle.admission
        rows = int(points.shape[0])
        if handle.inflight + rows > adm.max_queue:
            self._count({"serve.shed": 1, "serve.shed_queries": rows})
            raise ServiceOverloaded(handle.hid, handle.inflight, rows,
                                    adm.max_queue)
        handle.inflight += rows
        self._inflight_total += rows
        if self._inflight_total > self._queue_peak:
            # serve.queue_peak is kept equal to the high-water mark by
            # contributing only the increase (counters are additive).
            self._count(
                {"serve.queue_peak": self._inflight_total - self._queue_peak})
            self._queue_peak = self._inflight_total
        self._count({"serve.requests": 1, "serve.queries": rows})

        fut = self._loop.create_future()
        p = self._pending.get(key)
        opened = p is None
        if opened:
            p = _Pending(handle=handle, key=key, meta=meta)
            self._pending[key] = p
        p.items.append(_Item(points, rows, fut))
        p.rows += rows
        if p.rows >= adm.batch_max:
            self._flush(key, p)
        elif opened:
            if handle.running < adm.max_concurrent:
                # Idle handle: flush at the end of this tick so
                # same-tick submits coalesce at zero added latency.
                self._loop.call_soon(self._flush, key, p)
            else:
                p.timer = self._schedule(
                    adm.linger_us / 1e6,
                    functools.partial(self._flush, key, p))
        return fut

    # -- flushing ----------------------------------------------------------------
    def _flush(self, key: tuple, expect: _Pending | None = None) -> None:
        """Close the pending batch under ``key`` and start executing it.

        ``expect`` guards stale triggers: a linger timer or call_soon
        armed for a batch that already flushed (full) must not flush the
        *new* batch that reused its key.
        """
        p = self._pending.get(key)
        if p is None or (expect is not None and p is not expect):
            return
        del self._pending[key]
        if p.timer is not None:
            p.timer.cancel()
            p.timer = None
        p.handle.running += 1  # visible to same-tick submits
        task = self._loop.create_task(self._run(p))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _kick(self, handle) -> None:
        """Capacity freed on ``handle``: flush its oldest pending batch
        now instead of waiting out the linger (back-to-back pipelining)."""
        if self._closed or handle.running >= handle.admission.max_concurrent:
            return
        for key, p in self._pending.items():  # insertion order = oldest first
            if p.handle is handle:
                self._flush(key, p)
                return

    async def _run(self, p: _Pending) -> None:
        handle = p.handle
        try:
            async with handle.sem:
                items = [it for it in p.items if not it.fut.cancelled()]
                dropped = len(p.items) - len(items)
                if dropped:
                    self._count({"serve.cancelled": dropped})
                if not items:
                    return
                points = (items[0].points if len(items) == 1 else
                          np.concatenate([it.points for it in items], axis=0))
                nrows = int(points.shape[0])
                counts = {
                    "serve.batches": 1,
                    "serve.batch_queries": nrows,
                    f"serve.batch_size.{_bucket(nrows)}": 1,
                }
                if len(items) > 1:
                    # requests that actually shared their traversal
                    counts["serve.coalesced"] = len(items)
                self._count(counts)
                try:
                    result = await self._loop.run_in_executor(
                        self._pool, self._execute, handle, p.meta, points)
                except Exception as exc:
                    self._count({"serve.errors": 1})
                    for it in items:
                        if not it.fut.done():
                            it.fut.set_exception(exc)
                    return
                lo = 0
                for it in items:
                    hi = lo + it.rows
                    if it.fut.cancelled():
                        # Client went away mid-batch; its neighbours'
                        # slices are unaffected.
                        self._count({"serve.cancelled": 1})
                    elif not it.fut.done():
                        it.fut.set_result(result.slice(lo, hi))
                    lo = hi
        finally:
            handle.running -= 1
            handle.inflight -= p.rows
            self._inflight_total -= p.rows
            self._kick(handle)

    # -- lifecycle ---------------------------------------------------------------
    async def close(self) -> None:
        """Fail all pending batches and wait for running executes."""
        self._closed = True
        pending = list(self._pending.values())
        self._pending.clear()
        for p in pending:
            if p.timer is not None:
                p.timer.cancel()
            handle = p.handle
            handle.inflight -= p.rows
            self._inflight_total -= p.rows
            for it in p.items:
                if not it.fut.done():
                    it.fut.set_exception(ServeError("service is closed"))
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)


def _bucket(n: int) -> int:
    """Power-of-two histogram bucket (floor): 1, 2, 4, 8, ..."""
    return 1 << (max(1, int(n)).bit_length() - 1)
