"""The asyncio query-serving layer.

Clients :meth:`~PortalService.register` a Portal problem *once* — which
warms the reference-tree cache — and then submit point queries against
the returned handle.  Each query carries only the query points (plus an
optional ``k`` override for k-NN style problems); the service rebinds
the registered :class:`~repro.dsl.portal_expr.PortalExpr` to them per
batch.  What hits per batch: the code (the program's shape does not
change with its query points — one ``cache.compile.hit``) and the
reference trees.  What is built: a batch is a fresh query Storage, so
its query tree is new, both trees are bound to fresh state — and a
process executor publishes a shm block under the new program token.

Requests that share a batch key — ``(handle, k, frozen options)`` — are
coalesced by :class:`~repro.serve.coalesce.Coalescer` into one stacked
traversal; :class:`~repro.serve.admission.AdmissionConfig` bounds queue
depth, batch size, linger, and per-handle concurrency.

The blocking compiler/traversal work runs on a private thread pool via
``loop.run_in_executor``; the service itself is single-threaded on the
event loop.  Execution counters land in the service's own
:class:`~repro.observe.counters.Counters` registry (surfaced by
:meth:`PortalService.stats` and the frontend's ``stats`` endpoint).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..backend.cache import UncacheableParamError, freeze
from ..dsl.ops import OpCategory
from ..dsl.portal_expr import PortalExpr
from ..dsl.storage import Storage
from ..observe import Counters, collect
from .admission import AdmissionConfig, ServeError
from .coalesce import BatchResult, Coalescer, ServeResult

__all__ = ["PortalService", "ServeProgram"]


class ServeProgram:
    """A registered problem template: a validated :class:`PortalExpr`,
    re-instantiable (:meth:`PortalExpr.rebind`) around any query point
    set.

    The outer layer must be ``FORALL`` over the query dataset (the
    point-query shape: one output row per query point).  Every
    regenerated expression keeps the *same* reference :class:`Storage`
    objects — they carry the fingerprint memo and live-tree registry
    that make per-batch compiles hit the tree cache — and the same
    query-slot name, dimension and kernel objects, so every batch has
    one code key and hits the code cache.
    """

    def __init__(self, template: PortalExpr):
        template.validate()  # assigns Vars, resolves kernels, checks shape
        outer = template.layers[0]
        if outer.info.category is not OpCategory.ALL:
            raise ServeError(
                f"serving requires a FORALL outer layer over the query set; "
                f"got {outer.op.name}"
            )
        self.name = template.name
        self.dim = outer.storage.dim
        inner = template.layers[-1]
        #: whether the innermost reduction takes a per-request k override
        self.has_k = inner.info.requires_k or inner.k is not None
        # Our own layers, with a query slot no reference layer shares: a
        # monochromatic template still serves points *against* its
        # dataset, never against themselves.
        self._slot = Storage(outer.storage.data[:1],
                             name=f"{outer.storage.name}@serve")
        self.template = template.rebind({})
        self.template.layers[0].storage = self._slot

    def make_expr(self, points: np.ndarray, k: int | None = None) -> PortalExpr:
        """A fresh PortalExpr for this problem over ``points``: only the
        query Storage is new."""
        if k is not None and not self.has_k:
            raise ServeError(
                f"program {self.name!r} has no k parameter to override "
                f"(innermost op is {self.template.layers[-1].op.name})"
            )
        query = Storage(points, name=self._slot.name)
        return self.template.rebind({self._slot: query}, k=k)


@dataclass
class _Handle:
    """Per-registration state shared between service and coalescer."""

    hid: str
    program: ServeProgram
    options: dict
    admission: AdmissionConfig
    sem: asyncio.Semaphore
    inflight: int = 0     # admitted-but-uncompleted queries
    running: int = 0      # flushed batches (queued-on-sem or executing)
    served: int = 0       # completed queries (post-scatter)
    epoch: int = 0        # bumped by refresh(); not part of the batch key
    _seq: int = field(default=0, repr=False)


class PortalService:
    """Long-lived serving facade over the Portal compiler.

    Usage::

        service = PortalService()
        hid = await service.register(expr)           # warms caches
        res = await service.query(hid, [[0.1, 0.2, 0.3]], k=5)
        res.indices, res.values
        await service.close()

    ``schedule`` is the linger-timer factory forwarded to the
    :class:`Coalescer` — injectable for fake-clock tests.
    """

    def __init__(self, *, max_workers: int | None = None,
                 counters: Counters | None = None, schedule=None):
        self.counters = counters if counters is not None else Counters()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="portal-serve")
        self._schedule = schedule
        self._handles: dict[str, _Handle] = {}
        self._coalescer: Coalescer | None = None
        self._next_hid = 0
        self._closed = False

    # -- plumbing ----------------------------------------------------------------
    def _count(self, mapping: dict) -> None:
        self.counters.update(mapping)

    def _co(self) -> Coalescer:
        """The coalescer, created lazily on the running loop."""
        if self._coalescer is None:
            self._coalescer = Coalescer(
                execute=self._execute_batch,
                count=self._count,
                pool=self._pool,
                loop=asyncio.get_running_loop(),
                schedule=self._schedule,
            )
        return self._coalescer

    def _handle(self, hid: str) -> _Handle:
        try:
            return self._handles[hid]
        except KeyError:
            raise ServeError(f"unknown handle {hid!r}") from None

    def _check_open(self) -> None:
        if self._closed:
            raise ServeError("service is closed")

    # -- registration ------------------------------------------------------------
    async def register(self, expr: PortalExpr, *, options: dict | None = None,
                       admission: AdmissionConfig | dict | None = None,
                       name: str | None = None) -> str:
        """Register a problem and warm its caches; returns the handle id.

        ``options`` become the default ``execute()`` options for every
        query on this handle (tree kind, executor, shards, ...).
        """
        self._check_open()
        program = ServeProgram(expr)
        if isinstance(admission, dict):
            admission = AdmissionConfig.from_dict(admission)
        adm = admission or AdmissionConfig()
        if name is not None and name in self._handles:
            raise ServeError(f"handle {name!r} is already registered")
        hid = name
        if hid is None:
            hid = f"h{self._next_hid}"
            self._next_hid += 1
        handle = _Handle(
            hid=hid, program=program, options=dict(options or {}),
            admission=adm, sem=asyncio.Semaphore(adm.max_concurrent),
        )
        loop = asyncio.get_running_loop()
        # Warm off-loop: one probe execute builds (and caches) the
        # reference trees, so the first real query does not.
        await loop.run_in_executor(self._pool, self._warm, handle)
        self._check_open()
        self._handles[hid] = handle
        self._count({"serve.registered": 1})
        return hid

    def _warm(self, handle: _Handle) -> None:
        from ..policy import warm_policy

        reference = handle.program.template.layers[-1].storage.data
        expr = handle.program.make_expr(reference[:1])

        def batch_layers():
            cap = max(1, min(handle.admission.batch_max, len(reference)))
            step = -(-len(reference) // cap)
            return handle.program.make_expr(reference[::step][:cap]).layers

        with collect(self.counters):
            # The one-row probe is an unrepresentative shape: never let
            # it trigger (or key) a policy search.  The policy is warmed
            # separately at the admission batch size, so the first real
            # batch starts from a warm store ('search' pays the budgeted
            # search here, at register time, not on traffic).
            expr.execute(**dict(handle.options, policy="static"))
            warm_policy(batch_layers, handle.options,
                        nq=handle.admission.batch_max)

    async def unregister(self, hid: str) -> None:
        """Drop a handle; queries already admitted still complete."""
        self._handle(hid)  # raise on unknown
        del self._handles[hid]
        self._count({"serve.unregistered": 1})

    # -- queries -----------------------------------------------------------------
    async def query(self, hid: str, points, *, k: int | None = None,
                    options: dict | None = None) -> ServeResult:
        """Run the registered problem over ``points`` (one or more query
        rows); coalesces with concurrent compatible requests.

        Raises :class:`~repro.serve.admission.ServiceOverloaded` when
        the handle's queue is full, :class:`ServeError` on a bad handle
        or malformed points.
        """
        self._check_open()
        handle = self._handle(hid)
        pts = np.ascontiguousarray(
            np.atleast_2d(np.asarray(points, dtype=np.float64)))
        if pts.ndim != 2 or pts.shape[1] != handle.program.dim:
            raise ServeError(
                f"query points must have shape (n, {handle.program.dim}); "
                f"got {pts.shape}"
            )
        merged = handle.options if not options else {**handle.options, **options}
        try:
            opt_key = freeze(options) if options else None
        except UncacheableParamError:
            # Unhashable per-request options: still served, never shared.
            handle._seq += 1
            opt_key = ("_unshared", handle._seq)
        key = (hid, handle.epoch, None if k is None else int(k), opt_key)
        fut = self._co().submit(handle, key, pts, meta=(k, merged))
        result = await fut
        handle.served += pts.shape[0]
        return result

    def _execute_batch(self, handle: _Handle, meta, points) -> BatchResult:
        """Blocking: compile + run one stacked batch (worker thread)."""
        k, options = meta
        expr = handle.program.make_expr(points, k=k)
        # All concurrent batches install the same service registry, so
        # overlapping collect() blocks attribute identically.
        with collect(self.counters):
            out = expr.execute(**options)
        return BatchResult(out)

    def refresh(self, hid: str) -> None:
        """Start a new batch epoch for ``hid``.

        Open (not yet flushed) batches keep their old key and drain as
        submitted; used after out-of-band Storage mutations when a
        caller wants a hard barrier between old- and new-data batches.
        (Not required for correctness: mutations bump the Storage
        version, so the next batch's compile refits or rebuilds its
        tree either way.)
        """
        self._handle(hid).epoch += 1

    # -- introspection -----------------------------------------------------------
    def stats(self) -> dict:
        """Service snapshot: ``serve.*`` + execution counters, queue
        state, and per-handle admission/inflight detail."""
        co = self._coalescer
        return {
            "closed": self._closed,
            "counters": self.counters.as_dict(),
            "inflight": co.inflight if co else 0,
            "queue_peak": co.queue_peak if co else 0,
            "pending_batches": co.pending_batches() if co else 0,
            "handles": {
                hid: {
                    "program": h.program.name,
                    "dim": h.program.dim,
                    "inflight": h.inflight,
                    "running": h.running,
                    "served": h.served,
                    "admission": {
                        "max_queue": h.admission.max_queue,
                        "batch_max": h.admission.batch_max,
                        "linger_us": h.admission.linger_us,
                        "max_concurrent": h.admission.max_concurrent,
                    },
                }
                for hid, h in self._handles.items()
            },
        }

    def health(self) -> dict:
        return {"status": "closed" if self._closed else "ok",
                "handles": len(self._handles)}

    # -- lifecycle ---------------------------------------------------------------
    async def close(self) -> None:
        """Fail pending batches, drain running ones, stop the pool."""
        if self._closed:
            return
        self._closed = True
        if self._coalescer is not None:
            await self._coalescer.close()
        self._pool.shutdown(wait=True)
