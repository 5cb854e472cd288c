"""Serving robustness battery: admission control, cancellation, linger
timing (fake clock), cache races, and Storage mutation under a live
handle.

Execution is made deterministic with a *gated* service — a
:class:`PortalService` subclass whose batch execution blocks on a
``threading.Event`` — and an injected fake linger clock, so none of
these tests sleep for wall-clock margins.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.serve import (
    AdmissionConfig, PortalService, ServeError, ServiceOverloaded,
)

from tests.backend.test_differential import _data

SEED = 101


def knn_template(R, k=3):
    Q, _ = _data(SEED)
    e = PortalExpr("knn")
    e.addLayer(PortalOp.FORALL, Storage(Q[:1], name="query"))
    e.addLayer((PortalOp.KARGMIN, k), Storage(R, name="reference"),
               PortalFunc.EUCLIDEAN)
    return e


class GatedService(PortalService):
    """Batch execution blocks until ``gate`` is set (register's warm
    probe does not pass through here, so only real batches are gated)."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.gate = threading.Event()

    def _execute_batch(self, handle, meta, points):
        assert self.gate.wait(30), "gate was never opened"
        return super()._execute_batch(handle, meta, points)


class FakeClock:
    """Injectable linger-timer factory: timers never fire on their own."""

    class _Timer:
        def __init__(self, delay, cb):
            self.delay = delay
            self.cb = cb
            self.cancelled = False

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.timers = []

    def schedule(self, delay, cb):
        t = self._Timer(delay, cb)
        self.timers.append(t)
        return t

    def armed(self):
        return [t for t in self.timers if not t.cancelled]

    def fire(self):
        for t in self.armed():
            t.cancelled = True
            t.cb()


async def _settle(n=6):
    """Let pending callbacks/executor handoffs run for a few ticks."""
    for _ in range(n):
        await asyncio.sleep(0)


# -- load shedding ---------------------------------------------------------------

def test_queue_overflow_sheds_with_typed_error():
    _, R = _data(SEED)

    async def go():
        svc = GatedService()
        hid = await svc.register(
            knn_template(R),
            admission=AdmissionConfig(max_queue=5, batch_max=2,
                                      linger_us=60_000_000))
        try:
            # 2 admitted + flushed (blocked on the gate), 3 more queued
            tasks = [asyncio.ensure_future(
                svc.query(hid, R[i:i + 1])) for i in range(5)]
            await _settle()
            with pytest.raises(ServiceOverloaded) as ei:
                await svc.query(hid, R[5:6])
            err = ei.value
            assert err.handle == hid
            assert err.queued == 5 and err.requested == 1 and err.limit == 5
            assert svc.counters.get("serve.shed") == 1
            # shedding rejected the new work without harming admitted work
            svc.gate.set()
            results = await asyncio.gather(*tasks)
            assert all(np.asarray(r.indices).shape == (1, 3)
                       for r in results)
            assert svc.counters.get("serve.queue_peak") == 5
        finally:
            svc.gate.set()
            await svc.close()

    asyncio.run(go())


def test_multi_row_request_larger_than_queue_is_shed():
    _, R = _data(SEED)

    async def go():
        svc = PortalService()
        hid = await svc.register(
            knn_template(R), admission=AdmissionConfig(max_queue=3))
        try:
            with pytest.raises(ServiceOverloaded):
                await svc.query(hid, R[:4])
        finally:
            await svc.close()

    asyncio.run(go())


# -- cancellation ----------------------------------------------------------------

def test_client_cancellation_mid_batch_leaves_neighbors_answered():
    _, R = _data(SEED)

    async def go():
        svc = GatedService()
        hid = await svc.register(
            knn_template(R),
            admission=AdmissionConfig(batch_max=3, linger_us=60_000_000))
        try:
            # one full batch of three; it flushes and blocks on the gate
            tasks = [asyncio.ensure_future(
                svc.query(hid, R[i:i + 1])) for i in range(3)]
            await _settle()
            tasks[1].cancel()  # mid-batch: traversal already in flight
            svc.gate.set()
            done = await asyncio.gather(*tasks, return_exceptions=True)
            assert isinstance(done[1], asyncio.CancelledError)
            for i in (0, 2):
                assert np.asarray(done[i].indices).shape == (1, 3)
            assert svc.counters.get("serve.cancelled") == 1
            # the cancelled rows still ran inside the shared traversal
            assert svc.counters.get("serve.batch_queries") == 3
        finally:
            svc.gate.set()
            await svc.close()

    asyncio.run(go())


def test_cancellation_before_flush_drops_rows_from_the_batch():
    _, R = _data(SEED)
    clock = FakeClock()

    async def go():
        svc = GatedService(schedule=clock.schedule)
        hid = await svc.register(
            knn_template(R),
            admission=AdmissionConfig(batch_max=64, linger_us=60_000_000))
        try:
            # occupy the handle so the next batch lingers open
            blocker = asyncio.ensure_future(svc.query(hid, R[0:1]))
            await _settle()
            tasks = [asyncio.ensure_future(
                svc.query(hid, R[i:i + 1])) for i in range(1, 4)]
            await _settle()
            tasks[0].cancel()  # batch still open: row never stacked
            await _settle()
            svc.gate.set()
            done = await asyncio.gather(blocker, *tasks,
                                        return_exceptions=True)
            assert isinstance(done[1], asyncio.CancelledError)
            assert np.asarray(done[2].indices).shape == (1, 3)
            assert np.asarray(done[3].indices).shape == (1, 3)
            assert svc.counters.get("serve.cancelled") == 1
            # blocker batch carried 1 row, the lingered batch only 2
            assert svc.counters.get("serve.batch_queries") == 3
        finally:
            svc.gate.set()
            await svc.close()

    asyncio.run(go())


# -- linger timing (fake clock) --------------------------------------------------

def test_linger_timer_flushes_open_batch_with_fake_clock():
    _, R = _data(SEED)
    clock = FakeClock()

    async def go():
        svc = GatedService(schedule=clock.schedule)
        hid = await svc.register(
            knn_template(R),
            admission=AdmissionConfig(batch_max=64, linger_us=1_000_000))
        try:
            # batch A: idle handle, flushes same-tick, blocks on the gate
            a = asyncio.ensure_future(svc.query(hid, R[0:1]))
            await _settle()
            assert not clock.armed()  # idle-handle path never arms a timer
            # batch B opens while the handle is busy -> linger timer armed
            b = asyncio.ensure_future(svc.query(hid, R[1:2]))
            await _settle()
            assert len(clock.armed()) == 1
            assert svc._coalescer.pending_batches() == 1
            # company arriving while lingering joins, no second timer
            c = asyncio.ensure_future(svc.query(hid, R[2:3]))
            await _settle()
            assert len(clock.armed()) == 1
            assert svc._coalescer.pending_batches() == 1
            assert not b.done() and not c.done()
            # the fake clock fires: B+C flush and queue behind A
            clock.fire()
            await _settle()
            assert svc._coalescer.pending_batches() == 0
            svc.gate.set()
            ra, rb, rc = await asyncio.gather(a, b, c)
            for r in (ra, rb, rc):
                assert np.asarray(r.indices).shape == (1, 3)
            assert svc.counters.get("serve.batches") == 2
            assert svc.counters.get("serve.coalesced") == 2  # B+C
        finally:
            svc.gate.set()
            await svc.close()

    asyncio.run(go())


def test_capacity_freed_kick_outruns_the_linger_timer():
    """When the in-flight batch finishes, the open batch is kicked
    immediately — the (never-fired) fake timer shows the linger was not
    what flushed it."""
    _, R = _data(SEED)
    clock = FakeClock()

    async def go():
        svc = GatedService(schedule=clock.schedule)
        hid = await svc.register(
            knn_template(R),
            admission=AdmissionConfig(batch_max=64, linger_us=60_000_000))
        try:
            a = asyncio.ensure_future(svc.query(hid, R[0:1]))
            await _settle()
            b = asyncio.ensure_future(svc.query(hid, R[1:2]))
            await _settle()
            assert len(clock.armed()) == 1
            svc.gate.set()  # A completes -> B kicked without the timer
            ra, rb = await asyncio.gather(a, b)
            assert np.asarray(rb.indices).shape == (1, 3)
            assert not clock.armed()  # the kick cancelled the timer
            assert svc.counters.get("serve.batches") == 2
        finally:
            svc.gate.set()
            await svc.close()

    asyncio.run(go())


# -- cache races -----------------------------------------------------------------

def test_register_and_clear_caches_race():
    """clear_caches() from another thread while handles register and
    serve must never corrupt results — at worst it costs rebuilds."""
    _, R = _data(SEED)
    stop = threading.Event()

    def clearer():
        while not stop.is_set():
            clear_caches()

    t = threading.Thread(target=clearer)
    t.start()
    try:
        async def go():
            svc = PortalService()
            try:
                expect = None
                for round_ in range(5):
                    hid = await svc.register(knn_template(R))
                    res = await svc.query(hid, R[7:8])
                    idx = np.asarray(res.indices)
                    if expect is None:
                        expect = idx
                    assert np.array_equal(idx, expect)
                    await svc.unregister(hid)
            finally:
                await svc.close()

        asyncio.run(go())
    finally:
        stop.set()
        t.join()


# -- Storage mutation under a live handle ----------------------------------------

@pytest.mark.parametrize("executor", ["serial", "process"])
def test_storage_mutation_between_requests_is_picked_up(executor):
    """Mutating the registered reference Storage between requests must
    be visible to the next batch (refit/rebuilt tree, refreshed shm
    publication — never a stale read), including under the process
    executor where reference columns live in shared memory."""
    rng = np.random.default_rng(SEED)
    R = rng.normal(size=(40, 3))
    rs = Storage(R, name="reference")
    q = np.array([[25.0, 25.0, 25.0]])

    options = {}
    if executor == "process":
        options = dict(parallel=True, workers=2, executor="process")

    Qp, _ = _data(SEED)
    tmpl = PortalExpr("knn")
    tmpl.addLayer(PortalOp.FORALL, Storage(Qp[:1], name="query"))
    tmpl.addLayer((PortalOp.KARGMIN, 2), rs, PortalFunc.EUCLIDEAN)

    async def go():
        svc = PortalService()
        try:
            hid = await svc.register(tmpl, options=options)
            before = await svc.query(hid, q)
            # far from every seeded point: baseline neighbors are seeded
            assert np.asarray(before.indices).max() < 40

            new_idx = rs.insert_batch(q + 0.01)  # right on top of the query
            after = await svc.query(hid, q)
            got = set(np.asarray(after.indices).ravel().tolist())
            assert int(new_idx[0]) in got, (
                f"stale read: inserted point {new_idx} missing from {got}")

            rs.delete_batch(new_idx)
            again = await svc.query(hid, q)
            assert np.array_equal(np.asarray(again.indices),
                                  np.asarray(before.indices))
            return svc.counters.as_dict()
        finally:
            await svc.close()

    counters = asyncio.run(go())
    # the mutations were absorbed by the incremental path, not rebuilds
    assert counters.get("cache.tree.refit", 0) >= 1


# -- lifecycle / misc ------------------------------------------------------------

def test_unknown_handle_and_bad_points_raise_serve_errors():
    _, R = _data(SEED)

    async def go():
        svc = PortalService()
        try:
            with pytest.raises(ServeError):
                await svc.query("nope", R[:1])
            hid = await svc.register(knn_template(R))
            with pytest.raises(ServeError):
                await svc.query(hid, np.zeros((1, 7)))  # wrong dim
            with pytest.raises(ServeError):
                await svc.register(knn_template(R), name=hid)  # dup name
        finally:
            await svc.close()

    asyncio.run(go())


def test_close_fails_open_batches_and_rejects_new_work():
    _, R = _data(SEED)
    clock = FakeClock()

    async def go():
        svc = GatedService(schedule=clock.schedule)
        hid = await svc.register(
            knn_template(R),
            admission=AdmissionConfig(batch_max=64, linger_us=60_000_000))
        a = asyncio.ensure_future(svc.query(hid, R[0:1]))
        await _settle()
        b = asyncio.ensure_future(svc.query(hid, R[1:2]))  # open batch
        await _settle()
        svc.gate.set()
        await svc.close()
        ra = await a  # in-flight batch drained on close
        assert np.asarray(ra.indices).shape == (1, 3)
        with pytest.raises(ServeError):
            await b  # open batch failed with the close error
        with pytest.raises(ServeError):
            await svc.query(hid, R[2:3])

    asyncio.run(go())


def test_refresh_bumps_the_batch_epoch():
    _, R = _data(SEED)

    async def go():
        svc = PortalService()
        try:
            hid = await svc.register(knn_template(R))
            r1 = await svc.query(hid, R[3:4])
            svc.refresh(hid)
            r2 = await svc.query(hid, R[3:4])
            assert np.array_equal(np.asarray(r1.indices),
                                  np.asarray(r2.indices))
        finally:
            await svc.close()

    asyncio.run(go())
