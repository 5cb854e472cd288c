"""Serving differential battery: coalesced rows against rows served alone.

Coalescing rule: a row answered in a batch is held to the same row
answered alone: comparative, count and list outputs are bitwise equal; a
float sum of an exact program holds DESIGN.md §8's sum rule
(``tests/contract.py::assert_sum_close``); an approximate program holds
the τ / θ rule.

Each of the nine point-query problems (FORALL outer layer) is registered
with a :class:`PortalService`; its query rows are then submitted as
concurrent single-row requests in a *scrambled* order with a small
``batch_max``, so the coalescer stacks them into batches that never
equal the reference execution's query array.  Every scattered slice is
compared with the corresponding row of one plain ``execute()`` over the
full query set.  These configurations are all exact (``tau=0`` where
approximation exists), and at their 28 × 33 inputs every output —
float sums included — is bitwise, which this battery asserts; the sum
rule's own case is the 40 × 300 Gaussian KDE at the end, whose rows do
change bits with the batch.

The matrix covers kd/octree trees and the thread/process parallel
executors (CI runs this directory again under ``REPRO_EXECUTOR=process``
— see ``.github/workflows/ci.yml``).  Mixed-``k`` k-NN requests
interleaved on one handle must *not* share a batch key, and multi-row
requests must slice correctly alongside single-row ones.
"""

import asyncio

import numpy as np
import pytest

from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.serve import AdmissionConfig, PortalService

from tests.backend.test_differential import _data, make_problem
from tests.conftest import REMOVED_TREE, assert_tree_refused

SEED = 101
#: query rows submitted per combo (a prefix of the 28-row harness set;
#: enough for several partial batches without bloating the tier-1 run)
NQ = 12
BATCH_MAX = 5

#: the eight FORALL-outer problems of the shared differential harness
_SHARED = ["knn", "nearest", "kde", "naive_bayes", "range_search",
           "range_count", "em", "barnes_hut"]
#: ... plus "furthest" (FORALL/MAX) for the nine serving problems
SERVE_PROBLEMS = _SHARED + ["furthest"]

TREES = ("kd", "octree")


def serve_problem(name, seed=SEED):
    """``(build, kind, opts)`` for a point-query (FORALL-outer) problem."""
    if name == "furthest":
        Q, R = _data(seed)

        def build():
            e = PortalExpr("furthest")
            e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
            e.addLayer(PortalOp.MAX, Storage(R, name="reference"),
                       PortalFunc.EUCLIDEAN)
            return e
        return build, "values", {}
    return make_problem(name, seed)


def _run_opts(opts, tree, executor):
    run = dict(opts, tree=tree)
    if executor != "serial":
        # The task decomposition is the host's, whatever the worker
        # count, so parallel merge order is reproducible.
        run.update(parallel=True, workers=2, executor=executor)
    return run


def _row(res, kind):
    """One request's payload in the differential comparison form."""
    if kind == "values":
        return np.asarray(res.values, dtype=np.float64)
    if kind == "indices":
        return np.asarray(res.indices)
    if kind == "lists":
        return [np.asarray(v) for v in res.indices]
    raise AssertionError(kind)


def _assert_rows_equal(got, ref, kind, ctx):
    if kind == "lists":
        assert len(got) == len(ref), ctx
        for g, e in zip(got, ref):
            assert np.array_equal(g, e), ctx
    else:
        # bitwise: exact array equality, never allclose
        assert got.dtype == ref.dtype, ctx
        assert np.array_equal(got, ref), ctx


def _scrambled(n):
    """Deterministic non-contiguous submit order: odds then evens, so
    no coalesced batch can equal a prefix of the reference query set."""
    return list(range(1, n, 2)) + list(range(0, n, 2))


def _serve_vs_serial(name, tree, executor, nq=NQ, rounds=1):
    """``rounds`` × the ``nq`` rows, each round rotated one row on so no
    two rounds stack the same batches.  Returns what the batches added
    to the service's counters after ``register()``."""
    build, kind, opts = serve_problem(name)
    run = _run_opts(opts, tree, executor)
    Q, _ = _data(SEED)

    ref_out = build().execute(**run)

    async def coalesced():
        svc = PortalService()
        try:
            hid = await svc.register(
                build(), options=run,
                admission=AdmissionConfig(batch_max=BATCH_MAX,
                                          linger_us=250_000,
                                          max_queue=10_000))
            registered = svc.counters.as_dict()
            order, results = [], []
            for shift in range(rounds):
                rows = _scrambled(nq)
                rows = rows[shift:] + rows[:shift]
                order += rows
                results += await asyncio.gather(
                    *[svc.query(hid, Q[i:i + 1]) for i in rows])
            return order, results, registered, svc.counters.as_dict()
        finally:
            await svc.close()

    order, results, registered, counters = asyncio.run(coalesced())
    added = {name: value - registered.get(name, 0)
             for name, value in counters.items()}

    assert counters.get("serve.batches", 0) < len(order), \
        "requests were not coalesced at all"
    assert counters.get("serve.coalesced", 0) > 0
    # register() compiled the program; every batch after it reuses that
    # code half and compiles nothing
    assert added.get("compile.count", 0) == 0
    assert added["cache.compile.hit"] == added["serve.batches"] > 0
    assert added.get("cache.compile.miss", 0) == 0

    for i, res in zip(order, results):
        ctx = f"{name}/{tree}/{executor} row {i}"
        _assert_rows_equal(_row(res, kind), _row(ref_out, kind)[i:i + 1],
                           kind, ctx)
        if kind == "indices":
            # k-NN carries values too; they must match bitwise as well
            if res.values is not None and ref_out.values is not None:
                _assert_rows_equal(
                    np.asarray(res.values),
                    np.asarray(ref_out.values)[i:i + 1], "values", ctx)
    return added


def _register_refused(name, executor):
    """Registering the problem with the deleted tree kind is refused,
    and the service closes cleanly."""
    build, _, opts = serve_problem(name)
    run = _run_opts(opts, REMOVED_TREE, executor)

    async def register():
        svc = PortalService()
        try:
            await svc.register(build(), options=run)
        finally:
            await svc.close()

    assert_tree_refused(lambda: asyncio.run(register()))


@pytest.mark.parametrize("tree", TREES + (REMOVED_TREE,))
@pytest.mark.parametrize("name", SERVE_PROBLEMS)
def test_coalesced_matches_serial(name, tree):
    """Nine problems x two trees, thread executor (CI re-runs the
    directory under REPRO_EXECUTOR=process for the process leg); the
    deleted ``ball`` kind is refused at registration."""
    if tree == REMOVED_TREE:
        _register_refused(name, "thread")
        return
    _serve_vs_serial(name, tree, "thread")


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("name", SERVE_PROBLEMS)
def test_coalesced_matches_serial_executors(name, executor):
    """Nine problems x all three executors on the kd tree."""
    _serve_vs_serial(name, "kd", executor)


def test_twenty_batches_after_register_compile_nothing():
    """The steady state of a served handle: full batches (no linger
    wait), none stacked like an earlier one, each a code hit."""
    added = _serve_vs_serial("knn", "kd", "serial", nq=4 * BATCH_MAX,
                             rounds=BATCH_MAX)
    assert added["serve.batches"] == added["cache.compile.hit"] == 20


def test_mixed_k_requests_do_not_share_a_batch():
    """Interleaved knn requests with different k must compile and batch
    separately — and each must still match its own serial reference."""
    build, kind, opts = serve_problem("knn")
    Q, R = _data(SEED)

    refs = {}
    for k in (2, 5):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        e.addLayer((PortalOp.KARGMIN, k), Storage(R, name="reference"),
                   PortalFunc.EUCLIDEAN)
        refs[k] = e.execute()

    async def run():
        svc = PortalService()
        try:
            hid = await svc.register(
                build(),
                admission=AdmissionConfig(batch_max=64, linger_us=250_000))
            coros = []
            plan = []  # (k, row)
            for i in range(NQ):
                k = 2 if i % 2 == 0 else 5
                plan.append((k, i))
                coros.append(svc.query(hid, Q[i:i + 1], k=k))
            results = await asyncio.gather(*coros)
            return plan, results, svc.counters.as_dict()
        finally:
            await svc.close()

    plan, results, counters = asyncio.run(run())

    # one warm batch + exactly one batch per distinct k: interleaved
    # requests coalesced within their k but never across k
    assert counters["serve.batches"] == 2
    assert counters["serve.coalesced"] == NQ
    for (k, i), res in zip(plan, results):
        assert np.asarray(res.indices).shape == (1, k)
        assert np.array_equal(np.asarray(res.indices),
                              np.asarray(refs[k].indices)[i:i + 1, :])
        assert np.array_equal(np.asarray(res.values),
                              np.asarray(refs[k].values)[i:i + 1, :])


def test_multi_row_requests_slice_correctly():
    """Mixed request sizes (1/3/5 rows) in one coalesced stream."""
    build, kind, opts = serve_problem("kde")
    run = dict(opts)
    Q, _ = _data(SEED)
    ref = np.asarray(build().execute(**run).values, dtype=np.float64)

    chunks = [Q[0:1], Q[1:4], Q[4:9], Q[9:10], Q[10:12]]
    spans = [(0, 1), (1, 4), (4, 9), (9, 10), (10, 12)]

    async def go():
        svc = PortalService()
        try:
            hid = await svc.register(
                build(), options=run,
                admission=AdmissionConfig(batch_max=64, linger_us=250_000))
            results = await asyncio.gather(
                *[svc.query(hid, c) for c in chunks])
            return results, svc.counters.as_dict()
        finally:
            await svc.close()

    results, counters = asyncio.run(go())
    assert counters["serve.batches"] == 1  # everything shared one traversal
    for (lo, hi), res in zip(spans, results):
        got = np.asarray(res.values, dtype=np.float64)
        assert got.shape[0] == hi - lo
        assert np.array_equal(got, ref[lo:hi])


def test_per_request_options_split_batches():
    """Requests overriding execute() options must not share a batch with
    default-option requests (different compiled program)."""
    build, kind, opts = serve_problem("kde")
    Q, _ = _data(SEED)

    async def go():
        svc = PortalService()
        try:
            hid = await svc.register(
                build(), options=dict(opts),
                admission=AdmissionConfig(batch_max=64, linger_us=250_000))
            a, b = await asyncio.gather(
                svc.query(hid, Q[0:2]),
                svc.query(hid, Q[0:2], options={"tree": "octree"}))
            return a, b, svc.counters.as_dict()
        finally:
            await svc.close()

    a, b, counters = asyncio.run(go())
    assert counters["serve.batches"] == 2
    # same exact math either way
    assert np.array_equal(np.asarray(a.values), np.asarray(b.values))


def test_monochromatic_template_serves_against_its_dataset():
    """A template whose two layers share one Storage is still a point
    query *against* that dataset: only the query slot is rebound, so a
    served row that is one of the data points finds itself (a rebound
    self-join would exclude it), and the caller's template is untouched."""
    from repro.serve import ServeProgram

    X = np.random.default_rng(SEED).normal(size=(64, 3))
    data = Storage(X, name="data")
    template = PortalExpr("self-nn")
    template.addLayer(PortalOp.FORALL, data)
    template.addLayer((PortalOp.KARGMIN, 2), data, PortalFunc.EUCLIDEAN)
    expr = ServeProgram(template).make_expr(X[10:15])
    assert expr.layers[1].storage is data
    assert expr.layers[0].storage is not data
    assert expr.execute().indices[:, 0].tolist() == [10, 11, 12, 13, 14]
    assert template.layers[0].storage is data


# -- the rule's sum case: rows whose bits move with the batch -----------------

#: Gaussian KDE, τ = 0, 40 × 300 standard-normal points at d = 3: at
#: these sizes the block GEMM rounds a row by the shape of the block it
#: runs in, so a row answered in a 1- or 5-row slice need not be
#: bitwise the row of the 40-row run
KDE_NQ, KDE_NR, KDE_SEED = 40, 300, 0


def _kde_rows(weighted):
    rng = np.random.default_rng(KDE_SEED)
    Q = rng.standard_normal((KDE_NQ, 3))
    R = rng.standard_normal((KDE_NR, 3))
    w = rng.uniform(0.5, 2.0, KDE_NR) if weighted else None

    def build(query=Q):
        e = PortalExpr("kde-coalesce")
        e.addLayer(PortalOp.FORALL, Storage(query, name="query"))
        e.addLayer(PortalOp.SUM, Storage(R, weights=w, name="reference"),
                   PortalFunc.GAUSSIAN, bandwidth=0.5)
        return e
    return Q, build


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unweighted", "weighted"])
@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("path", ["executed", "served"])
def test_batched_kde_sum_holds_the_sum_rule(path, rows, weighted):
    """The coalescing rule's sum case: each row of a ``rows``-row slice,
    executed on its own or served in a batch of ``rows``, holds the sum
    rule against the same row of one 40-row execute."""
    from tests.contract import assert_sum_close

    Q, build = _kde_rows(weighted)
    want = np.asarray(build().execute(tau=0.0).values)
    if path == "executed":
        got = np.concatenate([
            np.asarray(build(Q[i:i + rows]).execute(tau=0.0).values)
            for i in range(0, KDE_NQ, rows)])
    else:
        async def served():
            svc = PortalService()
            try:
                hid = await svc.register(
                    build(), options={"tau": 0.0},
                    admission=AdmissionConfig(batch_max=rows,
                                              linger_us=250_000))
                out = await asyncio.gather(
                    *[svc.query(hid, Q[i:i + 1]) for i in range(KDE_NQ)])
                return out, svc.counters.as_dict()
            finally:
                await svc.close()

        results, counters = asyncio.run(served())
        assert counters["serve.batches"] >= KDE_NQ // rows
        got = np.concatenate([np.asarray(r.values) for r in results])
    assert_sum_close(got, want, n=KDE_NR)
