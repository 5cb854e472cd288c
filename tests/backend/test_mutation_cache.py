"""Mutation → cache coherence: the differential suite for incremental trees.

After each mutation kind (insert / delete / update, with and without
weights) every cache layer must either *hit with a refit* or *miss
correctly*:

* the **code cache** is untouched (a mutation changes data, not the
  program's shape) — one ``cache.compile.hit`` per execute, before and
  after every mutation;
* the **tree cache** serves the refit clone under the new content key
  (``cache.tree.refit``) while the query-side tree still hits, and the
  mutation itself retires every entry keyed by the content it replaced
  (``cache.tree.superseded``), as ``Storage.clear()`` does;
* **shard packs** re-key through the fingerprint-derived ``base_key``;
* **shared memory** blocks published under the old token are evicted on
  mutation (``shm.stale_evicted``) so a warm process pool can never read
  stale columns.

Results over the mutated Storage are compared against a from-scratch
rebuild: bitwise for selection/count reductions (k-NN values, range
counts, Hausdorff), tight-tolerance for arithmetic sums (KDE — the refit
tree legitimately groups leaf accumulations differently), across
serial / thread / process executors and all three traversal engines.
"""

import gc

import numpy as np
import pytest

from repro.backend.cache import clear_caches, tree_cache
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.dsl.expr import DistVar, exp
from repro.dsl.funcs import MetricKernel
from repro.observe import collect
from repro.parallel import shm
from repro.problems import directed_hausdorff, kde, knn, range_count
from repro.trees.node import ArrayTree

pytestmark = pytest.mark.usefixtures("refit_never_fails")

THREAD = {"parallel": True, "workers": 2, "executor": "thread"}
PROCESS = {"parallel": True, "workers": 2, "executor": "process"}
EXECUTORS = {"serial": {}, "thread": THREAD, "process": PROCESS}


def _data(rng, nq=150, nr=1200, weighted=False, dim=3):
    Q = Storage(rng.normal(size=(nq, dim)))
    w = rng.uniform(0.5, 2.0, nr) if weighted else None
    R = Storage(rng.normal(size=(nr, dim)), weights=w)
    return Q, R


def _fresh(R):
    """A from-scratch Storage with the mutated content (no shared log)."""
    return Storage(R.data.copy(),
                   weights=None if R.weights is None else R.weights.copy())


def _rebuilt(run, Q, R):
    """``run`` over a from-scratch Storage with ``R``'s content, on
    emptied caches: the reference nothing refit or cached can reach."""
    clear_caches()
    return run(Q, _fresh(R), {})


def _mutate(rng, R, kind):
    n, d = R.n, R.dim
    if kind == "update":
        idx = rng.choice(n, max(1, n // 100), replace=False)
        R.update_batch(idx, rng.normal(size=(idx.size, d)))
    elif kind == "update-weights":
        idx = rng.choice(n, max(1, n // 100), replace=False)
        R.update_batch(idx, weights=rng.uniform(0.5, 3.0, idx.size))
    elif kind == "insert":
        R.insert_batch(rng.normal(size=(n // 50, d)),
                       weights=None if R.weights is None
                       else np.ones(n // 50))
    elif kind == "delete":
        R.delete_batch(rng.choice(n, n // 50, replace=False))
    else:  # mixed
        idx = rng.choice(n, n // 100, replace=False)
        R.update_batch(idx, rng.normal(size=(idx.size, d)))
        ids = R.insert_batch(rng.normal(size=(20, d)),
                             weights=None if R.weights is None
                             else np.ones(20))
        R.delete_batch(np.concatenate([idx[: idx.size // 2], ids[:5]]))


# The traversal paths: knn runs the batched engine's bound form, kde its
# stateless form, and traversal='stack' forces the scalar reference engine.
def run_knn(Q, R, o):
    v, i = knn(Q, R, k=4, **o)
    return np.asarray(v)


def run_knn_stack(Q, R, o):
    v, i = knn(Q, R, k=4, traversal="stack", **o)
    return np.asarray(v)


def run_kde(Q, R, o):
    return np.asarray(kde(Q, R, bandwidth=0.8, tau=0.0, **o))


def run_range(Q, R, o):
    return np.asarray(range_count(Q, R, h=1.4, **o))


def run_hausdorff(Q, R, o):
    return np.asarray(directed_hausdorff(Q, R, **o))


PROBLEMS = {
    "knn": (run_knn, "exact"),
    "knn-stack": (run_knn_stack, "exact"),
    "kde": (run_kde, "close"),
    "range_count": (run_range, "exact"),
    "hausdorff": (run_hausdorff, "exact"),
}

MUTATIONS = ["update", "insert", "delete", "mixed"]


def _assert_same(mode, a, b):
    if mode == "exact":
        assert np.array_equal(a, b)
    else:
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("problem", ["knn", "kde"])
def test_refit_hits_and_matches_rebuild(rng, problem, mutation):
    """Core loop: warm → mutate → the code still hits, the r-side tree
    refits, the q-side tree still hits — and the answer is identical to
    a from-scratch rebuild."""
    run, mode = PROBLEMS[problem]
    Q, R = _data(rng, weighted=problem == "kde")
    run(Q, R, {})
    _mutate(rng, R, mutation)
    with collect() as c:
        got = run(Q, R, {})
    assert c.get("cache.compile.hit") == 1
    assert c.get("cache.compile.miss") == 0
    assert c.get("cache.tree.refit") == 1, c.as_dict()
    assert c.get("cache.tree.hit") >= 1  # query side unchanged
    # steady state: everything hits again, no further refit
    with collect() as c:
        run(Q, R, {})
    assert c.get("cache.compile.hit") == 1
    assert c.get("cache.tree.refit") == 0
    assert c.get("cache.tree.hit") == 2
    _assert_same(mode, got, _rebuilt(run, Q, R))


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("problem", ["knn", "kde"])
def test_refit_row_layout_matches_rebuild(rng, problem, mutation):
    """The same loop at d = 9, where k-NN's row regime selects in the
    difference form over the refit tree's points.  The refit tree groups
    the GEMMs differently from a rebuild, which moves the last bits of a
    KDE sum (``close``); k-NN's re-evaluated winners stay exact."""
    run, mode = PROBLEMS[problem]
    Q, R = _data(rng, weighted=problem == "kde", dim=9)
    run(Q, R, {})
    _mutate(rng, R, mutation)
    with collect() as c:
        got = run(Q, R, {})
    assert c.get("cache.tree.refit") == 1, c.as_dict()
    _assert_same(mode, got, _rebuilt(run, Q, R))


@pytest.mark.parametrize("mutation", ["update-weights"])
def test_weighted_refit(rng, mutation):
    run, mode = PROBLEMS["kde"]
    Q, R = _data(rng, weighted=True)
    run(Q, R, {})
    _mutate(rng, R, mutation)
    with collect() as c:
        got = run(Q, R, {})
    assert c.get("cache.tree.refit") == 1, c.as_dict()
    _assert_same(mode, got, _rebuilt(run, Q, R))


@pytest.mark.slow
@pytest.mark.parametrize("executor", list(EXECUTORS))
@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_executor_matrix(rng, problem, executor):
    """Every engine × executor pair answers identically to a fresh
    rebuild after a mixed mutation chain."""
    run, mode = PROBLEMS[problem]
    opts = dict(EXECUTORS[executor])
    Q, R = _data(rng)
    run(Q, R, opts)
    _mutate(rng, R, "mixed")
    with collect() as c:
        got = run(Q, R, opts)
    assert c.get("cache.tree.refit") == 1, c.as_dict()
    _assert_same(mode, got, _rebuilt(run, Q, R))


def test_shard_pack_rekeys(rng):
    """Sharded layout: the mutated fingerprint re-keys the derived
    per-shard tree cache, and the combined answer matches a rebuild."""
    Q, R = _data(rng, nr=2000)
    v0 = run_knn(Q, R, {"shards": 2})
    _mutate(rng, R, "update")
    with collect() as c:
        got = run_knn(Q, R, {"shards": 2})
    # per-shard subset trees are derived-key cached: the new base_key
    # misses (rebuild per shard); the unsharded q-side tree still hits.
    assert c.get("cache.compile.hit") == 1
    assert c.get("cache.tree.miss") >= 2
    _assert_same("exact", got, _rebuilt(run_knn, Q, R))


def test_shm_stale_eviction(rng):
    """A repeat execute reuses its published block; a mutation evicts
    the old token's blocks so the next process-pool run republishes
    fresh columns."""
    Q, R = _data(rng, nr=2000)
    run_knn(Q, R, PROCESS)
    assert shm.shared_block_stats()["blocks"] >= 1
    with collect() as c:
        run_knn(Q, R, PROCESS)
    assert c.get("shm.publish.hit") == 1 and c.get("shm.publish.miss") == 0
    with collect() as c:
        R.update_batch(np.arange(10), rng.normal(size=(10, 3)))
    assert c.get("shm.stale_evicted") >= 1, c.as_dict()
    assert shm.shared_block_stats()["blocks"] == 0
    with collect() as c:
        got = run_knn(Q, R, PROCESS)
    assert c.get("shm.publish.miss") >= 1
    _assert_same("exact", got, _rebuilt(run_knn, Q, R))


@pytest.mark.slow
def test_shm_sharded_stale_eviction(rng):
    """Sharded publications (token, carrying the query side and shard
    0, and token::r{i}) are evicted by the same prefix-matching hook."""
    Q, R = _data(rng, nr=2000)
    run_knn(Q, R, {**PROCESS, "shards": 2})
    assert shm.shared_block_stats()["blocks"] == 2  # one block per shard
    with collect() as c:
        R.delete_batch(np.arange(25))
    assert c.get("shm.stale_evicted") == 2, c.as_dict()
    got = run_knn(Q, R, {**PROCESS, "shards": 2})
    _assert_same("exact", got, _rebuilt(run_knn, Q, R))


def test_only_the_process_executor_notes_shm_tokens(rng):
    """A Storage remembers a token only for the executor that publishes
    under it: a never-mutated reference set answering serial and thread
    executes over fresh query sets accretes nothing."""
    _, R = _data(rng, nr=400)
    for _ in range(50):
        for options in ({}, THREAD):
            run_knn(Storage(rng.normal(size=(20, 3))), R, options)
    assert R._shm_tokens == set()
    run_knn(Storage(rng.normal(size=(20, 3))), R, PROCESS)
    assert len(R._shm_tokens) == 1


def test_dead_programs_keep_no_tree_versions(rng):
    """A steady update → execute loop whose programs are dropped keeps
    two trees reachable — the query tree and the reference set's live
    one: each mutation retires its predecessor's entry, and nothing
    caches a whole program beside it."""
    Q, R = _data(rng, nq=32, nr=20_000)
    for _ in range(40):
        idx = rng.choice(R.n, 200, replace=False)
        R.update_batch(idx, rng.normal(size=(idx.size, 3)))
        run_knn(Q, R, {})
    gc.collect()
    trees = [o for o in gc.get_objects() if isinstance(o, ArrayTree)]
    assert len(trees) <= 2


def test_live_tree_survives_lru_eviction(rng):
    """One-shot query trees pushing an idle reference set's tree out of
    the LRU is no reason to rebuild it: the Storage still holds the tree
    it built at this version — unless it was built over other weights."""
    def query():
        return Storage(rng.normal(size=(20, 3)))

    _, A = _data(rng, nr=400, weighted=True)
    _, B = _data(rng, nr=400)
    run_kde(query(), A, {})
    for _ in range(20):
        run_knn(query(), B, {})
    q = query()
    with collect() as c:
        got = run_kde(q, A, {})
    assert c.get("cache.tree.miss") == 1  # the query tree; A's is a hit
    assert c.get("cache.tree.hit") == 1
    assert c.get("cache.tree.refit") == 0
    got_before, before = got, _fresh(A)

    for _ in range(20):
        run_knn(query(), B, {})
    A.weights = A.weights * 2.0  # same version, other weights
    with collect() as c:
        got = run_kde(q, A, {})
    # q's (evicted too) comes back from its Storage; A's is rebuilt
    assert (c.get("cache.tree.hit"), c.get("cache.tree.miss")) == (1, 1)

    clear_caches()  # cleared is not evicted: the next compile is cold
    with collect() as c:
        run_kde(q, A, {})
    assert (c.get("cache.tree.hit"), c.get("cache.tree.miss")) == (0, 2)
    assert np.array_equal(got, _rebuilt(run_kde, q, A))
    assert np.array_equal(got_before, _rebuilt(run_kde, q, before))


def test_mark_mutated_breaks_refit_chain(rng):
    """An untracked in-place write cannot be replayed: mark_mutated()
    must force a full rebuild, never an unsound refit."""
    Q, R = _data(rng)
    run_knn(Q, R, {})
    R.data[0] += 0.25
    R.mark_mutated()
    with collect() as c:
        got = run_knn(Q, R, {})
    assert c.get("cache.tree.refit") == 0
    assert c.get("cache.tree.miss") >= 1
    _assert_same("exact", got, _rebuilt(run_knn, Q, R))


def test_log_overflow_falls_back(rng):
    """More mutations than the bounded log keeps → full rebuild."""
    from repro.dsl.storage import MUTATION_LOG_MAX

    Q, R = _data(rng, nr=400)
    run_knn(Q, R, {})
    for _ in range(MUTATION_LOG_MAX + 2):
        R.update_batch([0], rng.normal(size=(1, 3)))
    with collect() as c:
        got = run_knn(Q, R, {})
    assert c.get("cache.tree.refit") == 0
    assert c.get("cache.tree.miss") >= 1
    _assert_same("exact", got, _rebuilt(run_knn, Q, R))


def test_superseded_content_is_rebuilt_with_the_same_answer(rng):
    """A logged mutation retires the entries its predecessor named: a
    never-executed Storage over the old content rebuilds its tree (no
    false hit on a retired key, no stale tree) and answers bitwise as
    before."""
    rng2 = np.random.default_rng(99)
    Q, R = _data(rng2)
    old_content = Storage(R.data.copy())
    v_old = run_knn(Q, R, {})
    with collect() as c:
        R.update_batch(np.arange(12), rng2.normal(size=(12, 3)))
    assert c.get("cache.tree.superseded") >= 1, c.as_dict()
    run_knn(Q, R, {})  # refit happens here
    with collect() as c:
        v_again = run_knn(Q, old_content, {})
    assert c.get("cache.compile.hit") == 1
    assert c.get("cache.tree.miss") == 1  # the old content, rebuilt
    assert c.get("cache.tree.hit") == 1  # the query side
    assert c.get("cache.tree.refit") == 0
    assert np.array_equal(v_old, v_again)


def _keys(tag):
    """The tree-cache keys of one entry kind (``"tree"``, ``"shard-tree"``,
    ``"whiten"``)."""
    return [key for key in list(tree_cache._data) if key[0] == tag]


def _maha(Q, R, weighted=False, **options):
    """A Mahalanobis program whose covariance is estimated from ``R``: a
    weighted Gaussian sum when ``weighted``, else a nearest distance."""
    e = PortalExpr("maha")
    e.addLayer(PortalOp.FORALL, Q)
    if weighted:
        e.addLayer(PortalOp.SUM, R, MetricKernel(
            "sqeuclidean", exp(-DistVar("t") / 2.0), whiten=True))
    else:
        e.addLayer(PortalOp.MIN, R, PortalFunc.MAHALANOBIS)
    return np.asarray(e.execute(**options).values)


def test_sharded_update_loop_keeps_no_predecessor_shard_trees(rng):
    Q, R = _data(rng, nr=2000)
    # the reference is the unsharded layout, which builds no shard tree
    for _ in range(3):
        got = run_knn(Q, R, {"shards": 2})
        _assert_same("exact", got, run_knn(Q, R, {}))
        _mutate(rng, R, "update")
    got = run_knn(Q, R, {"shards": 2})
    _assert_same("exact", got, run_knn(Q, R, {}))
    shard_trees = _keys("shard-tree")
    assert len(shard_trees) == 2
    assert all(key[-2] == (R.fingerprint("data"), R.fingerprint("weights"))
               for key in shard_trees)


def test_mutated_reference_retires_both_sides_whiten_entries(rng):
    """Under an estimated covariance the query side's whitened points
    are keyed by the reference content too: one reference edit retires
    both sides' entries."""
    Q, R = _data(rng, nr=600)
    _maha(Q, R)
    assert len(_keys("whiten")) == 2
    with collect() as c:
        _mutate(rng, R, "update")
    assert c.get("cache.tree.superseded") >= 2, c.as_dict()
    assert _keys("whiten") == []
    with collect() as c:
        got = _maha(Q, R)
    assert c.get("cache.whiten.miss") == 2
    clear_caches()
    assert np.array_equal(got, _maha(Q, R))


def test_weights_only_update_keeps_the_whiten_entry(rng):
    Q, R = _data(rng, nr=600, weighted=True)
    _maha(Q, R, weighted=True)
    whitened = _keys("whiten")
    with collect() as c:
        _mutate(rng, R, "update-weights")
    assert c.get("cache.tree.superseded") >= 1, c.as_dict()
    assert _keys("whiten") == whitened
    with collect() as c:
        got = _maha(Q, R, weighted=True)
    assert (c.get("cache.whiten.hit"), c.get("cache.whiten.miss")) == (2, 0)
    clear_caches()
    assert np.array_equal(got, _maha(Q, R, weighted=True))


def test_executed_sibling_of_the_old_content_still_hits(rng):
    """Retiring A's old entries costs a sibling over the same content
    that has already executed nothing: it hits through its own live
    tree."""
    Q, A = _data(rng)
    sibling = Storage(A.data.copy())
    run_knn(Q, A, {})
    run_knn(Q, sibling, {})
    A.update_batch(np.arange(12), rng.normal(size=(12, 3)))
    run_knn(Q, A, {})
    with collect() as c:
        got = run_knn(Q, sibling, {})
    assert (c.get("cache.tree.hit"), c.get("cache.tree.miss"),
            c.get("cache.tree.refit")) == (2, 0, 0)
    _assert_same("exact", got, _rebuilt(run_knn, Q, sibling))


def test_mark_mutated_supersedes_nothing(rng):
    """An un-logged write names no predecessor: plain LRU."""
    Q, R = _data(rng)
    run_knn(Q, R, {})
    entries = len(tree_cache)
    with collect() as c:
        R.data[0] += 0.25
        R.mark_mutated()
    assert c.get("cache.tree.superseded") == 0
    assert len(tree_cache) == entries
    _assert_same("exact", run_knn(Q, R, {}), _rebuilt(run_knn, Q, R))


def test_clear_releases_its_trees(rng):
    """``Storage.clear()`` releases the arrays — and the trees the cache
    built over them."""
    Q, R = _data(rng, nq=32, nr=20_000)
    want = _rebuilt(run_knn, Q, R)
    clear_caches()
    assert np.array_equal(run_knn(Q, R, {}), want)
    assert len(tree_cache) == 2
    with collect() as c:
        R.clear()
    assert c.get("cache.tree.superseded") == 1
    del R
    gc.collect()
    assert len(tree_cache) == 1  # the query tree
    assert not [o for o in gc.get_objects()
                if isinstance(o, ArrayTree) and o.n >= 20_000]


def test_storage_mutation_validation(rng):
    R = Storage(rng.normal(size=(50, 3)))
    from repro.dsl.errors import StorageError

    with pytest.raises(StorageError):
        R.delete_batch(np.arange(50))
    with pytest.raises(StorageError):
        R.delete_batch([60])
    with pytest.raises(StorageError):
        R.update_batch([0])  # neither points nor weights
    with pytest.raises(StorageError):
        R.update_batch([0], weights=[1.0])  # unweighted storage
    with pytest.raises(StorageError):
        R.insert_batch([[np.nan, 0, 0]])
    Rw = Storage(rng.normal(size=(50, 3)), weights=np.ones(50))
    ids = Rw.insert_batch(rng.normal(size=(3, 3)))  # weights default to 1
    assert np.array_equal(ids, [50, 51, 52])
    assert np.allclose(Rw.weights[-3:], 1.0)


def test_deltas_since_chain(rng):
    R = Storage(rng.normal(size=(40, 3)))
    assert R.deltas_since(0) == []
    R.update_batch([1], rng.normal(size=(1, 3)))
    R.insert_batch(rng.normal(size=(2, 3)))
    chain = R.deltas_since(0)
    assert [d.kind for d in chain] == ["update", "insert"]
    assert R.deltas_since(1)[0].kind == "insert"
    R.mark_mutated()
    assert R.deltas_since(0) is None
    assert R.deltas_since(R.version) == []


# ---------------------------------------------------------------------------
# shard counts resolve per execute (no compile-time drift)
# ---------------------------------------------------------------------------

class TestShardEnvResolution:
    def test_repro_workers_drives_auto_resolution(self, rng, monkeypatch):
        """No worker count shards on its own: ``shards='auto'`` is the
        option table's refusal under any ``REPRO_WORKERS``, and an
        unasked count stays one shard."""
        from repro.dsl.errors import SpecificationError
        from tests.backend.test_plan import plan_for

        for workers in ("2", "4"):
            monkeypatch.setenv("REPRO_WORKERS", workers)
            with pytest.raises(SpecificationError, match="shards"):
                plan_for({"shards": "auto"}, nq=1, nr=1 << 20)
            assert plan_for({}, nq=1, nr=1 << 20).shards == 1

    def test_resolved_count_is_cache_keyed(self, rng):
        """Same program, different resolved shard count → the per-shard
        trees miss (a layout for another worker count is never reused);
        the sharded code is one entry whatever the count."""
        Q, R = _data(rng, nr=2000)
        with collect() as c:
            run_knn(Q, R, {"shards": 2})
        assert c.get("cache.compile.miss") == 1
        assert c.get("cache.tree.miss") == 3    # the query tree + 2 shards
        with collect() as c:
            run_knn(Q, R, {"shards": 3})
        assert c.get("cache.compile.hit") == 1
        assert (c.get("cache.tree.hit"), c.get("cache.tree.miss")) == (1, 3)
        with collect() as c:
            run_knn(Q, R, {"shards": 2})
        assert c.get("cache.compile.hit") == 1
        # the 2-shard layout is still cached
        assert (c.get("cache.tree.hit"), c.get("cache.tree.miss")) == (3, 0)


# ---------------------------------------------------------------------------
# shm double-release (satellite: atexit never raises)
# ---------------------------------------------------------------------------

class TestShmRelease:
    def test_close_is_idempotent(self):
        block = shm.SharedBlock({"a": np.arange(8, dtype=np.float64)})
        block.close()
        block.close()  # second close (the old double-release) is a no-op

    def test_release_paths_race_safely(self):
        tok = "test-double-release"
        shm.publish_arrays(tok, {"a": np.arange(4, dtype=np.float64)})
        with shm._blocks_lock:
            block = shm._blocks.get(tok)
        shm.release_block(tok)
        # the atexit-style sweep sees nothing, and a stray reference
        # closing again must not raise
        shm.release_shared_blocks()
        block.close()
        shm._atexit_release()

    def test_non_owner_never_unlinks(self):
        block = shm.SharedBlock({"a": np.arange(4, dtype=np.float64)})
        name = block.name
        handle, views = shm.attach_arrays(name, block.manifest)
        try:
            attacher = shm.SharedBlock.__new__(shm.SharedBlock)
            attacher.shm = handle
            attacher.manifest = block.manifest
            attacher.nbytes = block.nbytes
            attacher._owner = False
            attacher._closed = False
            import threading

            attacher._close_lock = threading.Lock()
            attacher.close()  # closes its handle but must not unlink
            # the owner's segment is still intact: re-attach works
            handle2, _ = shm.attach_arrays(name, block.manifest)
            handle2.close()
        finally:
            block.close()

    def test_evict_stale_blocks_prefix_matching(self):
        base = "tok-evict-test"
        for t in (base, base + "::q", base + "::r0", base + "::r1",
                  "other-token"):
            shm.publish_arrays(t, {"a": np.arange(4, dtype=np.float64)})
        with collect() as c:
            n = shm.evict_stale_blocks((base,))
        assert n == 4
        assert c.get("shm.stale_evicted") == 4
        assert shm.shared_block_stats()["blocks"] == 1
        shm.release_block("other-token")
