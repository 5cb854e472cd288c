"""The sharded reference layout: differential correctness against the
unsharded program, per-shard work, shard planning and resolution, env
overrides, and shared-memory publication under the multi-block sharded
scheme.

The load-bearing guarantee: sharding is a data-placement change, not an
algorithm change — the reference set is spatially partitioned, one tree
is built per shard, and per-shard partial results are combined through
the inner operator's reduction algebra.  Decomposability (paper section
II-C) makes the combined output mathematically identical to the
unsharded one; the tests below pin down exactly how identical:

* reductions that pick values (min/max/k-smallest) select the same
  points the unsharded run selects, and their values are re-evaluated
  in one difference form, so values compare bitwise — and so does
  anything computed from them (k-NN regression);
* indicator counts are sums of small integers — bitwise too;
* arithmetic sums (KDE, Barnes-Hut) reassociate across shards, so they
  compare to tight tolerance instead;
* ties between equal values resolve to the lowest shard index, which
  may differ from unsharded traversal order — index comparisons are
  tie-aware (where indices differ, the corresponding values must be
  bitwise equal).
"""

import os
import threading

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.backend.jit import CompileOptions
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.dsl.errors import SpecificationError
from repro.observe import collect
from repro.parallel import plan_shards, shm
from repro.parallel.executor import default_workers
from repro.problems import (
    barnes_hut_potential, directed_hausdorff, kde, knn, knn_regress,
    pair_count, range_count, range_search, two_point_correlation,
)
from tests.backend.test_plan import plan_for
from tests.conftest import REMOVED_TREE, assert_tree_refused, uncacheable

#: Process-pool options mirroring test_process_executor's PAR.
PAR = {"parallel": True, "workers": 2, "executor": "process"}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(2026)
    X = rng.uniform(0, 8, size=(500, 3))
    return np.ascontiguousarray(X[:220]), np.ascontiguousarray(X[220:])


def _clustered(na: int, nb: int, nq: int, dist: float = 60.0, seed: int = 7):
    """Two well-separated reference clusters with every query near the
    first — the geometry where one shard's points are all dominated."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((na, 3))
    B = rng.standard_normal((nb, 3)) + dist
    R = np.ascontiguousarray(np.concatenate([A, B]))
    Q = np.ascontiguousarray(rng.standard_normal((nq, 3)) * 0.5)
    return Q, R


# The nine evaluated problems (paper Table III).  Each entry carries its
# comparison mode: how exact the sharded output must be, per the combine
# algebra (see module docstring).
#   exact      — bitwise equality on every output array/scalar
#   close      — arithmetic sum reassociates across shards (rtol 1e-12)
#   tie-aware  — k-NN style (values, indices): values bitwise, indices
#                equal except where the values tie
#   union      — per-query index sets compared as sorted arrays
#   (kde runs with tau=0 and Barnes-Hut with theta=0 here: their
#   approximation criteria act on tree-node geometry, and per-shard
#   trees legitimately make *different* approximation decisions — the
#   envelope tests below cover the approximate settings.)
PROBLEMS = {
    "kde": ("close",
            lambda Q, R, o: kde(Q, R, bandwidth=0.7, tau=0.0, **o)),
    "knn": ("tie-aware", lambda Q, R, o: knn(Q, R, k=5, **o)),
    "range_search": ("union",
                     lambda Q, R, o: range_search(Q, R, h=1.5, **o)),
    "range_count": ("exact",
                    lambda Q, R, o: range_count(Q, R, h=1.5, **o)),
    "two_point": ("exact",
                  lambda Q, R, o: two_point_correlation(Q, 1.0, **o)),
    "hausdorff": ("exact", lambda Q, R, o: directed_hausdorff(Q, R, **o)),
    "barnes_hut": ("close", lambda Q, R, o: barnes_hut_potential(
        Q, np.full(len(Q), 0.5), theta=1e-9, **o)),
    "pair_count": ("exact", lambda Q, R, o: pair_count(Q, R, h=1.2, **o)),
    "knn_regress": ("exact", lambda Q, R, o: knn_regress(
        R, np.arange(len(R), dtype=float), Q, k=3, **o)),
}


def _assert_bytes_equal(a, b):
    if isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_bytes_equal(x, y)
    else:
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_matches(mode, base, sharded):
    if mode == "tie-aware":
        vals_b, idx_b = base
        vals_s, idx_s = sharded
        assert np.array_equal(vals_b, vals_s)  # bitwise
        differs = idx_b != idx_s
        # Where the picked index differs, it must be a tie: the distance
        # at that slot is bitwise equal (already checked above), and both
        # indices are valid references.
        assert np.all(idx_s[differs] >= 0)
        assert np.all(idx_b[differs] >= 0)
    elif mode == "union":
        # range_search returns one sorted index array per query.
        assert len(base) == len(sharded)
        for b, s in zip(base, sharded):
            assert np.array_equal(np.asarray(b), np.asarray(s))
    elif mode == "close":
        np.testing.assert_allclose(np.asarray(base), np.asarray(sharded),
                                   rtol=1e-12, atol=0)
    else:  # exact
        if isinstance(base, tuple):
            for b, s in zip(base, sharded):
                assert np.array_equal(np.asarray(b), np.asarray(s))
        else:
            assert np.array_equal(np.asarray(base), np.asarray(sharded))


#: the three runners of the fan-out, as run options
RUNNERS = {"serial": {}, "thread": dict(PAR, executor="thread"),
           "process": PAR}
#: (shards, runner) cells; a serial cell's id is its shard count alone
SHARD_RUNNERS = [pytest.param(shards, runner, id=f"{shards}" if runner ==
                              "serial" else f"{shards}-{runner}")
                 for runner in RUNNERS for shards in (2, 4)]


class TestDifferentialProblems:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("shards,executor", SHARD_RUNNERS)
    def test_sharded_matches_unsharded(self, data, name, shards, executor):
        Q, R = data
        mode, fn = PROBLEMS[name]
        base = fn(Q, R, {})
        sharded = fn(Q, R, dict(RUNNERS[executor], shards=shards))
        _assert_matches(mode, base, sharded)

    @pytest.mark.parametrize("name", ["knn", "kde_tau", "range_count",
                                      "range_search", "hausdorff"])
    def test_runners_agree(self, data, name):
        """One schedule for every runner: under two shards, serial,
        thread and process runs of a program give byte-equal outputs and
        equal ``traversal.*`` and ``shard.*`` counters — the same
        (shard × query-subtree) tasks, each run to completion."""
        Q, R = data
        fn = (PROBLEMS[name][1] if name != "kde_tau" else
              lambda Q, R, o: kde(Q, R, bandwidth=0.7, tau=1e-3, **o))
        runs = []
        for opts in RUNNERS.values():
            clear_caches()
            with collect() as counters:
                out = fn(Q, R, dict(opts, shards=2, leaf_size=8))
            runs.append((out, {k: v for k, v in counters.as_dict().items()
                               if k.startswith(("traversal.", "shard."))}))
        (base, base_counts), *others = runs
        assert base_counts["traversal.base_case_pairs"] > 0
        for out, counts in others:
            _assert_bytes_equal(base, out)
            assert counts == base_counts

    @pytest.mark.parametrize("tree", ["kd", "octree", REMOVED_TREE])
    def test_tree_kinds(self, data, tree):
        Q, R = data
        if tree == REMOVED_TREE:
            assert_tree_refused(kde, Q, R, bandwidth=0.7, tau=0.0, tree=tree,
                                shards=2)
            return
        base = kde(Q, R, bandwidth=0.7, tau=0.0, tree=tree)
        sharded = kde(Q, R, bandwidth=0.7, tau=0.0, tree=tree, shards=2)
        np.testing.assert_allclose(base, sharded, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("traversal", ["stack", "batched"])
    def test_engines(self, data, traversal):
        Q, R = data
        base = kde(Q, R, bandwidth=0.7, tau=0.0, traversal=traversal)
        sharded = kde(Q, R, bandwidth=0.7, tau=0.0, traversal=traversal,
                      shards=2)
        np.testing.assert_allclose(base, sharded, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_stack_bound_rule(self, data, executor):
        """A bound rule under the stack engine and two shards: each
        shard's traversal decides its pairs against the ``qbound`` its
        own kernels were bound to, so k-NN equals the unsharded run on
        either engine, and the shards still prune."""
        Q, R = data
        pool = ({} if executor == "serial"
                else {"parallel": True, "workers": 2, "executor": executor})
        base = knn(Q, R, k=5, traversal="stack", leaf_size=8)
        with collect() as counters:
            sharded = knn(Q, R, k=5, traversal="stack", shards=2,
                          leaf_size=8, **pool)
        _assert_matches("tie-aware", base, sharded)
        _assert_matches("tie-aware", knn(Q, R, k=5, leaf_size=8), sharded)
        assert counters.as_dict()["traversal.pruned"] > 0

    def test_shards_one_is_the_unsharded_program(self, data):
        """``shards=1`` resolves to the plain single-tree layout —
        bit-identical, no shard stats."""
        Q, R = data
        expr = PortalExpr("shard-one")
        expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        expr.addLayer(PortalOp.SUM, Storage(R, name="reference"),
                      PortalFunc.GAUSSIAN, bandwidth=0.7)
        expr.execute(shards=1, tau=0.0)
        assert "shard" not in expr.stats()
        base = kde(Q, R, bandwidth=0.7, tau=0.0)
        assert np.array_equal(base, np.asarray(expr.getOutput().values))

    def test_self_exclusion_survives_sharding(self, data):
        """knn on a single dataset excludes self-pairs through labels
        (each shard's RLABEL names its points' query positions): the
        shard tree is never the query tree, so the unsharded diagonal
        test can't apply."""
        _, R = data
        base = knn(R, k=3)
        sharded = knn(R, k=3, shards=2)
        _assert_matches("tie-aware", base, sharded)
        n = len(R)
        assert not np.any(sharded[1] == np.arange(n)[:, None])

    def test_weighted_problem_sharded_process(self, data):
        """Barnes-Hut carries reference weights: ``rw`` is an array among
        each shard's bindings, and nothing on the query side — no
        ``None`` placeholder — may clobber it in the worker."""
        Q, _ = data
        w = np.full(len(Q), 0.5)
        base = barnes_hut_potential(Q, w, theta=1e-9)
        sharded = barnes_hut_potential(Q, w, theta=1e-9,
                                       **dict(PAR, shards=2))
        np.testing.assert_allclose(base, sharded, rtol=1e-12, atol=0)

    def test_uncached_sharded_process_releases_blocks(self, data):
        """An uncacheable program has no program token: the q +
        per-shard blocks are ephemeral and released after the run."""
        Q, R = data
        base = kde(Q, R, bandwidth=0.7, tau=0.0)
        before = shm.shared_block_stats()["blocks"]
        expr = uncacheable(PortalOp.SUM, Q, R, PortalFunc.GAUSSIAN,
                           bandwidth=0.7)
        sharded = np.asarray(
            expr.execute(tau=0.0, **dict(PAR, shards=2)).values)
        assert expr.stats()["cache"] is None
        np.testing.assert_allclose(base, sharded, rtol=1e-12, atol=0)
        assert shm.shared_block_stats()["blocks"] == before


class TestApproximationEnvelope:
    """kde's tau criterion and Barnes-Hut's theta acceptance act on
    tree-node geometry, so per-shard trees make different (but equally
    valid) approximation decisions.  The contract under sharding is the
    method's documented error envelope, not bit-identity."""

    def test_kde_tau_error_envelope(self, data):
        Q, R = data
        tau = 1e-3
        exact = kde(Q, R, bandwidth=0.7, tau=0.0)
        for opts in ({}, {"shards": 2}, {"shards": 4}):
            approx = kde(Q, R, bandwidth=0.7, tau=tau, **opts)
            assert np.max(np.abs(approx - exact)) <= tau * len(R)

    def test_barnes_hut_theta_error_envelope(self, data):
        Q, _ = data
        w = np.full(len(Q), 0.5)
        exact = barnes_hut_potential(Q, w, theta=1e-9)
        for opts in ({}, {"shards": 2}):
            approx = barnes_hut_potential(Q, w, theta=0.4, **opts)
            np.testing.assert_allclose(approx, exact, rtol=2e-2)


class TestCrossShardBroadcast:
    def test_per_shard_work_bounded_by_unsharded(self, data):
        """Each shard traverses a strict subset of the reference set, so
        no single shard can run more base-case pairs than the unsharded
        traversal — and the per-shard stats must say so."""
        Q, R = data
        with collect() as counters:
            knn(Q, R, k=5)
        unsharded_pairs = counters.get("traversal.base_case_pairs")
        assert unsharded_pairs > 0
        expr = PortalExpr("shard-stats")
        expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        expr.addLayer((PortalOp.KARGMIN, 5), Storage(R, name="reference"),
                      PortalFunc.EUCLIDEAN)
        expr.execute(shards=2)
        per_shard = expr.stats()["shard"]["per_shard"]
        assert len(per_shard) == 2
        for st in per_shard:
            assert 0 < st["base_case_pairs"] <= unsharded_pairs


class TestShardStats:
    def test_stats_block_shape(self, data):
        Q, R = data
        expr = PortalExpr("shard-stats-shape")
        expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        expr.addLayer(PortalOp.SUM, Storage(R, name="reference"),
                      PortalFunc.GAUSSIAN, bandwidth=0.7)
        expr.execute(shards=3)
        sh = expr.stats()["shard"]
        assert set(sh) == {"count", "per_shard"}
        assert sh["count"] == 3
        assert len(sh["per_shard"]) == 3

    def test_counters_flow(self, data):
        Q, R = data
        clear_caches()
        with collect() as counters:
            kde(Q, R, bandwidth=0.7, shards=2)
        d = counters.as_dict()
        assert d["shard.runs"] == 1
        assert d["shard.builds"] == 2


class TestPlanning:
    def test_partition_tiles_exactly(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((257, 3))
        parts = plan_shards(pts, 4)
        assert len(parts) == 4
        joined = np.sort(np.concatenate(parts))
        assert np.array_equal(joined, np.arange(257))
        for p in parts:
            assert np.all(np.diff(p) > 0)  # ascending, unique

    def test_balanced_and_deterministic(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((4096, 2))
        a = plan_shards(pts, 8)
        b = plan_shards(pts, 8)
        sizes = sorted(len(p) for p in a)
        assert sizes[-1] - sizes[0] <= 1  # median cuts halve exactly
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_spatial_compactness(self):
        """The split is a median cut on the widest dimension: two
        well-separated clusters land in different shards."""
        Q, R = _clustered(100, 100, 1)
        parts = plan_shards(R, 2)
        labels = np.concatenate([np.zeros(100), np.ones(100)])
        for p in parts:
            assert len(np.unique(labels[p])) == 1


def shard_count(shards, nr, workers=None):
    return plan_for({"shards": shards, "workers": workers}, nq=1,
                    nr=nr).shards


class TestResolution:
    def test_defaults_and_explicit(self):
        assert shard_count(None, 10_000) == 1
        assert shard_count(1, 10_000) == 1
        assert shard_count(3, 10_000) == 3
        assert shard_count(64, 10) == 10  # clamped to nr

    def test_auto_small_reference_stays_unsharded(self):
        """``'auto'`` is no count: the option table refuses it, and an
        unasked count stays one shard at any size."""
        with pytest.raises(SpecificationError, match="shards"):
            shard_count("auto", 1000, workers=8)
        assert shard_count(None, 1000, workers=8) == 1

    def test_auto_scales_with_workers_and_size(self):
        """Neither worker count nor reference size shards unasked."""
        for workers in (2, 8):
            with pytest.raises(SpecificationError, match="shards"):
                shard_count("auto", 1 << 22, workers=workers)
            assert shard_count(None, 1 << 22, workers=workers) == 1

    def test_auto_refused_from_execute(self, data):
        """``execute`` refuses ``shards='auto'`` before any work, and an
        explicit count still shards."""
        Q, R = data
        with pytest.raises(SpecificationError, match="shards"):
            knn(Q, R, k=3, shards="auto", workers=2)
        expr = PortalExpr("explicit-shards")
        expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        expr.addLayer((PortalOp.KARGMIN, 3), Storage(R, name="reference"),
                      PortalFunc.EUCLIDEAN)
        expr.execute(shards=2)
        assert expr.stats()["shard"]["count"] == 2

    def test_invalid_count_rejected(self):
        with pytest.raises(SpecificationError, match="shards"):
            shard_count(0, 100)

    def test_option_validation(self):
        assert CompileOptions.from_dict({"shards": 4}).shards == 4
        # a shard count is an integer: no string is parsed into one
        for asked in ("auto", "4", "many"):
            with pytest.raises(SpecificationError, match="shards"):
                CompileOptions.from_dict({"shards": asked})
        with pytest.raises(SpecificationError, match="shards"):
            CompileOptions.from_dict({"shards": 0})


class TestWorkersEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert default_workers() == 6

    def test_env_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()

    def test_affinity_fallback_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        assert default_workers() == 4


class TestSharedMemoryConcurrency:
    """The sharded layout multiplies blocks per program (``{token}``
    plus ``{token}::r{i}``), so the registry's LRU and teardown now run
    under real concurrency: per-shard publishes come from the build
    pool's threads."""

    def test_lru_eviction_under_threaded_publish(self):
        try:
            n_threads, per_thread = 4, shm.MAX_BLOCKS
            start = threading.Barrier(n_threads)
            errors = []

            def worker(t):
                try:
                    start.wait()
                    for i in range(per_thread):
                        shm.publish_arrays(f"t-conc-{t}-{i}",
                                           {"x": np.arange(8.0)})
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert not errors
            assert shm.shared_block_stats()["blocks"] <= shm.MAX_BLOCKS
        finally:
            shm.release_shared_blocks()

    def test_release_during_concurrent_publish(self):
        """release_shared_blocks racing live publishers must neither
        deadlock nor leak: every segment is eventually closed and a
        final release leaves the registry empty.

        Iteration-bounded, not wall-clock-bounded: each publisher does a
        fixed amount of work and the releaser races it until the last
        publisher finishes, so the soak's duration scales with the host
        instead of a hardcoded sleep."""
        n_publishers, per_publisher = 3, 80
        publishers_done = threading.Event()
        live = [n_publishers]
        lock = threading.Lock()
        errors = []

        def publisher(t):
            try:
                for i in range(per_publisher):
                    shm.publish_arrays(f"t-race-{t}-{i % 6}",
                                       {"x": np.arange(16.0)})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                with lock:
                    live[0] -= 1
                    if live[0] == 0:
                        publishers_done.set()

        def releaser():
            try:
                while not publishers_done.is_set():
                    shm.release_shared_blocks()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = ([threading.Thread(target=publisher, args=(t,))
                    for t in range(n_publishers)]
                   + [threading.Thread(target=releaser)])
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        shm.release_shared_blocks()
        assert not errors
        assert shm.shared_block_stats()["blocks"] == 0

    def test_same_token_publish_race_returns_one_block(self):
        """Concurrent publishes of one token converge on a single
        segment (losers are discarded and closed)."""
        try:
            names = [None] * 8
            start = threading.Barrier(8)

            def worker(t):
                start.wait()
                names[t], _ = shm.publish_arrays(
                    "t-same", {"x": np.arange(4.0)})

            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert len(set(names)) == 1
            assert shm.shared_block_stats()["blocks"] == 1
        finally:
            shm.release_block("t-same")


def test_sharded_pair_count(spine_datagen, monkeypatch):
    """A side of ``shards=2`` holds four query-subtree tasks on eight task
    slots, each run to completion against its own shard's bounds.  k-NN
    k = 5 on the 10 000-row IHEPC pair computes the same base-case pairs
    on all three runners, and outputs stay those of the unsharded run."""
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    rng = np.random.default_rng(0)
    Q, R = spine_datagen.ihepc(10_000, rng), spine_datagen.ihepc(10_000, rng)
    clear_caches()
    want_d, want_i = knn(Q, R, k=5)
    for runner in ({}, {"parallel": True, "workers": 2}, PAR):
        clear_caches()
        with collect() as counters:
            d, i = knn(Q, R, k=5, shards=2, **runner)
        assert counters.get("traversal.base_case_pairs") == 36_052_117
        assert d.tobytes() == want_d.tobytes()
        assert np.array_equal(i, want_i)
