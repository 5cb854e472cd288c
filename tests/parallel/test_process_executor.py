"""The process executor: thread-vs-process differential correctness,
shared-memory publication lifecycle, executor resolution, and the
affinity-respecting worker default.

The load-bearing guarantee: ``executor="process"`` is an *implementation
swap*, not an algorithm change — same frontier decomposition, same
per-task traversal, disjoint query-range merges — so outputs, merged
``TraversalStats`` and observability counters must be **bit-identical**
to ``executor="thread"`` on every problem, tree kind and engine.
"""

import os

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.backend.jit import CompileOptions
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.dsl.errors import SpecificationError
from repro.observe import collect
from repro.parallel import default_workers, run_process_tasks
from repro.parallel import shm
from tests.backend.test_plan import plan_for
from tests.conftest import REMOVED_TREE, assert_tree_refused, uncacheable
from repro.problems import (
    barnes_hut_potential, directed_hausdorff, kde, knn, knn_regress,
    pair_count, range_count, range_search, two_point_correlation,
)

#: Thread and process runs schedule identical (query-subtree ×
#: reference-root) tasks: the decomposition is the host's.
PAR = {"parallel": True, "workers": 2}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(2026)
    X = rng.uniform(0, 8, size=(500, 3))
    return np.ascontiguousarray(X[:220]), np.ascontiguousarray(X[220:])


def _assert_bit_identical(a, b):
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_bit_identical(x, y)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b)  # bitwise, not allclose
    else:
        assert a == b


def _traversal_counts(counters):
    return {k: v for k, v in counters.as_dict().items()
            if k.startswith("traversal.")}


# The nine evaluated problems (paper Table III), each through both
# executors.  k-NN, Hausdorff and k-NN regression exercise the batched
# engine's bound-rule form; the rest run its stateless form under
# `traversal="batched"`.
PROBLEMS = {
    "kde": lambda Q, R, o: kde(Q, R, bandwidth=0.7, **o),
    "knn": lambda Q, R, o: knn(Q, R, k=5, **o),
    "range_search": lambda Q, R, o: range_search(Q, R, h=1.5, **o),
    "range_count": lambda Q, R, o: range_count(Q, R, h=1.5, **o),
    "two_point": lambda Q, R, o: two_point_correlation(Q, 1.0, **o),
    "hausdorff": lambda Q, R, o: directed_hausdorff(Q, R, **o),
    "barnes_hut": lambda Q, R, o: barnes_hut_potential(
        Q, np.full(len(Q), 0.5), theta=0.4, **o),
    "pair_count": lambda Q, R, o: pair_count(Q, R, h=1.2, **o),
    "knn_regress": lambda Q, R, o: knn_regress(
        R, np.arange(len(R), dtype=float), Q, k=3, **o),
}


class TestDifferentialProblems:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_process_matches_thread_bitwise(self, data, name):
        Q, R = data
        fn = PROBLEMS[name]
        thread = fn(Q, R, dict(PAR, executor="thread"))
        process = fn(Q, R, dict(PAR, executor="process"))
        _assert_bit_identical(thread, process)

    @pytest.mark.parametrize("problem", ["knn", "kde"])
    def test_merged_stats_and_counters_identical(self, data, problem):
        """The merged TraversalStats (shipped to the counters registry)
        must match the thread executor's exactly — visited, pruned,
        base_case_pairs, everything."""
        Q, R = data
        fn = PROBLEMS[problem]
        runs = []
        for executor in ("thread", "process"):
            clear_caches()
            with collect() as counters:
                fn(Q, R, dict(PAR, executor=executor))
            runs.append(_traversal_counts(counters))
        assert runs[0] == runs[1]
        assert runs[0]["traversal.visited"] > 0
        assert runs[0]["traversal.base_case_pairs"] > 0

    def test_uncached_program_runs_process(self, data):
        """An uncacheable program has no program token: the publication
        is ephemeral, released after the run, and still bit-identical."""
        Q, R = data

        def run(executor):
            expr = uncacheable(PortalOp.SUM, Q, R, PortalFunc.GAUSSIAN,
                               bandwidth=0.7)
            out = expr.execute(tau=1e-3, **dict(PAR, executor=executor))
            assert expr.stats()["cache"] is None
            return np.asarray(out.values)

        thread = run("thread")
        before = shm.shared_block_stats()["blocks"]
        process = run("process")
        assert np.array_equal(thread, process)
        assert shm.shared_block_stats()["blocks"] == before  # released


class TestTreesAndEngines:
    @pytest.mark.parametrize("tree", ["kd", "octree", REMOVED_TREE])
    def test_tree_kinds(self, data, tree):
        Q, R = data
        if tree == REMOVED_TREE:
            assert_tree_refused(kde, Q, R, bandwidth=0.7, tree=tree,
                                **dict(PAR, executor="process"))
            return
        thread = kde(Q, R, bandwidth=0.7, tree=tree,
                     **dict(PAR, executor="thread"))
        process = kde(Q, R, bandwidth=0.7, tree=tree,
                      **dict(PAR, executor="process"))
        assert np.array_equal(thread, process)

    @pytest.mark.parametrize("traversal", ["stack", "batched"])
    def test_engines(self, data, traversal):
        Q, R = data
        thread = kde(Q, R, bandwidth=0.7, traversal=traversal,
                     **dict(PAR, executor="thread"))
        process = kde(Q, R, bandwidth=0.7, traversal=traversal,
                      **dict(PAR, executor="process"))
        assert np.array_equal(thread, process)

    def test_knn_bound_rule_routes_bounded_under_process(self, data):
        """k-NN requested batched runs the engine's bound-aware form;
        that form must carry through the process executor, which ships
        each worker's ``qbound`` slice back for the parent-side merge."""
        Q, R = data
        expr = PortalExpr("knn-routing")
        expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        expr.addLayer((PortalOp.KARGMIN, 5), Storage(R, name="reference"),
                      PortalFunc.EUCLIDEAN)
        out = expr.execute(traversal="batched", executor="process", **PAR)
        stats = expr.stats()
        assert stats["traversal_engine"] == "batched"
        assert expr.program.kernels.bound_key_batch is not None
        assert stats["executor"] == "process"
        assert stats["bounded"]["epochs"] > 0
        thread = knn(Q, R, k=5, traversal="batched",
                     **dict(PAR, executor="thread"))
        assert np.array_equal(thread[0], np.asarray(out.values))


class TestExecutorResolution:
    def test_auto_picks_process_for_stack(self):
        assert plan_for(dict(PAR, executor="auto",
                             traversal="stack")).executor == "process"

    def test_auto_picks_thread_for_batched(self):
        assert plan_for(dict(PAR, executor="auto",
                             traversal="batched")).executor == "thread"

    def test_explicit_wins(self):
        assert plan_for(dict(PAR, executor="thread",
                             traversal="stack")).executor == "thread"
        assert plan_for(dict(PAR, executor="process",
                             traversal="batched")).executor == "process"

    def test_unknown_executor_rejected(self):
        with pytest.raises(SpecificationError, match="executor"):
            CompileOptions.from_dict({"executor": "greenlet"})

    def test_env_override_applies_when_not_explicit(self):
        assert plan_for(PAR, {"REPRO_EXECUTOR": "process"}
                        ).executor == "process"

    def test_explicit_option_beats_env(self):
        assert plan_for(dict(PAR, executor="thread"),
                        {"REPRO_EXECUTOR": "process"}).executor == "thread"

    def test_invalid_env_override_rejected(self):
        with pytest.raises(SpecificationError, match="executor"):
            plan_for({}, {"REPRO_EXECUTOR": "quantum"})

    def test_stats_report_executor(self, data):
        Q, R = data
        expr = PortalExpr("kde-executor-stats")
        expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        expr.addLayer(PortalOp.SUM, Storage(R, name="reference"),
                      PortalFunc.GAUSSIAN, bandwidth=0.7)
        expr.execute(executor="thread", **PAR)
        assert expr.stats()["executor"] == "thread"

    @pytest.mark.parametrize("shards", [1, 2])
    def test_stats_report_the_executor_that_runs(self, data, shards):
        """A process pool of one worker is the in-process path, and the
        executor is known from compile time on — not written by run()."""
        Q, R = data
        expr = PortalExpr("kde-executor-stats")
        expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        expr.addLayer(PortalOp.SUM, Storage(R, name="reference"),
                      PortalFunc.GAUSSIAN, bandwidth=0.7)
        with collect() as counters:
            program = expr.compile(parallel=True, workers=1,
                                   executor="process", shards=shards)
            assert expr.stats()["executor"] == "thread"
            program.run()
        assert expr.stats()["executor"] == "thread"
        assert expr.stats()["plan"]["executor"] == {
            "value": "thread", "source": "explicit"}
        assert "shm.publish.miss" not in counters.as_dict()
        expr.compile(executor="process", **PAR)
        assert expr.stats()["executor"] == "process"


class TestDefaultWorkers:
    def test_respects_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert default_workers() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert default_workers() == max(1, os.cpu_count() or 1)

    def test_never_below_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(), raising=False)
        assert default_workers() == 1


def _shm_blocks() -> set:
    return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestOneTask:
    @pytest.mark.parametrize("cache", [True, False])
    def test_one_leaf_query_runs_serially_and_publishes_nothing(
            self, data, cache):
        """A process run whose query tree is one leaf is one task: it
        takes the serial path over the kernels the caller bound, so the
        caller builds no worker program and publishes no block — and it
        answers bitwise as the thread executor does.  ``cache`` False
        runs a program that is never cached (no program token)."""
        from repro.parallel import worker

        Q, R = data

        def run(executor):
            if cache:
                return knn(Q[:20], R, k=3, executor=executor, **PAR)
            out = uncacheable((PortalOp.KARGMIN, 3), Q[:20], R,
                              PortalFunc.EUCLIDEAN).execute(
                executor=executor, **PAR)
            return np.asarray(out.values), np.asarray(out.indices)

        before = _shm_blocks()
        got = run("process")
        assert not worker._PROGRAMS
        assert shm.shared_block_stats()["blocks"] == 0
        assert _shm_blocks() <= before
        _assert_bit_identical(got, run("thread"))


class TestSharedMemory:
    def test_publish_attach_roundtrip(self):
        arrays = {
            "a": np.arange(12.0).reshape(3, 4),
            "b": np.array([True, False, True]),
            "c": np.arange(5, dtype=np.int64),
        }
        name, manifest = shm.publish_arrays("t-roundtrip", arrays)
        try:
            handle, views = shm.attach_arrays(name, manifest)
            try:
                for key, arr in arrays.items():
                    assert np.array_equal(views[key], arr)
                    assert views[key].dtype == arr.dtype
                    assert not views[key].flags.writeable
            finally:
                views.clear()
                handle.close()
        finally:
            shm.release_block("t-roundtrip")

    def test_aliased_arrays_stored_once(self):
        big = np.zeros((1000, 8))
        name, manifest = shm.publish_arrays("t-alias",
                                            {"x": big, "y": big})
        try:
            assert manifest["x"] == manifest["y"]
            stats = shm.shared_block_stats()
            assert stats["bytes"] < 2 * big.nbytes
        finally:
            shm.release_block("t-alias")

    def test_republish_hits(self):
        arr = {"x": np.arange(4.0)}
        with collect() as counters:
            name1, _ = shm.publish_arrays("t-hit", arr)
            name2, _ = shm.publish_arrays("t-hit", arr)
        try:
            assert name1 == name2
            assert counters.get("shm.publish.miss") == 1
            assert counters.get("shm.publish.hit") == 1
        finally:
            shm.release_block("t-hit")

    def test_release_unlinks(self):
        name, manifest = shm.publish_arrays("t-release",
                                            {"x": np.arange(4.0)})
        shm.release_block("t-release")
        with pytest.raises(FileNotFoundError):
            shm.attach_arrays(name, manifest)

    def test_lru_bounds_block_count(self):
        try:
            for i in range(shm.MAX_BLOCKS + 3):
                shm.publish_arrays(f"t-lru-{i}", {"x": np.arange(4.0)})
            assert shm.shared_block_stats()["blocks"] <= shm.MAX_BLOCKS
        finally:
            shm.release_shared_blocks()

    def test_clear_caches_releases_blocks(self):
        shm.publish_arrays("t-clear", {"x": np.arange(4.0)})
        clear_caches()
        assert shm.shared_block_stats()["blocks"] == 0


def _square(x):
    return x * x


def _raise(msg):
    raise ValueError(msg)


class TestRunProcessTasks:
    def test_results_in_order(self):
        assert run_process_tasks(_square, list(range(8)),
                                 workers=2) == [i * i for i in range(8)]

    def test_serial_fallback(self):
        assert run_process_tasks(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_exception_propagates(self):
        with pytest.raises(ValueError, match="kaboom"):
            run_process_tasks(_raise, ["kaboom"] * 4, workers=2)

    def test_shutdown_joins_the_pool_s_workers(self):
        """``shutdown_pools`` waits for a live process pool: no worker
        outlives it, so the interpreter's exit hook never writes to a
        pool whose wakeup pipe is already closed."""
        import multiprocessing

        from repro.parallel.executor import shutdown_pools

        assert run_process_tasks(_square, [1, 2, 3, 4], workers=2) == [
            1, 4, 9, 16]
        assert multiprocessing.active_children()
        shutdown_pools()
        assert multiprocessing.active_children() == []
