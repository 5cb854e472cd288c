"""Execution cache behaviour: compiled-artifact and tree reuse.

A second ``execute()`` of the same logical program must skip compilation
and tree construction (counter-observable), return bitwise-identical
results, and miss when any compile-relevant input changes.
"""

import enum

import numpy as np
import pytest

from repro.backend.cache import (
    MISSING, LRUCache, UncacheableParamError, array_fingerprint,
    cache_stats, clear_caches, freeze,
)
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.observe import collect
from repro.problems import kde, range_count


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(99)
    Q = np.ascontiguousarray(rng.normal(size=(300, 3)))
    R = np.ascontiguousarray(rng.normal(size=(350, 3)))
    return Q, R


def _kde_expr(Q, R):
    expr = PortalExpr("kde-cache")
    expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    expr.addLayer(PortalOp.SUM, Storage(R, name="reference"),
                  PortalFunc.GAUSSIAN, bandwidth=0.8)
    return expr


def _cache_counts(counters):
    return {k: v for k, v in counters.as_dict().items()
            if k.startswith("cache.")}


class TestCompileCache:
    def test_second_execute_hits(self, data):
        Q, R = data
        with collect() as counters:
            first = _kde_expr(Q, R).execute(tau=1e-3)
            second = _kde_expr(Q, R).execute(tau=1e-3)
        c = _cache_counts(counters)
        assert c["cache.compile.miss"] == 1
        assert c["cache.compile.hit"] == 1
        assert c["cache.tree.miss"] == 2  # query + reference trees
        # the artifact hit carries its trees — no second tree probe
        assert "cache.tree.hit" not in c
        # compile.count only fires on the full pipeline
        assert counters.as_dict()["compile.count"] == 1
        assert np.array_equal(np.asarray(first.values),
                              np.asarray(second.values))

    def test_hit_skips_compile_stages(self, data):
        Q, R = data
        _kde_expr(Q, R).execute(tau=1e-3)
        expr = _kde_expr(Q, R)
        expr.execute(tau=1e-3)
        stats = expr.stats()
        assert stats["cache"] == "hit"
        # A served program never paid for tree building or codegen.
        assert "tree_build" not in stats["compile_timings_ms"]
        assert "codegen" not in stats["compile_timings_ms"]

    def test_option_change_misses(self, data):
        Q, R = data
        _kde_expr(Q, R).execute(tau=1e-3)
        with collect() as counters:
            _kde_expr(Q, R).execute(tau=1e-2)           # different tau
            _kde_expr(Q, R).execute(tau=1e-3, leaf_size=16)
        c = _cache_counts(counters)
        assert c["cache.compile.miss"] == 2
        assert "cache.compile.hit" not in c

    def test_data_change_misses(self, data):
        Q, R = data
        _kde_expr(Q, R).execute(tau=1e-3)
        Q2 = Q.copy()
        Q2[0, 0] += 1.0
        with collect() as counters:
            _kde_expr(Q2, R).execute(tau=1e-3)
        assert _cache_counts(counters)["cache.compile.miss"] == 1

    def test_runtime_knobs_still_hit(self, data):
        """parallel / workers / traversal are runtime-only: same artifact."""
        Q, R = data
        _kde_expr(Q, R).execute(tau=1e-3, traversal="batched")
        with collect() as counters:
            _kde_expr(Q, R).execute(tau=1e-3, traversal="stack")
            _kde_expr(Q, R).execute(tau=1e-3, parallel=True, workers=2,
                                    min_tasks=4)
        c = _cache_counts(counters)
        assert c["cache.compile.hit"] == 2
        assert "cache.compile.miss" not in c

    @pytest.mark.parametrize("by_name", [{"leaf_size": 64},
                                         {"layout": "column"}])
    def test_default_asked_by_name_shares_the_entry(self, data, by_name):
        """The key holds what the options resolve to, so asking for the
        value a default resolves to (3-D data lays out column-major) is
        the same artifact, not a second compile."""
        Q, R = data
        with collect() as counters:
            first = _kde_expr(Q, R).execute(tau=1e-3)
            second = _kde_expr(Q, R).execute(tau=1e-3, **by_name)
        c = _cache_counts(counters)
        assert c["cache.compile.miss"] == 1
        assert c["cache.compile.hit"] == 1
        assert np.array_equal(np.asarray(first.values),
                              np.asarray(second.values))

    def test_cache_false_bypasses(self, data):
        Q, R = data
        with collect() as counters:
            _kde_expr(Q, R).execute(tau=1e-3, cache=False)
            _kde_expr(Q, R).execute(tau=1e-3, cache=False)
        assert not _cache_counts(counters)
        assert counters.as_dict()["compile.count"] == 2

    def test_hit_outputs_bitwise_identical(self, data):
        Q, R = data
        miss = kde(Q, R, bandwidth=0.8, tau=1e-3)
        hit = kde(Q, R, bandwidth=0.8, tau=1e-3)
        assert np.array_equal(miss, hit)

    def test_hit_state_is_fresh(self, data):
        """Accumulators must not leak between cached executions: running
        the same program twice yields the same values, not doubled."""
        Q, R = data
        first = range_count(Q, R, h=1.0, leaf_size=8)
        second = range_count(Q, R, h=1.0, leaf_size=8)
        assert np.array_equal(first, second)


class TestBackendDimension:
    """The code key carries the ``backend`` option: the tree-engine and
    brute-force artifacts of one program are distinct entries, and a
    request that resolves to the same backend shares one."""

    @pytest.fixture(autouse=True)
    def _fresh(self):
        clear_caches()

    def test_numpy_and_native_are_distinct_entries(self, data):
        Q, R = data
        with collect() as counters:
            _kde_expr(Q, R).execute(tau=0.0, backend="vectorized")
            _kde_expr(Q, R).execute(tau=0.0, backend="brute")
        c = _cache_counts(counters)
        assert c["cache.compile.miss"] == c["cache.code.miss"] == 2
        assert "cache.compile.hit" not in c
        assert cache_stats()["programs"] == cache_stats()["code"] == 2
        # …and each backend re-hits its *own* entry afterwards.
        with collect() as counters:
            first = _kde_expr(Q, R).execute(tau=0.0, backend="vectorized")
            second = _kde_expr(Q, R).execute(tau=0.0, backend="brute")
        assert _cache_counts(counters) == {"cache.compile.hit": 2}
        np.testing.assert_allclose(np.asarray(first.values),
                                   np.asarray(second.values), rtol=1e-7)

    def test_fallen_back_native_shares_numpy_entry(self, data):
        """The default backend asked for by name resolves before keying
        and reuses the default's artifact instead of duplicating it."""
        Q, R = data
        with collect() as counters:
            first = _kde_expr(Q, R).execute(tau=1e-3)
            second = _kde_expr(Q, R).execute(tau=1e-3, backend="vectorized")
        c = _cache_counts(counters)
        assert c["cache.compile.miss"] == 1
        assert c["cache.compile.hit"] == 1
        assert cache_stats()["programs"] == 1
        assert np.array_equal(np.asarray(first.values),
                              np.asarray(second.values))

    def test_clear_caches_drops_both(self, data):
        Q, R = data
        _kde_expr(Q, R).execute(tau=1e-3, backend="vectorized")
        _kde_expr(Q, R).execute(tau=1e-3, backend="brute")
        assert cache_stats()["programs"] == 2
        assert cache_stats()["code"] == 2
        clear_caches()
        assert cache_stats() == {"programs": 0, "code": 0, "trees": 0}
        with collect() as counters:
            _kde_expr(Q, R).execute(tau=1e-3, backend="brute")
        assert _cache_counts(counters)["cache.compile.miss"] == 1
        assert _cache_counts(counters)["cache.code.miss"] == 1

    def test_uncacheable_native_still_executes(self, data):
        """An uncacheable-param program under the brute backend skips
        the cache but still compiles, binds and runs."""
        Q, R = data
        with collect() as counters:
            expr = _kde_expr(Q, R)
            expr.layers[1].params["opaque"] = object()
            out = expr.execute(tau=1e-3, backend="brute")
        c = counters.as_dict()
        assert c["cache.compile.uncacheable"] == 1
        assert "cache.compile.hit" not in c and "cache.compile.miss" not in c
        assert cache_stats()["programs"] == 0
        assert expr.stats()["backend"] == "brute"
        assert np.asarray(out.values).shape == (len(Q),)


class TestTreeCache:
    def test_cross_problem_tree_reuse(self, data):
        """Different problems over the same dataset share tree builds."""
        Q, R = data
        kde(Q, R, bandwidth=0.8, tau=1e-3)
        with collect() as counters:
            range_count(Q, R, h=1.0)
        c = _cache_counts(counters)
        assert c["cache.tree.hit"] == 2       # both trees reused
        assert "cache.tree.miss" not in c
        assert c["cache.compile.miss"] == 1   # but a different program

    def test_leaf_size_changes_tree_key(self, data):
        Q, R = data
        kde(Q, R, bandwidth=0.8, leaf_size=32)
        with collect() as counters:
            kde(Q, R, bandwidth=0.8, leaf_size=16)
        assert _cache_counts(counters)["cache.tree.miss"] == 2


class TestPrimitives:
    def test_array_fingerprint_content_based(self):
        a = np.arange(12.0).reshape(3, 4)
        assert array_fingerprint(a) == array_fingerprint(a.copy())
        b = a.copy()
        b[1, 2] += 1e-9
        assert array_fingerprint(a) != array_fingerprint(b)
        assert array_fingerprint(a) != array_fingerprint(a.reshape(4, 3))
        assert array_fingerprint(None) is None

    def test_freeze_hashable(self):
        key = freeze({"b": [1, 2], "a": np.ones(3), "c": {"x": None}})
        assert hash(key) == hash(key)
        assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})

    def test_lru_evicts_oldest(self):
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1    # refresh 'a'
        c.put("c", 3)             # evicts 'b'
        assert c.get("b") is None
        assert c.get("a") == 1 and c.get("c") == 3
        assert len(c) == 2

    def test_clear_caches(self, data):
        Q, R = data
        kde(Q, R, bandwidth=0.8)
        assert cache_stats()["programs"] >= 1
        assert cache_stats()["code"] >= 1
        assert cache_stats()["trees"] >= 1
        clear_caches()
        assert cache_stats() == {"programs": 0, "code": 0, "trees": 0}


class TestFreezeContentKeys:
    """Regression: freeze() must never fall back to repr(value) — default
    object reprs embed memory addresses, which alias after GC reuse."""

    def test_numpy_scalars(self):
        assert freeze(np.float64(1.5)) == freeze(np.float64(1.5))
        assert freeze(np.float64(1.5)) != freeze(np.float32(1.5))
        assert freeze(np.int64(3)) != freeze(np.float64(3))

    def test_sets_are_order_independent(self):
        assert freeze({3, 1, 2}) == freeze({2, 3, 1})
        assert freeze(frozenset({1})) == freeze({1})

    def test_enum_by_qualname_and_name(self):
        class Mode(enum.Enum):
            FAST = 1
            SLOW = 2

        assert freeze(Mode.FAST) == freeze(Mode.FAST)
        assert freeze(Mode.FAST) != freeze(Mode.SLOW)

    def test_opaque_object_raises(self):
        with pytest.raises(UncacheableParamError):
            freeze(object())
        with pytest.raises(UncacheableParamError):
            freeze({"param": object()})  # nested too

    def test_uncacheable_param_counts_and_runs_uncached(self, data):
        """A layer param with no content identity must skip the cache
        (counted), not poison it with an address-based key."""
        Q, R = data
        clear_caches()
        with collect() as counters:
            for _ in range(2):
                expr = _kde_expr(Q, R)
                expr.layers[1].params["opaque"] = object()
                expr.execute(tau=1e-3)
        c = counters.as_dict()
        assert c["cache.compile.uncacheable"] == 2
        assert "cache.compile.hit" not in c
        assert "cache.compile.miss" not in c
        assert c["compile.count"] == 2  # full pipeline both times
        assert cache_stats()["programs"] == 0

    def test_lru_none_value_is_a_hit(self):
        """Regression: a legitimately-None cached value must be
        distinguishable from a miss via the MISSING sentinel."""
        c = LRUCache(maxsize=4)
        c.put("k", None)
        assert c.get("k", MISSING) is None       # hit, value is None
        assert c.get("absent", MISSING) is MISSING
        assert c.get("absent") is None           # default default


class TestFingerprintMemo:
    """Regression: array_fingerprint is O(n); Storage memoizes it so
    cache *hits* stop re-hashing the dataset every execute()."""

    def test_memoized_within_version(self, monkeypatch):
        import repro.backend.cache as cache_mod

        calls = []
        real = cache_mod.array_fingerprint
        monkeypatch.setattr(cache_mod, "array_fingerprint",
                            lambda arr: calls.append(1) or real(arr))
        s = Storage(np.arange(30.0).reshape(10, 3))
        fp1 = s.fingerprint("data")
        fp2 = s.fingerprint("data")
        assert fp1 == fp2
        assert len(calls) == 1  # hashed once, served from the memo after

    def test_matches_raw_fingerprint(self):
        X = np.arange(30.0).reshape(10, 3)
        s = Storage(X, weights=np.ones(10))
        assert s.fingerprint("data") == array_fingerprint(s.data)
        assert s.fingerprint("weights") == array_fingerprint(s.weights)
        assert Storage(X).fingerprint("weights") is None

    def test_mark_mutated_invalidates(self):
        s = Storage(np.arange(30.0).reshape(10, 3))
        before = s.fingerprint("data")
        v0 = s.version
        s.data[0, 0] += 1.0
        s.mark_mutated()
        assert s.version == v0 + 1
        assert s.fingerprint("data") != before

    def test_weights_rebind_detected_without_mark(self):
        """Replacing the .weights array (new buffer) re-fingerprints even
        without mark_mutated(); only in-place writes need the call."""
        s = Storage(np.arange(30.0).reshape(10, 3), weights=np.ones(10))
        before = s.fingerprint("weights")
        s.weights = np.full(10, 2.0)
        assert s.fingerprint("weights") != before
