"""Execution cache behaviour: code reuse by shape, tree reuse by data.

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
from repro.dsl.errors import SpecificationError
from repro.observe import collect
from repro.problems import kde, knn, range_count


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(99)
    Q = np.ascontiguousarray(rng.normal(size=(300, 3)))
    R = np.ascontiguousarray(rng.normal(size=(350, 3)))
    return Q, R


def _kde_expr(Q, R):
    return _kde_program(Storage(Q, name="query"), Storage(R, name="reference"))


def _kde_program(query, reference):
    expr = PortalExpr("kde-cache")
    expr.addLayer(PortalOp.FORALL, query)
    expr.addLayer(PortalOp.SUM, reference, PortalFunc.GAUSSIAN,
                  bandwidth=0.8)
    return expr


def _cache_counts(counters):
    """Cache probe outcomes (the fingerprint digests behind the keys are
    counted apart, under ``cache.fingerprint.*``)."""
    return {k: v for k, v in counters.as_dict().items()
            if k.startswith("cache.")
            and not k.startswith("cache.fingerprint.")}


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
        # the second execute binds the same trees from the tree cache
        assert c["cache.tree.hit"] == 2
        # compile.count only fires on the full pipeline
        assert counters.as_dict()["compile.count"] == 1
        assert np.array_equal(np.asarray(first.values),
                              np.asarray(second.values))

    def test_hit_skips_compile_stages(self, data):
        Q, R = data
        _kde_expr(Q, R).execute(tau=1e-3)
        expr = _kde_expr(Q, R)
        expr.execute(tau=1e-3)
        with collect() as counters:
            expr.execute(tau=1e-3)
        stats = expr.stats()
        assert stats["cache"] == "hit"
        # A served program never paid for codegen or a tree build: the
        # data half only looked its trees up.
        assert set(stats["compile_timings_ms"]) == {"tree_build"}
        assert "codegen" not in stats["compile_timings_ms"]
        assert counters.as_dict()["cache.tree.hit"] == 2
        assert "cache.tree.miss" not in counters.as_dict()

    def test_option_change_misses(self, data):
        """A code option is a compile; a tree parameter is new trees
        under the same code."""
        Q, R = data
        _kde_expr(Q, R).execute(tau=1e-3)
        with collect() as counters:
            _kde_expr(Q, R).execute(tau=1e-2)           # different tau
        c = _cache_counts(counters)
        assert c["cache.compile.miss"] == 1
        assert "cache.compile.hit" not in c
        with collect() as counters:
            _kde_expr(Q, R).execute(tau=1e-3, leaf_size=16)
        c = _cache_counts(counters)
        assert c["cache.compile.hit"] == 1
        assert c["cache.tree.miss"] == 2 and "cache.tree.hit" not in c

    def test_data_change_misses(self, data):
        """Other data is the same code over another tree: the code probe
        hits, the changed side's tree misses."""
        Q, R = data
        _kde_expr(Q, R).execute(tau=1e-3)
        Q2 = Q.copy()
        Q2[0, 0] += 1.0
        with collect() as counters:
            _kde_expr(Q2, R).execute(tau=1e-3)
        c = _cache_counts(counters)
        assert c["cache.compile.hit"] == 1
        assert c["cache.tree.miss"] == 1 and c["cache.tree.hit"] == 1

    def test_runtime_knobs_still_hit(self, data):
        """parallel / workers / traversal are runtime-only: same code."""
        Q, R = data
        _kde_expr(Q, R).execute(tau=1e-3, traversal="batched")
        with collect() as counters:
            _kde_expr(Q, R).execute(tau=1e-3, traversal="stack")
            _kde_expr(Q, R).execute(tau=1e-3, parallel=True, workers=2)
        c = _cache_counts(counters)
        assert c["cache.compile.hit"] == 2
        assert "cache.compile.miss" not in c

    @pytest.mark.parametrize("by_name", [{"leaf_size": 64}, {"shards": 1}])
    def test_default_asked_by_name_shares_the_entry(self, data, by_name):
        """The key holds what the options resolve to, so asking for the
        value a default resolves to (leaf size 64, one shard) is the same
        code, not a second compile."""
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
        """No option bypasses the caches: ``cache=`` of any value is the
        option table's refusal, before anything compiles."""
        Q, R = data
        with collect() as counters:
            for value in (False, True, "off"):
                with pytest.raises(SpecificationError, match="cache"):
                    _kde_expr(Q, R).execute(tau=1e-3, cache=value)
        assert not _cache_counts(counters)
        assert "compile.count" not in counters.as_dict()

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
    brute-force code of one program are distinct entries, and a request
    that resolves to the same backend shares one."""

    @pytest.fixture(autouse=True)
    def _fresh(self):
        clear_caches()

    def test_numpy_and_native_are_distinct_entries(self, data):
        Q, R = data
        with collect() as counters:
            _kde_expr(Q, R).execute(tau=0.0, backend="vectorized")
            _kde_expr(Q, R).execute(tau=0.0, backend="brute")
        c = _cache_counts(counters)
        assert c["cache.compile.miss"] == 2
        assert "cache.compile.hit" not in c
        assert cache_stats()["code"] == 2
        # …and each backend re-hits its *own* entry afterwards (the tree
        # one over its cached trees; brute mode builds none).
        with collect() as counters:
            first = _kde_expr(Q, R).execute(tau=0.0, backend="vectorized")
            second = _kde_expr(Q, R).execute(tau=0.0, backend="brute")
        assert _cache_counts(counters) == {"cache.compile.hit": 2,
                                           "cache.tree.hit": 2}
        np.testing.assert_allclose(np.asarray(first.values),
                                   np.asarray(second.values), rtol=1e-7)

    def test_fallen_back_native_shares_numpy_entry(self, data):
        """The default backend asked for by name resolves before keying
        and reuses the default's code instead of duplicating it."""
        Q, R = data
        with collect() as counters:
            first = _kde_expr(Q, R).execute(tau=1e-3)
            second = _kde_expr(Q, R).execute(tau=1e-3, backend="vectorized")
        c = _cache_counts(counters)
        assert c["cache.compile.miss"] == 1
        assert c["cache.compile.hit"] == 1
        assert cache_stats()["code"] == 1
        assert np.array_equal(np.asarray(first.values),
                              np.asarray(second.values))

    def test_clear_caches_drops_both(self, data):
        Q, R = data
        _kde_expr(Q, R).execute(tau=1e-3, backend="vectorized")
        _kde_expr(Q, R).execute(tau=1e-3, backend="brute")
        assert cache_stats()["code"] == 2
        clear_caches()
        assert cache_stats() == {"code": 0, "trees": 0}
        with collect() as counters:
            _kde_expr(Q, R).execute(tau=1e-3, backend="brute")
        assert _cache_counts(counters) == {"cache.compile.miss": 1}
        assert counters.as_dict()["compile.count"] == 1

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
        assert cache_stats()["code"] == 0
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
        assert cache_stats()["code"] >= 1
        assert cache_stats()["trees"] >= 1
        clear_caches()
        assert cache_stats() == {"code": 0, "trees": 0}


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
        assert cache_stats()["code"] == 0

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


def _fingerprints(s):
    return s.fingerprint("data"), s.fingerprint("weights")


def _edit(s, rng):
    """One update, one insert and one delete through the batch API."""
    s.update_batch([1, 4], rng.normal(size=(2, 3)), weights=[2.0, 3.0])
    s.insert_batch(rng.normal(size=(3, 3)), weights=[0.5, 0.5, 0.5])
    s.delete_batch([0, 7])


class TestChainedIdentity:
    """A logged mutation carries the Storage's content identity forward
    (hash at birth, extend per edit) instead of re-hashing the dataset."""

    def _pair(self):
        X = np.random.default_rng(3).normal(size=(40, 3))
        w = np.linspace(1.0, 2.0, 40)
        return (Storage(X, weights=w), Storage(X.copy(), weights=w.copy()))

    def test_same_base_same_edits_same_key(self):
        a, b = self._pair()
        assert _fingerprints(a) == _fingerprints(b)
        with collect() as c:
            _edit(a, np.random.default_rng(5))
            _edit(b, np.random.default_rng(5))
            fa, fb = _fingerprints(a), _fingerprints(b)
        assert fa == fb
        # chained, not re-hashed: 3 edits × (data, weights) × 2 Storages
        assert c.get("cache.fingerprint.chained") == 12
        assert c.get("cache.fingerprint.full") == 0
        # other edits give other keys
        _edit(b, np.random.default_rng(6))
        assert _fingerprints(b)[0] != fa[0] and _fingerprints(b)[1] != fa[1]

    def test_revert_is_another_key_with_the_same_answer(self):
        """Update-then-revert reaches the original content by another
        route: a different data key (a refit, never a false tree hit)
        whose answer is bitwise the answer over a fresh Storage of that
        content."""
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 3))
        Q = Storage(rng.normal(size=(50, 3)))
        R = Storage(X.copy())
        knn(Q, R, k=4)
        original = R.fingerprint("data")
        R.update_batch([3, 9], rng.normal(size=(2, 3)))
        R.update_batch([3, 9], X[[3, 9]])
        assert np.array_equal(R.data, X)
        assert R.fingerprint("data") != original
        with collect() as c:
            got = knn(Q, R, k=4)
        assert c.get("cache.compile.hit") == 1  # same shape: same code
        assert c.get("cache.tree.refit") == 1
        assert c.get("cache.tree.hit") == 1     # the query side only
        clear_caches()
        fresh = knn(Q, Storage(X.copy()), k=4)
        for a, b in zip(got, fresh):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_one_array_edit_keeps_the_other_key(self):
        s, _ = self._pair()
        data, weights = _fingerprints(s)
        s.update_batch([2, 5], weights=[4.0, 5.0])
        assert s.fingerprint("data") == data
        assert s.fingerprint("weights") != weights
        weights = s.fingerprint("weights")
        s.update_batch([2], np.ones((1, 3)))
        assert s.fingerprint("weights") == weights
        assert s.fingerprint("data") != data

    def test_full_hash_without_a_memo(self):
        """mark_mutated() drops the chain, and a Storage mutated before
        its first fingerprint has none to extend: both hash in full."""
        s, t = self._pair()
        s.fingerprint("data")
        _edit(s, np.random.default_rng(5))
        s.mark_mutated()
        assert s.fingerprint("data") == array_fingerprint(s.data)
        _edit(t, np.random.default_rng(5))
        with collect() as c:
            got = _fingerprints(t)
        assert c.get("cache.fingerprint.full") == 2
        assert got == (array_fingerprint(t.data),
                       array_fingerprint(t.weights))

    def test_steady_mutation_hashes_nothing_in_full(self):
        """Execute → update → execute: the second execute re-keys from
        the chained memo, with no full hash."""
        rng = np.random.default_rng(9)
        Q = Storage(rng.normal(size=(60, 3)), name="query")
        R = Storage(rng.normal(size=(400, 3)), name="reference")
        _kde_program(Q, R).execute(tau=1e-3)
        with collect() as c:
            R.update_batch(np.arange(4), rng.normal(size=(4, 3)))
        assert c.get("cache.fingerprint.chained") == 1
        with collect() as c:
            _kde_program(Q, R).execute(tau=1e-3)
        assert c.get("cache.fingerprint.full") == 0
        assert c.get("cache.fingerprint.chained") == 0
        assert c.get("cache.tree.refit") == 1
        assert c.get("cache.compile.hit") == 1
