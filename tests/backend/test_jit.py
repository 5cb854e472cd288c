"""Tests for the compilation driver (modes, options, validation, the
code/data seam and ``PortalExpr.rebind``)."""

import dataclasses
import gc
import os
import pathlib
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.dsl import (
    CompileError, PortalExpr, PortalFunc, PortalOp, SpecificationError,
    Storage, Var, indicator, pow, sqrt,
)
from repro.backend import jit
from repro.backend import program as program_mod
from repro.backend.cache import cache_stats, clear_caches
from repro.backend.codegen import generate
from repro.backend.jit import CompileOptions
from repro.backend.plan import resolve_plan
from repro.dsl.errors import OperatorError
from repro.dsl.expr import DistVar
from repro.dsl.funcs import MetricKernel
from repro.dsl.layer import Layer
from repro.dsl.parser import parse_program
from repro.ir import lowering
from repro.ir.passes import PassManager
from repro.observe import collect
from tests.conftest import REMOVED_TREE, assert_tree_refused
from tests.parallel.test_process_executor import _assert_bit_identical


@pytest.fixture
def rng():
    return np.random.default_rng(12)


def nn_expr(rng, d=3, n=60):
    e = PortalExpr("nn")
    e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(n, d)), name="q"))
    e.addLayer(PortalOp.ARGMIN, Storage(rng.normal(size=(n + 10, d)), name="r"),
               PortalFunc.EUCLIDEAN)
    return e


class TestOptions:
    def test_defaults(self):
        opts = CompileOptions.from_dict({})
        assert opts.backend == "vectorized" and opts.tree == "kd"
        assert not hasattr(opts, "fastmath")

    def test_unknown_rejected(self):
        with pytest.raises(SpecificationError):
            CompileOptions.from_dict({"bogus": 1})


class TestModes:
    def test_tree_mode_default(self, rng):
        prog = nn_expr(rng).compile()
        assert prog.mode == "tree"
        assert prog.qtree is not None

    def test_brute_backend_option(self, rng):
        prog = nn_expr(rng).compile(backend="brute")
        assert prog.mode == "brute"

    def test_tree_none_forces_brute(self, rng):
        """Brute force has one spelling, ``backend='brute'``: ``tree``
        names no 'none', and a brute program builds no tree whichever
        tree it names."""
        with pytest.raises(SpecificationError, match="unknown tree"):
            nn_expr(rng).compile(tree="none")
        prog = nn_expr(rng).compile(backend="brute", tree="octree")
        assert prog.mode == "brute" and prog.qtree is None

    def test_external_kernel_forces_brute(self, rng):
        e = PortalExpr()
        s1 = Storage(rng.normal(size=(20, 3)))
        s2 = Storage(rng.normal(size=(20, 3)))
        e.addLayer(PortalOp.FORALL, s1)
        e.addLayer(PortalOp.SUM, s2,
                   lambda Q, R: np.ones((len(Q), len(R))))
        prog = e.compile()
        assert prog.mode == "brute"
        out = prog.run()
        assert np.allclose(out.values, 20.0)

    def test_nonmonotone_kernel_forces_brute(self, rng):
        # g(t) = (t-1)² dips and rises: no kernel bounds from distance bounds.
        q, r = Var("q"), Var("r")
        t = pow(q - r, 2)
        e = PortalExpr()
        s = Storage(rng.normal(size=(20, 3)))
        e.addLayer(PortalOp.FORALL, s)
        e.addLayer(PortalOp.SUM, Storage(rng.normal(size=(20, 3))),
                   (t - 1.0) * (t - 1.0))
        prog = e.compile()
        assert prog.mode == "brute"
        assert prog.classification.algorithm == "brute"

    def test_octree_dim_guard(self, rng):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(20, 5))))
        e.addLayer(PortalOp.ARGMIN, Storage(rng.normal(size=(20, 5))),
                   PortalFunc.EUCLIDEAN)
        with pytest.raises(CompileError, match="octrees require"):
            e.compile(tree="octree")

    def test_ball_tree_euclidean_only(self, rng):
        """The deleted ball tree refused non-Euclidean metrics; now the
        option table refuses ``tree='ball'`` before any metric is looked
        at, and the kd-tree runs Manhattan."""
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(20, 3))))
        e.addLayer(PortalOp.MIN, Storage(rng.normal(size=(20, 3))),
                   PortalFunc.MANHATTAN)
        assert_tree_refused(e.compile, tree=REMOVED_TREE)
        assert e.compile(tree="kd").mode == "tree"

    def test_ball_tree_works_for_euclidean(self, rng):
        """Euclidean programs are refused the ball tree too; the kd-tree
        it ran bit for bit answers them."""
        assert_tree_refused(nn_expr(rng).compile, tree=REMOVED_TREE)
        out = nn_expr(rng).compile(tree="kd").run()
        assert out.values.shape == (60,)


class TestBehaviour:
    def test_tree_equals_brute(self, rng):
        e1 = nn_expr(rng)
        out_tree = e1.execute()
        delta = e1.program.validate_against_brute()
        assert delta < 1e-12

    def _sum_of_distances(self, rng):
        # SUM is not order-based, so g = sqrt stays in the hot path of
        # the generated source.
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(30, 3))))
        e.addLayer(PortalOp.SUM, Storage(rng.normal(size=(30, 3))),
                   PortalFunc.EUCLIDEAN)
        return e

    def test_fastmath_off_is_exact_sqrt(self, rng):
        # One arithmetic: sqrt is emitted as the exact ufunc, and the
        # retired ``fastmath`` knob is an unknown option.
        e = self._sum_of_distances(rng)
        e.compile()
        base_case = e.generated_source().split("def base_case")[1]
        assert "np.sqrt(" in base_case and "finvsqrt" not in base_case
        with pytest.raises(SpecificationError, match="fastmath"):
            self._sum_of_distances(rng).compile(fastmath=True)

    def test_monotone_map_deferred_for_ordered_reductions(self, rng):
        # ARGMIN over sqrt(t): the generated base case reduces raw t and
        # the sqrt happens once at finalisation.
        e = nn_expr(rng)
        e.compile()
        src = e.generated_source()
        assert "np.sqrt" not in src.split("def base_case")[1].split("def ")[0]
        assert e.program.state.value_transform is not None

    def test_exclude_self_default_on_self_join(self, rng):
        s = Storage(rng.normal(size=(50, 3)))
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, s)
        e.addLayer(PortalOp.ARGMIN, s, PortalFunc.EUCLIDEAN)
        out = e.execute()
        assert np.all(out.indices != np.arange(50))

    def test_exclude_self_override(self, rng):
        s = Storage(rng.normal(size=(50, 3)))
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, s)
        e.addLayer(PortalOp.ARGMIN, s, PortalFunc.EUCLIDEAN)
        out = e.execute(exclude_self=False)
        assert np.all(out.indices == np.arange(50))
        assert np.allclose(out.values, 0.0)

    def test_same_storage_shares_tree(self, rng):
        s = Storage(rng.normal(size=(50, 3)))
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, s)
        e.addLayer(PortalOp.ARGMIN, s, PortalFunc.EUCLIDEAN)
        prog = e.compile()
        assert prog.qtree is prog.rtree

    def test_stats_populated(self, rng):
        e = nn_expr(rng)
        e.execute()
        st = e.program.stats
        assert st.base_cases > 0 and st.visited >= st.base_cases

    def test_whitening_runs_through_tree(self, rng):
        cov = np.diag([1.0, 4.0, 9.0])
        Q = rng.normal(size=(40, 3))
        R = rng.normal(size=(50, 3))
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(Q))
        e.addLayer(PortalOp.MIN, Storage(R), PortalFunc.MAHALANOBIS,
                   covariance=cov)
        out = e.execute()
        diff = Q[:, None, :] - R[None, :, :]
        maha = np.einsum("ijk,kl,ijl->ij", diff, np.linalg.inv(cov), diff)
        assert np.allclose(out.values, maha.min(axis=1), rtol=1e-8)

    def test_modifier_callable(self, rng):
        s1 = Storage(rng.normal(size=(20, 3)))
        s2 = Storage(rng.normal(size=(25, 3)))
        e = PortalExpr()
        e.addLayer(PortalOp.SUM, s1, np.log)
        e.addLayer(PortalOp.SUM, s2, PortalFunc.GAUSSIAN, bandwidth=2.0)
        out = e.execute(exclude_self=False)
        d2 = ((s1.data[:, None, :] - s2.data[None, :, :]) ** 2).sum(-1)
        expected = np.log(np.exp(-d2 / 8.0).sum(axis=1)).sum()
        assert out.scalar == pytest.approx(expected, rel=1e-4)

    def test_bad_modifier_rejected(self, rng):
        s = Storage(rng.normal(size=(20, 3)))
        e = PortalExpr()
        e.addLayer(PortalOp.SUM, s, "not-a-function")
        e.addLayer(PortalOp.SUM, s, PortalFunc.GAUSSIAN)
        from repro.dsl import PortalError

        with pytest.raises(PortalError):
            e.compile()

    def test_leaf_size_option(self, rng):
        e = nn_expr(rng, n=200)
        e.compile(leaf_size=10)
        assert e.program.qtree.leaf_size == 10


class TestStatsConcurrency:
    """``stats_summary()`` must snapshot, never iterate live dicts that a
    concurrent ``run()`` is mutating (the serving layer reads stats for
    its health endpoint while worker threads execute)."""

    def test_stats_during_concurrent_runs(self, rng):
        import threading

        e = nn_expr(rng, n=120)
        prog = e.compile()
        prog.run()  # populate timings once

        errors = []
        stop = threading.Event()

        def runner():
            try:
                while not stop.is_set():
                    prog.run()
            except Exception as exc:  # pragma: no cover - regression
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    st = prog.stats_summary()
                    # a torn snapshot would miss keys or raise above
                    assert st["run_ms"] is None or st["run_ms"] >= 0
                    assert "traversal" in st
            except Exception as exc:  # pragma: no cover - regression
                errors.append(exc)

        threads = [threading.Thread(target=runner) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        # a short, bounded soak: plenty of interleavings, no sleeps
        for _ in range(200):
            prog.stats_summary()
        stop.set()
        for t in threads:
            t.join(10)
        assert not errors, errors

    def test_expr_stats_while_serving_fresh_expressions(self, rng):
        """PortalExpr.stats() under the serve pattern: one thread
        re-executes, another polls stats()."""
        import threading

        e = nn_expr(rng)
        e.execute()
        stop = threading.Event()
        errors = []

        def executor_thread():
            try:
                while not stop.is_set():
                    e.program.run()
            except Exception as exc:  # pragma: no cover - regression
                errors.append(exc)

        t = threading.Thread(target=executor_thread)
        t.start()
        try:
            for _ in range(300):
                st = e.stats()
                assert st["run_ms"] is None or st["run_ms"] >= 0
        finally:
            stop.set()
            t.join(10)
        assert not errors, errors


# -- the seam: code from program shape, bindings from data --------------------

SPINE_PROGRAMS = sorted(
    (pathlib.Path(__file__).resolve().parents[2]
     / "benchmarks" / "spine" / "programs").glob("*.portal"))
SPINE_TAU = {"kde", "naive_bayes", "barnes_hut"}


def _spine_expr(path, seed):
    rng = np.random.default_rng(seed)
    parsed = parse_program(path.read_text(), {
        "query": rng.normal(size=(64, 3)),
        "reference": rng.normal(size=(96, 3))})
    expr = parsed.portal_exprs[parsed.executed[0]]
    expr.validate()
    return expr


def _code_half_args(expr, options):
    opts = CompileOptions.from_dict(options)
    plan = resolve_plan(opts, os.environ, None, expr.layers)
    return expr, opts, plan


@pytest.mark.parametrize("path", SPINE_PROGRAMS, ids=lambda p: p.stem)
class TestCodeNeverReadsData:
    def options(self, path):
        return {"tau": 1e-3} if path.stem in SPINE_TAU else {}

    def test_same_shape_other_values_same_code(self, path, monkeypatch):
        """Two datasets of equal shape and different values give
        byte-identical source and an equal CodegenSpec — and the code
        half gets there with every data accessor of Storage raising."""
        options = self.options(path)
        first = _spine_expr(path, seed=1)
        code_a, _ = jit._compile_code(*_code_half_args(first, options))
        assert code_a.source == first.compile(**options).generated_source()

        args = _code_half_args(_spine_expr(path, seed=2), options)

        def boom(*_a, **_k):
            raise AssertionError("the code half read a dataset")

        monkeypatch.setattr(Storage, "data", property(boom))
        monkeypatch.setattr(Storage, "fingerprint", boom)
        code_b, _ = jit._compile_code(*args)
        assert code_b.source == code_a.source
        assert code_b.spec == code_a.spec
        assert code_b.scalars == code_a.scalars

    def test_key_covers_exactly_what_the_code_half_reads(self, path):
        """The Storage attributes ``_compile_code`` reads are the ones
        ``_code_key`` keys on: nothing read unkeyed (a stale hit), nothing
        keyed unread (a needless miss)."""
        reads = set()

        class Spy(Storage):
            def __getattribute__(self, name):
                if not name.startswith("_"):
                    reads.add(name)
                return super().__getattribute__(name)

        expr = _spine_expr(path, seed=3)
        args = _code_half_args(
            expr.rebind({l.storage: Spy(l.storage) for l in expr.layers}),
            self.options(path))
        reads.clear()
        jit._code_key(*args)
        keyed = set(reads)
        reads.clear()
        jit._compile_code(*args)
        assert reads == keyed == {"dim", "weights"}


# -- the code cache: one compile per program shape ----------------------------

PAR = {"parallel": True, "workers": 2}
CODE_HIT_CONFIGS = {
    "default": {},
    "tau": {"tau": 1e-3},
    "stack": {"traversal": "stack"},
    "shards2": {"shards": 2},
    "brute": {"backend": "brute"},
    "thread": dict(PAR, executor="thread"),
    "process": dict(PAR, executor="process"),
}


def _assert_bitwise(a, b):
    _assert_bit_identical((a.values, a.indices, a.scalar),
                          (b.values, b.indices, b.scalar))


def _compile_counts(counters):
    return {k: v for k, v in counters.as_dict().items()
            if k.startswith(("cache.co", "compile.", "rules."))}


@pytest.mark.parametrize("config", CODE_HIT_CONFIGS)
@pytest.mark.parametrize("path", SPINE_PROGRAMS, ids=lambda p: p.stem)
def test_same_shape_other_data_reuses_the_code_half(path, config):
    """A second dataset of equal shape and other values hits the code
    cache, compiles nothing — and computes what an uncached compile
    computes, from byte-identical source."""
    options = dict(CODE_HIT_CONFIGS[config])
    if path.stem in SPINE_TAU:
        options.setdefault("tau", 1e-3)
    first = _spine_expr(path, seed=1)
    first.execute(**options)
    assert first.stats()["cache"] == "miss"

    second = _spine_expr(path, seed=2)
    with collect() as counters:
        out = second.execute(**options)
    assert _compile_counts(counters) == {"cache.compile.hit": 1}
    stats = second.stats()
    assert stats["cache"] == "hit"
    assert set(stats["compile_timings_ms"]) <= {"tree_build", "shard_build"}
    assert (second.program.generated_source()
            == first.program.generated_source())
    clear_caches()
    _assert_bitwise(out, _spine_expr(path, seed=2).execute(**options))


REPEAT_CONFIGS = {name: CODE_HIT_CONFIGS[name]
                  for name in ("default", "shards2", "brute")}


@pytest.mark.parametrize("config", REPEAT_CONFIGS)
@pytest.mark.parametrize("path", SPINE_PROGRAMS, ids=lambda p: p.stem)
def test_repeat_execute_compiles_nothing_and_hashes_nothing(path, config):
    """Executing a program again over the same Storages finds its code
    in the code cache and every data product — trees, shard trees,
    whitened points and their fingerprints — in the tree cache: no
    compile, no full hash, and the bits of the first execute and of an
    uncached one."""
    options = dict(REPEAT_CONFIGS[config])
    if path.stem in SPINE_TAU:
        options.setdefault("tau", 1e-3)
    expr = _spine_expr(path, seed=4)
    first = expr.execute(**options)
    with collect() as counters:
        second = expr.execute(**options)
    assert counters.get("compile.count") == 0
    assert counters.get("cache.fingerprint.full") == 0
    assert counters.get("cache.compile.hit") == 1
    _assert_bitwise(second, first)
    clear_caches()
    _assert_bitwise(second, _spine_expr(path, seed=4).execute(**options))


def _kde_over(Q, R, *, weights=False, bandwidth=0.8, k=None):
    """Gaussian KDE over ``(Q, R)`` — or, given ``k``, k-NN."""
    e = PortalExpr("kde" if k is None else "knn")
    e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    rstorage = Storage(R, weights=np.ones(len(R)) if weights else None,
                       name="reference")
    if k is None:
        e.addLayer(PortalOp.SUM, rstorage, PortalFunc.GAUSSIAN,
                   bandwidth=bandwidth)
    else:
        e.addLayer((PortalOp.KARGMIN, k), rstorage, PortalFunc.EUCLIDEAN)
    return e


#: one ``_code_key`` field each: (the shape, the same shape but for it)
CODE_KEY_FIELDS = {
    "k": ({"k": 3}, {"k": 4}),
    "bandwidth": ({}, {"bandwidth": 0.5}),
    "weights": ({}, {"weights": True}),
    # the kernels the emitter writes: tree mode's or brute force's
    "codegen": ({}, {"backend": "brute"}),
}
_OPTION_FIELDS = ("backend",)


class TestCodeCache:
    @pytest.mark.parametrize("field", CODE_KEY_FIELDS)
    def test_anything_in_the_code_key_still_separates(self, rng, field):
        Q, R = rng.normal(size=(40, 3)), rng.normal(size=(60, 3))

        def run(Q, shape):
            options = {k: v for k, v in shape.items() if k in _OPTION_FIELDS}
            layers = {k: v for k, v in shape.items() if k not in options}
            with collect() as counters:
                _kde_over(Q, R, **layers).execute(**options)
            return _compile_counts(counters)

        shape, changed = CODE_KEY_FIELDS[field]
        run(Q, shape)
        # the control — same shape, other data — is a code hit …
        assert run(Q + 1.0, shape) == {"cache.compile.hit": 1}
        # … and the one changed field is a compile
        counts = run(Q + 2.0, changed)
        assert counts["cache.compile.miss"] == counts["compile.count"] == 1
        assert "cache.compile.hit" not in counts

    def test_clear_caches_empties_the_code_cache(self, rng):
        Q, R = rng.normal(size=(40, 3)), rng.normal(size=(60, 3))
        _kde_over(Q, R).execute()
        assert cache_stats()["code"] == 1
        clear_caches()
        assert cache_stats()["code"] == 0
        with collect() as counters:
            _kde_over(Q + 1.0, R).execute()
        assert _compile_counts(counters)["compile.count"] == 1
        assert _compile_counts(counters)["cache.compile.miss"] == 1

    def test_uncached_programs_touch_neither_cache(self, rng):
        Q, R = rng.normal(size=(40, 3)), rng.normal(size=(60, 3))
        _kde_over(Q, R).execute()
        before = cache_stats()
        opaque = _kde_over(Q + 1.0, R)
        opaque.layers[0] = dataclasses.replace(
            opaque.layers[0], op=PortalOp.SUM, func=np.log)
        unkeyable = _kde_over(Q + 1.0, R)
        unkeyable.layers[1].params["opaque"] = object()
        with collect() as counters:
            opaque.execute()
            unkeyable.execute()
        counts = _compile_counts(counters)
        assert counts["compile.count"] == 2
        assert counts["cache.compile.uncacheable"] == 1
        assert not any(k.startswith(("cache.compile.hit",
                                     "cache.compile.miss")) for k in counts)
        assert cache_stats()["code"] == before["code"] == 1

    def test_shared_code_holds_no_program_input(self, rng):
        """Everything on a ``_Code`` is derived from inputs ``_code_key``
        covers; a layer, kernel or Storage object — whose other
        attributes (a covariance) are data — is never kept with it, so
        the data half and ``_instantiate`` can only read the program's
        own."""
        e = PortalExpr("maha")
        e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(40, 3))))
        e.addLayer(PortalOp.MIN, Storage(rng.normal(size=(50, 3))),
                   PortalFunc.MAHALANOBIS, covariance=np.eye(3))
        e.validate()
        code, _ = jit._compile_code(*_code_half_args(e, {}))
        for field in dataclasses.fields(code):
            assert not isinstance(getattr(code, field.name),
                                  (MetricKernel, Layer, Storage)), field.name

    @pytest.mark.parametrize("backend", ["vectorized", "brute"])
    def test_bindings_never_alias_the_shared_scalars(self, rng, backend):
        Q, R = rng.normal(size=(40, 3)), rng.normal(size=(60, 3))
        first = _kde_over(Q, R, k=3).compile(backend=backend)
        first.bindings.scalars["K"] = 99
        second = _kde_over(Q + 1.0, R, k=3).compile(backend=backend)
        assert second.cache_state == "hit"
        assert second.bindings.scalars["K"] == 3

    @pytest.mark.parametrize("as_kernel", [False, True],
                             ids=["param", "metric-kernel"])
    def test_covariance_is_data_not_shape(self, rng, as_kernel):
        """Two Mahalanobis programs of one shape under different
        covariances never share a whitening transform — whether the
        covariance travels in ``params`` (a code-key field: a code miss)
        or on a ``MetricKernel`` whose repr hides an 11th-digit
        difference (a code hit over the program's own covariance)."""
        Q, R = rng.normal(size=(40, 3)), rng.normal(size=(50, 3))
        cov = np.diag([1.0, 4.0, 9.0])
        other = cov + (1e-11 if as_kernel else 1.0) * np.eye(3)

        def run(cov, **options):
            e = PortalExpr("maha")
            e.addLayer(PortalOp.FORALL, Storage(Q, name="q"))
            if as_kernel:
                e.addLayer(PortalOp.MIN, Storage(R, name="r"), MetricKernel(
                    "sqeuclidean", DistVar("t"), whiten=True, covariance=cov))
            else:
                e.addLayer(PortalOp.MIN, Storage(R, name="r"),
                           PortalFunc.MAHALANOBIS, covariance=cov)
            with collect() as counters:
                out = e.execute(**options)
            return out, _compile_counts(counters)

        first, _ = run(cov)
        second, counts = run(other)
        assert counts.get("cache.compile.hit", 0) == int(as_kernel)
        assert counts.get("cache.compile.miss", 0) == int(not as_kernel)
        assert not np.array_equal(first.values, second.values)
        clear_caches()
        assert np.array_equal(second.values, run(other)[0].values)

    def test_eight_threads_one_shape_other_data(self):
        """Concurrent first compiles of one shape: a double miss compiles
        twice and the last put wins — every thread still computes its own
        data's answer and is counted exactly once."""
        path = next(p for p in SPINE_PROGRAMS if p.stem == "kde")
        exprs = [_spine_expr(path, seed) for seed in range(8)]
        want = []
        for seed in range(8):
            clear_caches()
            want.append(_spine_expr(path, seed).execute(tau=1e-3))
        clear_caches()
        got, errors = [None] * 8, []
        barrier = threading.Barrier(8)

        def work(i):
            try:
                barrier.wait(10)
                got[i] = exprs[i].execute(tau=1e-3)
            except Exception as exc:  # pragma: no cover - regression
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with collect() as counters:
                threads = [threading.Thread(target=work, args=(i,))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        counts = _compile_counts(counters)
        assert (counts["cache.compile.miss"]
                + counts.get("cache.compile.hit", 0)) == 8
        assert counts["cache.compile.miss"] == counts["compile.count"] >= 1
        assert cache_stats()["code"] == 1
        for i in range(8):
            _assert_bitwise(got[i], want[i])


class TestKernelRelease:
    """exec-bound kernels are a cycle (namespace → function →
    ``__globals__``) pinning the trees' arrays; a dead program releases
    them by reference count, without waiting for the cycle collector."""

    @pytest.fixture(autouse=True)
    def _no_cycle_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @pytest.mark.parametrize("options", [{}, {"shards": 2}],
                             ids=["unsharded", "shards2"])
    def test_dead_program_frees_its_operands(self, rng, options):
        e = nn_expr(rng, n=200)
        program = e.compile(**options)
        program.run()
        bound = (program.shard_exec.kernels if options else [program.kernels])
        operands = [weakref.ref(k.namespace["RROW"]) for k in bound]
        assert all(ref() is not None for ref in operands)
        del bound, program, e
        clear_caches()  # the cached trees are the caches', not the program's
        assert all(ref() is None for ref in operands)

    def test_kernels_nobody_owns_are_left_alone(self, rng):
        e = nn_expr(rng, n=200)
        program = e.compile()
        code, _ = jit._compile_code(*_code_half_args(e, {}))
        loose = generate(code.spec, dict(program.kernels.namespace))
        del program, e
        assert loose.namespace["base_case"] is loose.base_case
        assert loose.namespace["RROW"].shape == (210, 3)


def test_storage_names_are_not_part_of_the_code_key(rng):
    """The emitted code never names a Storage, so the same shape under
    other names is a code hit; the IR, which does, is lowered from the
    program's own layers and dumps the new names."""
    Q, R = rng.normal(size=(40, 3)), rng.normal(size=(50, 3))

    def knn(qname, rname):
        e = PortalExpr("knn")
        e.addLayer(PortalOp.FORALL, Storage(Q, name=qname))
        e.addLayer((PortalOp.KARGMIN, 3), Storage(R, name=rname),
                   PortalFunc.EUCLIDEAN)
        e.execute()
        return e

    first = knn("alpha", "beta")
    assert first.stats()["cache"] == "miss"
    second = knn("gamma", "delta")
    assert second.stats()["cache"] == "hit"
    assert second.generated_source() == first.generated_source()
    assert "BaseCase(gamma, delta)" in second.ir_dump()
    assert "BaseCase(alpha, beta)" in first.ir_dump()


@pytest.mark.parametrize("k", [None, 3], ids=["kde", "knn"])
@pytest.mark.parametrize("backend", ["vectorized", "brute"])
def test_a_cold_compile_builds_no_ir(rng, monkeypatch, backend, k):
    """The emitter works from the kernel, not from the IR: a cold compile
    and its run never lower nor run a pass, and compute what they did
    with both in place; the IR waits for a reader."""
    Q, R = rng.normal(size=(60, 3)), rng.normal(size=(80, 3))
    ref = _kde_over(Q, R, k=k).execute(backend=backend)
    clear_caches()

    def boom(*_a, **_k):
        raise AssertionError("the IR was built")

    monkeypatch.setattr(lowering, "lower", boom)
    monkeypatch.setattr(program_mod, "lower", boom)
    monkeypatch.setattr(PassManager, "run", boom)
    expr = _kde_over(Q, R, k=k)
    with collect() as counters:
        out = expr.execute(backend=backend)
    assert counters.get("cache.compile.miss") == 1
    _assert_bitwise(out, ref)
    with pytest.raises(AssertionError, match="the IR was built"):
        expr.ir_dump()


class TestRebind:
    def test_shared_storage_stays_shared(self, rng):
        data = Storage(rng.normal(size=(80, 3)), name="data")
        other = Storage(rng.normal(size=(30, 3)), name="other")
        mono = PortalExpr("pairs")
        mono.addLayer(PortalOp.FORALL, data)
        mono.addLayer((PortalOp.KARGMIN, 2), data, PortalFunc.EUCLIDEAN)
        mono.validate()

        sub = Storage(data.data[::2], name="sub")
        again = mono.rebind({data: sub, other: data})
        assert again.layers[0].storage is again.layers[1].storage is sub
        assert mono.layers[0].storage is data          # source untouched
        assert again.layers[1].func is mono.layers[1].func
        assert again.layers[1].var is mono.layers[1].var
        assert again.layers[1].metric_kernel is mono.layers[1].metric_kernel
        assert again.compile().same_data

        same = mono.rebind({})
        assert same.layers[0] is not mono.layers[0]
        assert same.layers[0].storage is same.layers[1].storage is data

    def test_k_overrides_only_a_k_taking_innermost_layer(self, rng):
        knn = PortalExpr("knn")
        knn.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(20, 3))))
        knn.addLayer((PortalOp.KARGMIN, 2), Storage(rng.normal(size=(30, 3))),
                     PortalFunc.EUCLIDEAN)
        assert [l.k for l in knn.rebind({}, k=5).layers] == [None, 5]
        assert [l.k for l in knn.layers] == [None, 2]
        with pytest.raises(OperatorError, match="positive"):
            knn.rebind({}, k=0)
        with pytest.raises(SpecificationError, match="exceeds dataset size"):
            knn.rebind({}, k=31)
        with pytest.raises(OperatorError, match="does not take a k"):
            nn_expr(rng).rebind({}, k=3)

    def test_serve_shape_is_bitwise_the_hand_built_expression(self, rng):
        """One query Storage swapped, k overridden (ServeProgram)."""
        R = Storage(rng.normal(size=(300, 3)), name="reference")
        slot = Storage(rng.normal(size=(1, 3)), name="query")
        template = PortalExpr("nn")
        template.addLayer(PortalOp.FORALL, slot)
        template.addLayer((PortalOp.KARGMIN, 3), R, PortalFunc.EUCLIDEAN)
        template.validate()

        points = rng.normal(size=(17, 3))
        by_hand = PortalExpr("nn")
        by_hand.addLayer(PortalOp.FORALL, Storage(points, name="query"))
        by_hand.addLayer((PortalOp.KARGMIN, 4), R, PortalFunc.EUCLIDEAN)
        want = by_hand.execute()
        got = template.rebind(
            {slot: Storage(points, name="query")}, k=4).execute()
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.values, want.values)
        assert template.layers[0].storage is slot

    def test_subsample_shape_is_bitwise_the_hand_built_expression(self, rng):
        """Every Storage swapped, Var-closing Expr kernel shared (the
        policy search's subsampled copies)."""
        X = rng.normal(size=(400, 3))
        w = rng.uniform(0.5, 1.5, size=400)
        q, r = Var("q"), Var("r")

        def kde(storage):
            e = PortalExpr("kde")
            e.addLayer(PortalOp.FORALL, q, storage)
            e.addLayer(PortalOp.SUM, r, storage,
                       indicator(sqrt(pow(q - r, 2)) < 0.8))
            return e

        full = kde(Storage(X, weights=w, name="data"))
        want = kde(Storage(X[::2], weights=w[::2], name="data")).execute()
        got = full.rebind({full.layers[0].storage: Storage(
            X[::2], weights=w[::2], name="data")}).execute()
        assert np.array_equal(got.values, want.values)
