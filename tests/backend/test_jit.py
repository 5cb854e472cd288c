"""Tests for the compilation driver (modes, options, validation, the
code/data seam and ``PortalExpr.rebind``)."""

import os
import pathlib

import numpy as np
import pytest

from repro.dsl import (
    CompileError, PortalExpr, PortalFunc, PortalOp, SpecificationError,
    Storage, Var, indicator, pow, sqrt,
)
from repro.backend import jit
from repro.backend.jit import CompileOptions
from repro.backend.plan import requested, resolve_plan
from repro.dsl.errors import OperatorError
from repro.dsl.parser import parse_program


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
        assert opts.fastmath

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
        prog = nn_expr(rng).compile(tree="none")
        assert prog.mode == "brute"

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
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(20, 3))))
        e.addLayer(PortalOp.MIN, Storage(rng.normal(size=(20, 3))),
                   PortalFunc.MANHATTAN)
        with pytest.raises(CompileError, match="ball trees"):
            e.compile(tree="ball")

    def test_ball_tree_works_for_euclidean(self, rng):
        prog = nn_expr(rng).compile(tree="ball")
        out = prog.run()
        assert out.values.shape == (60,)


class TestBehaviour:
    def test_tree_equals_brute(self, rng):
        e1 = nn_expr(rng)
        out_tree = e1.execute(fastmath=False)
        delta = e1.program.validate_against_brute()
        assert delta < 1e-12

    def _sum_of_distances(self, rng):
        # SUM is not order-based, so g = sqrt stays in the hot path and
        # the fastmath knob is visible in the generated source.
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(30, 3))))
        e.addLayer(PortalOp.SUM, Storage(rng.normal(size=(30, 3))),
                   PortalFunc.EUCLIDEAN)
        return e

    def test_fastmath_off_is_exact_sqrt(self, rng):
        e = self._sum_of_distances(rng)
        e.compile(fastmath=False)
        assert "finvsqrt" not in e.generated_source()
        e2 = self._sum_of_distances(rng)
        e2.compile(fastmath=True)
        assert "finvsqrt" in e2.generated_source()

    def test_monotone_map_deferred_for_ordered_reductions(self, rng):
        # ARGMIN over sqrt(t): the generated base case reduces raw t and
        # the sqrt happens once at finalisation.
        e = nn_expr(rng)
        e.compile(fastmath=False)
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
        out = e.execute(fastmath=False)
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
    return expr, opts, plan, requested(opts, os.environ, "verify_ir")[0]


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
        monkeypatch.setattr(Storage, "colmajor", property(boom))
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
        assert reads == keyed == {"name", "dim", "layout", "weights"}


def test_storage_names_are_part_of_the_program_key(rng):
    """The lowered IR embeds the Storage names, so the same arrays under
    other names are another program — not a hit that dumps the old ones."""
    Q, R = rng.normal(size=(40, 3)), rng.normal(size=(50, 3))

    def knn(qname, rname):
        e = PortalExpr("knn")
        e.addLayer(PortalOp.FORALL, Storage(Q, name=qname))
        e.addLayer((PortalOp.KARGMIN, 3), Storage(R, name=rname),
                   PortalFunc.EUCLIDEAN)
        e.execute()
        return e

    assert knn("alpha", "beta").stats()["cache"] == "miss"
    second = knn("gamma", "delta")
    assert second.stats()["cache"] == "miss"
    assert "BaseCase(gamma, delta)" in second.ir_dump()
    assert knn("gamma", "delta").stats()["cache"] == "hit"


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
