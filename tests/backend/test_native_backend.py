"""The one code generator and the surface that used to select a second.

The compiler once carried a native (Numba) emitter beside the NumPy one,
chosen by a ``codegen`` option, an environment knob and ``backend=``
aliases.  It is gone; these tests keep their names and now pin what
replaced it: the NumPy emitter's source and call spelling, the kernels a
bind installs, that nothing on the path reaches for numba, that the
``backend`` option has exactly its three modes, and that every spelling
which used to pick an emitter is a loud :class:`SpecificationError`.
"""

import sys

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.backend.codegen import CodegenSpec, emit, emit_expr
from repro.backend.layout import Layout
from repro.backend.plan import (
    AUTO_SHARD_MIN_POINTS, OPTION_TABLE, ExecutionPlan,
)
from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, Storage, Var, dim_sum, pow,
)
from repro.dsl.errors import CompileError, SpecificationError
from repro.ir.nodes import IRCall, SymRef
from repro.observe import collect

from tests.backend.test_differential import _extract, make_problem
from tests.backend.test_plan import plan_for

BACKENDS = ("vectorized", "brute", "interp")


def _knn_spec():
    return CodegenSpec(
        dim=3, layout=Layout.COLUMN, base="sqeuclidean", g_ir=SymRef("t"),
        monotone="increasing", outer_op=PortalOp.FORALL,
        inner_op=PortalOp.KARGMIN,
    )


# -- emitted-source snapshot -------------------------------------------------

KNN_BASE_CASE = '''\
def base_case(qs, qe, rs, re):
    v = _pairwise(qs, qe, rs, re)
    # ordered k-array merge (sorted filter of section IV-F), only
    # for rows with a candidate at or inside their k-th best
    rows = np.flatnonzero((v <= best[qs:qe, K - 1, None]).any(axis=1))
    if rows.size:
        qr = qs + rows
        cand_v = np.concatenate([best[qr], v[rows]], axis=1)
        rr = np.arange(rows.size)[:, None]
        sel = np.argpartition(cand_v, K - 1, axis=1)[:, :K]
        vals = cand_v[rr, sel]
        order = np.argsort(vals, axis=1, kind='stable')
        sel = sel[rr, order]
        old = best_idx[qr][rr, np.minimum(sel, K - 1)]
        best_idx[qr] = np.where(sel < K, old, rs + np.maximum(sel - K, 0))
        best[qr] = vals[rr, order]
'''


def test_emitted_source_snapshot():
    """The k-NN base case lowers to exactly this vectorised merge — the
    sorted-filter insertion of section IV-F as whole-block NumPy."""
    source, _ = emit(_knn_spec())
    start = source.index("def base_case(")
    end = source.index("\n\n", start)
    assert source[start:end + 1] == KNN_BASE_CASE


def test_native_source_extends_numpy_source():
    """A compiled program's source is :func:`emit`'s output as it is:
    one header, the emitted functions, nothing appended after them."""
    build, kind, opts = make_problem("knn", 101)
    expr = build()
    expr.execute(cache=False, **opts)
    source = expr.generated_source()
    assert source.startswith("# Generated by the Portal backend")
    assert source.count("# Generated by") == 1
    assert source.rstrip("\n").splitlines()[-1].startswith("    ")


# -- expression emission -----------------------------------------------------

def test_scalar_expr_pow_and_calls():
    t = SymRef("t")
    assert emit_expr(IRCall("sqrt", (t,)), {"t": "t"}) == "np.sqrt(t)"
    assert emit_expr(IRCall("pow", (t, t)), {"t": "t"}) == "np.power(t, t)"


def test_scalar_expr_unsupported_call_raises():
    with pytest.raises(CompileError, match="cannot emit IR function"):
        emit_expr(IRCall("erf", (SymRef("t"),)), {"t": "t"})


def test_supports_rejects_union():
    """UNIONARG has no bound to tighten: no bound kernel is emitted, so
    the batched engine runs its stateless form, and the grouped base
    case refreshes no bound."""
    build, kind, opts = make_problem("range_search", 101)
    expr = build()
    expr.execute(traversal="batched", cache=False, **opts)
    assert expr.stats()["plan"]["engine"]["value"] == "batched"
    kernels = expr.program.kernels
    assert kernels.bound_key_batch is None
    assert kernels.classify_bound_batch is None
    assert "def base_case_group(qs, qe, gathered)" in expr.generated_source()
    assert "qbound" not in expr.generated_source()


# -- the backend option ------------------------------------------------------

def test_native_mode_knobs():
    """``backend`` has exactly three modes, each of which runs and
    reports itself."""
    assert OPTION_TABLE["backend"].metadata["allowed"] == BACKENDS
    build, kind, opts = make_problem("kde", 101)
    outs = {}
    for backend in BACKENDS:
        expr = build()
        outs[backend] = _extract(
            expr.execute(backend=backend, cache=False,
                         **opts), kind)
        assert expr.stats()["backend"] == backend
    for backend in BACKENDS[1:]:
        np.testing.assert_allclose(outs[backend], outs["vectorized"],
                                   rtol=1e-7, atol=1e-10)


def test_numba_absent_falls_back_cleanly(monkeypatch):
    """Nothing on the compile or run path imports numba: with it made
    unimportable a program compiles, binds and runs as before."""
    build, kind, opts = make_problem("kde", 101)
    ref = _extract(build().execute(cache=False, **opts), kind)
    monkeypatch.setitem(sys.modules, "numba", None)
    clear_caches()
    out = build().execute(cache=False, **opts)
    assert np.array_equal(_extract(out, kind), ref)


def test_unsupported_construct_falls_back(rng):
    """A kernel outside any distance form has no generated kernels: it
    falls back to the external brute-force path, which applies the
    operator to the kernel matrix directly."""
    Q, R = rng.normal(size=(12, 3)), rng.normal(size=(15, 3))
    q, r = Var("q"), Var("r")
    expr = PortalExpr()
    expr.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
    expr.addLayer(PortalOp.SUM, r, Storage(R, name="reference"),
                  pow(q - r, 2) + dim_sum(q))
    prog = expr.compile()
    assert prog.mode == "brute"
    want = (((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1)
            + Q.sum(1)[:, None]).sum(1)
    np.testing.assert_allclose(np.asarray(prog.run().values), want,
                               rtol=1e-12)


def test_supported_bind_counts_compile_time():
    """Emission is timed: a compiled program reports its ``codegen``
    compile stage and the ``codegen`` span is recorded once."""
    build, kind, opts = make_problem("kde", 101)
    expr = build()
    with collect() as counters:
        expr.execute(cache=False, **opts)
    assert expr.stats()["compile_timings_ms"]["codegen"] >= 0.0
    assert counters.as_dict()["compile.count"] == 1


# -- auto resolution ---------------------------------------------------------

def test_resolve_auto_threshold():
    """The one size threshold left in the plan is the shard rule's:
    ``shards='auto'`` stays unsharded below one shard's worth of
    reference points per worker."""
    auto = {"shards": "auto", "workers": 2}
    assert plan_for(auto, nr=2 * AUTO_SHARD_MIN_POINTS, nq=1).shards == 2
    assert plan_for(auto, nr=2 * AUTO_SHARD_MIN_POINTS - 1, nq=1).shards == 1
    assert plan_for(auto, nr=AUTO_SHARD_MIN_POINTS - 1, nq=1).shards == 1
    with pytest.raises(SpecificationError):
        plan_for({"shards": "llvm"})


def test_resolve_auto_unavailable_stays_numpy():
    """The plan routes six fields; none of them picks an emitter."""
    routing = [f for f in ExecutionPlan.__dataclass_fields__.values()
               if f.compare]
    assert [f.name for f in routing] == [
        "engine", "executor", "workers", "min_tasks", "leaf_size", "shards"]
    assert "codegen" not in plan_for().describe()


def test_auto_routes_by_problem_size(rng):
    """Problem size routes nothing in the emitter: a tiny and a larger
    instance of one program shape share the emitted code."""
    def kde(nq, nr):
        expr = PortalExpr("kde-size")
        expr.addLayer(PortalOp.FORALL,
                      Storage(rng.normal(size=(nq, 3)), name="query"))
        expr.addLayer(PortalOp.SUM,
                      Storage(rng.normal(size=(nr, 3)), name="reference"),
                      PortalFunc.GAUSSIAN, bandwidth=0.9)
        return expr

    clear_caches()
    small = kde(28, 33)
    small.execute(tau=0.0)
    large = kde(600, 700)
    with collect() as counters:
        large.execute(tau=0.0)
    assert counters.as_dict()["cache.compile.hit"] == 1
    assert large.generated_source() == small.generated_source()


# -- option plumbing ---------------------------------------------------------

def test_backend_alias_routes_codegen():
    """The old ``backend=`` emitter aliases are not backends."""
    build, kind, opts = make_problem("kde", 101)
    for alias in ("native", "numpy", "auto"):
        with pytest.raises(SpecificationError, match="unknown backend"):
            build().execute(backend=alias, cache=False, **opts)


def test_env_override_repro_codegen(monkeypatch):
    """Routing reads the environment only through option-table rows: a
    ``REPRO_<NAME>`` for an option without one, or for a name that is no
    option, changes neither the plan nor the emitted code.  (``workers``
    is the exception by design: the pool reads ``REPRO_WORKERS``.)"""
    env_rows = {row.metadata["env"] for row in OPTION_TABLE.values()
                if row.metadata["env"]}
    assert env_rows == {"REPRO_EXECUTOR"}
    build, kind, opts = make_problem("kde", 101)
    ref = build()
    ref_out = _extract(ref.execute(cache=False, **opts), kind)
    names = [n for n, row in OPTION_TABLE.items()
             if not row.metadata["env"] and n != "workers"]
    for name in names + ["codegen", "native_jit"]:
        monkeypatch.setenv(f"REPRO_{name.upper()}", "native")
    expr = build()
    out = _extract(expr.execute(cache=False, **opts), kind)
    assert expr.stats()["plan"] == ref.stats()["plan"]
    assert expr.generated_source() == ref.generated_source()
    assert np.array_equal(out, ref_out)


def test_unknown_codegen_rejected():
    build, kind, opts = make_problem("kde", 101)
    with pytest.raises(SpecificationError, match="codegen"):
        build().execute(codegen="llvm", cache=False, **opts)


def test_get_backend_unknown_name():
    build, kind, opts = make_problem("kde", 101)
    with pytest.raises(SpecificationError,
                       match="unknown backend 'llvm'.*vectorized"):
        build().execute(backend="llvm", cache=False, **opts)


def test_native_overrides_installed():
    """After a bind the hot kernels are the emitted functions, the same
    objects in the kernel struct and in the namespace the other emitted
    functions call them through."""
    build, kind, opts = make_problem("knn", 101)
    expr = build()
    expr.execute(cache=False, **opts)
    kk = expr.program.kernels
    assert kk.base_case.__name__ == "base_case"
    assert kk.namespace["base_case"] is kk.base_case
    assert kk.base_case_group is kk.namespace["base_case_group"]
