"""Unit tests for the native (Numba) codegen backend: emitted-source
snapshot, graceful fallbacks (numba absent, unsupported construct),
``auto`` threshold routing, and option plumbing.

Everything here runs without numba: ``REPRO_NATIVE_JIT=python`` executes
the emitted loop nests as plain Python, and the numba-absent cases
monkeypatch the import probe directly.
"""

import numpy as np
import pytest

import repro.backend.native as native_mod
import repro.backend.plan as plan_mod
from repro.backend.backends import get_backend
from repro.backend.plan import AUTO_NATIVE_MIN_PAIRS
from repro.backend.cache import clear_caches
from repro.backend.codegen import CodegenSpec
from repro.backend.layout import Layout
from repro.backend.native import (
    NATIVE_MARKER, NativeBackend, emit_scalar_expr, native_available,
    native_mode,
)
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.dsl.errors import CompileError, SpecificationError
from repro.ir.nodes import IRCall, SymRef
from repro.observe import collect

from tests.backend.test_differential import _extract, make_problem
from tests.backend.test_plan import plan_for


def resolve_codegen(requested, nq, nr):
    return plan_for({"codegen": requested}, nq=nq, nr=nr).codegen


@pytest.fixture()
def sim_jit(monkeypatch):
    """Force the python-simulated JIT so the native path is exercised
    deterministically regardless of whether numba is installed."""
    monkeypatch.setenv("REPRO_NATIVE_JIT", "python")
    clear_caches()


@pytest.fixture()
def no_numba(monkeypatch):
    """A host with no native JIT at all: numba unimportable and no
    simulate override."""
    monkeypatch.delenv("REPRO_NATIVE_JIT", raising=False)
    monkeypatch.setattr(native_mod, "_import_numba", lambda: None)
    clear_caches()


def _knn_spec():
    return CodegenSpec(
        dim=3, layout=Layout.COLUMN, base="sqeuclidean", g_ir=SymRef("t"),
        monotone="increasing", outer_op=PortalOp.FORALL,
        inner_op=PortalOp.KARGMIN, k=3,
    )


# -- emitted-source snapshot -------------------------------------------------

KNN_NATIVE_SECTION = '''\
# --- native section (numba @njit per-pair kernels) ---

@_njit
def _native_base_case(QROW, RROW, best, best_idx, K, qs, qe, rs, re):
    for i in range(qs, qe):
        for j in range(rs, re):
            t = 0.0
            for _d in range(3):
                _df = QROW[i, _d] - RROW[j, _d]
                t += _df * _df
            v = t
            if v < best[i, K - 1]:
                _p = K - 1
                while _p > 0 and best[i, _p - 1] > v:
                    best[i, _p] = best[i, _p - 1]
                    best_idx[i, _p] = best_idx[i, _p - 1]
                    _p -= 1
                best[i, _p] = v
                best_idx[i, _p] = j


def native_base_case(qs, qe, rs, re):
    _native_base_case(QROW, RROW, best, best_idx, K, qs, qe, rs, re)

def _native_warm():
    _native_base_case(np.zeros((1, QROW.shape[1]), QROW.dtype), \
np.zeros((1, RROW.shape[1]), RROW.dtype), np.zeros((1, K), best.dtype), \
np.zeros((1, K), best_idx.dtype), K, 0, 0, 0, 0)

NATIVE_OVERRIDES = ('base_case',)
'''


def test_emitted_source_snapshot():
    """The k-NN base case lowers to exactly this fused loop nest — the
    sorted-filter insertion of section IV-F as scalar code."""
    source = NativeBackend().emit_source(_knn_spec())
    assert source[source.index(NATIVE_MARKER):] == KNN_NATIVE_SECTION


def test_native_source_extends_numpy_source():
    """The NumPy kernels stay in the artifact (they are the fallback and
    the non-overridden kernels); the native section is appended."""
    numpy_src = get_backend("numpy").emit_source(_knn_spec())
    native_src = NativeBackend().emit_source(_knn_spec())
    assert native_src.startswith(numpy_src.rstrip("\n"))


# -- scalar expression emission ----------------------------------------------

def test_scalar_expr_pow_and_calls():
    t = SymRef("t")
    assert emit_scalar_expr(IRCall("sqrt", (t,)), {"t": "t"}) == "np.sqrt(t)"
    assert emit_scalar_expr(
        IRCall("pow", (t, t)), {"t": "t"}) == "((t) ** (t))"


def test_scalar_expr_unsupported_call_raises():
    with pytest.raises(CompileError, match="cannot emit scalar call"):
        emit_scalar_expr(IRCall("erf", (SymRef("t"),)), {"t": "t"})


def test_supports_rejects_union():
    spec = _knn_spec()
    spec.inner_op = PortalOp.UNIONARG
    reason = NativeBackend().supports(spec)
    assert reason is not None and "UNIONARG" in reason


# -- availability & fallback -------------------------------------------------

def test_native_mode_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_JIT", "python")
    assert native_mode() == "python" and native_available()
    monkeypatch.setenv("REPRO_NATIVE_JIT", "off")
    assert native_mode() is None and not native_available()


def test_numba_absent_falls_back_cleanly(no_numba):
    """codegen='native' on a numba-less host must run on the NumPy
    kernels — counted, never fatal — and match numpy's output exactly
    (it *is* numpy's artifact)."""
    build, kind, opts = make_problem("kde", 101)
    ref = _extract(build().execute(codegen="numpy", cache=False, **opts),
                   kind)
    expr = build()
    with collect() as counters:
        out = expr.execute(codegen="native", cache=False, **opts)
    assert counters.as_dict()["backend.native.fallback"] == 1
    assert expr.stats()["codegen"] == "numpy"
    assert np.array_equal(_extract(out, kind), ref)


def test_unsupported_construct_falls_back(sim_jit):
    """UNIONARG appends to Python result lists — no scalar lowering —
    so the native backend emits the NumPy artifact, marked, and bind
    counts one fallback."""
    build, kind, opts = make_problem("range_search", 101)
    expr = build()
    with collect() as counters:
        expr.execute(codegen="native", cache=False, **opts)
    assert counters.as_dict()["backend.native.fallback"] == 1
    assert NATIVE_MARKER not in expr.generated_source()
    assert "native backend: numpy fallback" in expr.generated_source()


def test_supported_bind_counts_compile_time(sim_jit):
    build, kind, opts = make_problem("kde", 101)
    with collect() as counters:
        build().execute(codegen="native", cache=False, **opts)
    c = counters.as_dict()
    assert "backend.native.compile_s" in c
    assert "backend.native.fallback" not in c


# -- auto threshold routing --------------------------------------------------

def test_resolve_auto_threshold(sim_jit, monkeypatch):
    assert resolve_codegen("numpy", 10**3, 10**3) == "numpy"
    assert resolve_codegen("native", 1, 1) == "native"
    # below / at the pair threshold
    small = int(np.sqrt(AUTO_NATIVE_MIN_PAIRS)) - 1
    assert resolve_codegen("auto", small, small) == "numpy"
    assert resolve_codegen("auto", AUTO_NATIVE_MIN_PAIRS, 1) == "native"
    with pytest.raises(SpecificationError):
        resolve_codegen("llvm", 1, 1)


def test_resolve_auto_unavailable_stays_numpy(no_numba):
    with collect() as counters:
        assert resolve_codegen("auto", AUTO_NATIVE_MIN_PAIRS, 1) == "numpy"
        # auto falling back is by design, not a counted failure…
        assert "backend.native.fallback" not in counters.as_dict()
        # …but an explicit native request is.
        assert resolve_codegen("native", 1, 1) == "numpy"
        assert counters.as_dict()["backend.native.fallback"] == 1


def test_auto_routes_by_problem_size(sim_jit, monkeypatch):
    build, kind, opts = make_problem("kde", 101)
    expr = build()
    expr.execute(codegen="auto", cache=False, **opts)
    assert expr.stats()["codegen"] == "numpy"   # 28×33 pairs: tiny
    monkeypatch.setattr(plan_mod, "AUTO_NATIVE_MIN_PAIRS", 1)
    expr = build()
    expr.execute(codegen="auto", cache=False, **opts)
    assert expr.stats()["codegen"] == "native"


# -- option plumbing ---------------------------------------------------------

def test_backend_alias_routes_codegen(sim_jit):
    build, kind, opts = make_problem("kde", 101)
    expr = build()
    expr.execute(backend="native", cache=False, **opts)
    s = expr.stats()
    assert s["backend"] == "vectorized"
    assert s["codegen"] == "native"


def test_env_override_repro_codegen(sim_jit, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN", "native")
    build, kind, opts = make_problem("kde", 101)
    expr = build()
    expr.execute(cache=False, **opts)
    assert expr.stats()["codegen"] == "native"
    # An explicit option always beats the environment.
    expr = build()
    expr.execute(codegen="numpy", cache=False, **opts)
    assert expr.stats()["codegen"] == "numpy"


def test_unknown_codegen_rejected():
    build, kind, opts = make_problem("kde", 101)
    with pytest.raises(SpecificationError, match="codegen"):
        build().execute(codegen="llvm", cache=False, **opts)


def test_get_backend_unknown_name():
    with pytest.raises(SpecificationError, match="unknown codegen backend"):
        get_backend("llvm")


def test_native_overrides_installed(sim_jit):
    """After a successful native bind the hot kernels really are the
    native wrappers, in both the kernel struct and the namespace (the
    emitted NumPy functions call them through their globals)."""
    build, kind, opts = make_problem("knn", 101)
    expr = build()
    expr.execute(codegen="native", cache=False, **opts)
    kk = expr.program.kernels
    assert kk.base_case.__name__ == "native_base_case"
    assert kk.namespace["base_case"] is kk.base_case
