"""The ``native`` codegen backend: Numba-``@njit`` per-pair kernels.

The NumPy backend vectorises the leaf-level base case into whole-array
operations; that trades per-pair Python overhead for broadcast
temporaries and pairwise-summation memory traffic.  This backend emits
the same program as *scalar loop nests* — one fused loop over (query,
reference, dimension) per leaf pair, with the strength-reduced kernel
``g(t)`` inlined as scalar arithmetic — decorated for Numba's ``@njit``
(nopython, ``nogil=True`` so the thread executor scales).  It restores
the paper's LLVM-backend shape: the compiler's IR really is lowered to
native machine code.  Its speed against the NumPy backend is unmeasured:
no benchmark host has had numba (ROADMAP item 3).

Only the per-pair hot kernels are lowered natively:

* ``base_case`` — the leaf × leaf update, fused distance + ``g`` +
  operator merge (SUM/PROD/MIN/MAX/ARGMIN/ARGMAX/k-variants/FORALL);
* ``base_case_group`` — the bounded-batched epoch engine's grouped base
  case (query leaf × gathered multi-leaf reference index array),
  including the signed ``qbound`` refresh;
* ``apply_action`` — the ComputeApprox centroid update of approximation
  rules.

Node-level decision kernels (``pair_min_base_dist*``, ``classify_*``,
``bound_key_batch``) stay on the NumPy emitter: they are already
frontier-vectorised array ops with no per-pair loop to win back.

Degradation is graceful and counted, never fatal:

* numba not importable → the backend resolves away to ``numpy``
  (``backend.native.fallback`` counter);
* a kernel uses a construct with no scalar lowering (UNION/UNIONARG's
  Python result lists, array loads in the kernel body) → the emitted
  artifact is the NumPy one, marked, and bind counts the fallback;
* the JIT warm-up itself fails (a numba typing gap) → the NumPy
  kernels bound alongside remain in force.

JIT compilation happens once per process at bind time ("warming": every
native kernel is called on zero-length dummy ranges so the dispatch
signature compiles before the traversal starts) and is timed under the
``backend.native.compile_s`` counter.  Worker processes rebuild kernels
from the shipped source and warm locally — compiled dispatchers are
memoized per (source digest, kernel) so repeated binds of a cached
artifact never re-JIT.

For differential testing on hosts without numba, ``REPRO_NATIVE_JIT=
python`` runs the emitted loop nests as plain Python (identity
decorator): bit-for-bit the same code path minus compilation, slow but
exact — the cross-backend suite uses it so the native emitter is
exercised everywhere.  ``REPRO_NATIVE_JIT=off`` force-disables the
backend even when numba is installed (the CI fallback leg).
"""

from __future__ import annotations

import hashlib
import os
import time
from functools import partial

from ..dsl.errors import CompileError
from ..dsl.expr import Call, Expr
from ..dsl.ops import PortalOp
from ..ir.nodes import IRCall
from ..observe import contribute, span
from .backends import Backend, register_backend
from .codegen import (
    CodegenSpec, ExprDialect, GeneratedKernels, bind_kernels, emit, emit_expr,
    emit_expr_vn,
)

__all__ = ["NativeBackend", "native_available", "native_mode",
           "emit_scalar_expr", "emit_scalar_expr_vn", "NATIVE_MARKER"]

#: First line of the native section; its absence in an artifact emitted
#: under the native backend marks an unsupported-construct fallback.
NATIVE_MARKER = "# --- native section (numba @njit per-pair kernels) ---"


# ---------------------------------------------------------------------------
# availability probe
# ---------------------------------------------------------------------------

def _import_numba():
    """Import numba, or None.  Kept monkeypatchable for the fallback
    tests; not memoized so an env-var flip mid-process is honoured."""
    try:
        import numba
    except ImportError:
        return None
    return numba


def native_mode() -> str | None:
    """The JIT flavour this process would use: ``'numba'`` (the real
    thing), ``'python'`` (identity decorator — ``REPRO_NATIVE_JIT=
    python``, differential testing without numba), or ``None`` when the
    backend is unavailable (no numba, or ``REPRO_NATIVE_JIT=off``)."""
    env = os.environ.get("REPRO_NATIVE_JIT", "").strip().lower()
    if env == "python":
        return "python"
    if env == "off":
        return None
    return "numba" if _import_numba() is not None else None


def native_available() -> bool:
    return native_mode() is not None


# ---------------------------------------------------------------------------
# scalar expression emission (the per-pair dialect of codegen.emit_expr)
# ---------------------------------------------------------------------------

#: Scalar (numba-nopython-compatible) source: builtin ``abs``/``max``/
#: ``min``, ``pow`` as ``**``, a branch for ``Indicator``, no array loads.
SCALAR_DIALECT = ExprDialect(
    calls={
        "sqrt": "np.sqrt",
        "exp": "np.exp",
        "log": "np.log",
        "abs": "abs",
        "max": "max",
        "min": "min",
        "fast_inverse_sqrt": "_finvsqrt",
    },
    indicator="(1.0 if ({lhs}) {op} ({rhs}) else 0.0)",
    pow_operator=True, loads=False, call_noun="scalar call",
)

emit_scalar_expr = partial(emit_expr, dialect=SCALAR_DIALECT)
emit_scalar_expr_vn = partial(emit_expr_vn, prefix="_nv",
                              dialect=SCALAR_DIALECT)


def _uses_finvsqrt(e: Expr) -> bool:
    if isinstance(e, (IRCall, Call)) and e.func == "fast_inverse_sqrt":
        return True
    return any(_uses_finvsqrt(c) for c in e.children())


# ---------------------------------------------------------------------------
# supported-construct check
# ---------------------------------------------------------------------------

#: Inner operators with a fused scalar update template.  UNION/UNIONARG
#: append to Python result lists — no nopython lowering exists, so those
#: programs stay on the NumPy kernels (counted fallback).
_NATIVE_OPS = frozenset({
    PortalOp.SUM, PortalOp.PROD, PortalOp.MIN, PortalOp.MAX,
    PortalOp.ARGMIN, PortalOp.ARGMAX, PortalOp.KARGMIN, PortalOp.KARGMAX,
    PortalOp.KMIN, PortalOp.KMAX, PortalOp.FORALL,
})


def native_supports(spec: CodegenSpec) -> str | None:
    """``None`` when every native kernel for *spec* can be emitted, else
    the reason the program must stay on the NumPy kernels."""
    if spec.inner_op not in _NATIVE_OPS:
        return f"inner operator {spec.inner_op.name} has no scalar template"
    if spec.self_map:
        # Sharded self-exclusion rewrites every update template around
        # the RSELF identity remap; the scalar loop nests have no such
        # variant yet, so sharded exclude-self programs stay on the
        # NumPy kernels (counted fallback, like any unsupported form).
        return "sharded self-exclusion remap has no scalar template"
    try:
        emit_scalar_expr(spec.g_ir, {"t": "t"})
    except CompileError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# native kernel emission
# ---------------------------------------------------------------------------

_FINVSQRT_SRC = '''\
_FINVSQRT_MAGIC = np.uint64(0x5FE6EB50C7B537A9)


@_njit
def _finvsqrt(x):
    # Scalar twin of repro.backend.fastmath.fast_inverse_sqrt (two
    # Newton steps) — bit-identical to the vectorised float64 form.
    if x <= 0.0:
        return np.inf
    _fbuf = np.empty(1, np.float64)
    _fbuf[0] = x
    _ibuf = _fbuf.view(np.uint64)
    _ibuf[0] = _FINVSQRT_MAGIC - (_ibuf[0] >> np.uint64(1))
    y = _fbuf[0]
    xh = 0.5 * x
    y = y * (1.5 - xh * y * y)
    y = y * (1.5 - xh * y * y)
    return y'''


def _t_lines(spec: CodegenSpec, b, j: str = "j", q: str = "QROW",
             r: str = "RROW", tvar: str = "t", indent: str = "        "):
    """Fused scalar base-distance accumulation ``tvar`` for one (i, j)
    pair — the loop-nest twin of the vectorised ``_pairwise``."""
    b(f"{indent}{tvar} = 0.0")
    b(f"{indent}for _d in range({spec.dim}):")
    b(f"{indent}    _df = {q}[i, _d] - {r}[{j}, _d]")
    if spec.base == "sqeuclidean":
        b(f"{indent}    {tvar} += _df * _df")
    elif spec.base == "manhattan":
        b(f"{indent}    {tvar} += abs(_df)")
    else:  # chebyshev
        b(f"{indent}    _da = abs(_df)")
        b(f"{indent}    if _da > {tvar}:")
        b(f"{indent}        {tvar} = _da")


def _g_lines(spec: CodegenSpec, b, tvar: str = "t",
             indent: str = "        "):
    pre, g_src = emit_scalar_expr_vn(spec.g_ir, {"t": tvar})
    for assign in pre:
        b(f"{indent}{assign}")
    b(f"{indent}v = {g_src}")


def _update_lines(spec: CodegenSpec, b, gather: bool) -> None:
    """Per-query loop body: candidate loop + fused operator merge.

    ``gather=False`` iterates the contiguous slice ``[rs, re)`` (plain
    base case); ``gather=True`` iterates the gathered index array
    ``ridx`` (the epoch engine's grouped base case).
    """
    op = spec.inner_op
    excl = spec.same_tree and spec.exclude_self
    kwide = (spec.k or 1) > 1

    if gather:
        loop = ["        for _jj in range(ridx.shape[0]):",
                "            j = ridx[_jj]"]
    else:
        loop = ["        for j in range(rs, re):"]
    ind = "            " if gather else "            "

    def candidate(skip_self: bool = True):
        for line in loop:
            b(line)
        if excl and skip_self and op is not PortalOp.FORALL:
            # The exclusion value is the merge identity for every
            # reduction template below, so skipping the self pair is
            # exactly the NumPy emitter's fill_diagonal.
            b(f"{ind}if i == j:")
            b(f"{ind}    continue")
        _t_lines(spec, b, indent=ind)
        _g_lines(spec, b, indent=ind)

    if op is PortalOp.SUM:
        b("        _s = 0.0")
        candidate()
        if spec.weighted:
            b(f"{ind}_s += v * rw[j]")
        else:
            b(f"{ind}_s += v")
        b("        acc[i] += _s")
    elif op is PortalOp.PROD:
        b("        _p = 1.0")
        candidate()
        b(f"{ind}_p *= v")
        b("        acc[i] *= _p")
    elif op in (PortalOp.MIN, PortalOp.MAX):
        cmp = "<" if op is PortalOp.MIN else ">"
        b("        _m = best[i]")
        candidate()
        b(f"{ind}if v {cmp} _m:")
        b(f"{ind}    _m = v")
        b("        best[i] = _m")
    elif op in (PortalOp.ARGMIN, PortalOp.ARGMAX):
        cmp = "<" if op is PortalOp.ARGMIN else ">"
        b("        _m = best[i]")
        b("        _mi = best_idx[i]")
        candidate()
        b(f"{ind}if v {cmp} _m:")
        b(f"{ind}    _m = v")
        b(f"{ind}    _mi = j")
        b("        best[i] = _m")
        b("        best_idx[i] = _mi")
    elif op in (PortalOp.KARGMIN, PortalOp.KARGMAX,
                PortalOp.KMIN, PortalOp.KMAX):
        # Ordered k-array insertion (the paper's sorted filter): shift
        # strictly-worse entries right and insert.  The strict
        # comparisons reproduce the NumPy merge's stable-sort tie
        # order: existing entries stay ahead of equal new candidates,
        # and within a batch earlier reference indices stay ahead.
        minlike = op in (PortalOp.KARGMIN, PortalOp.KMIN)
        cmp, shift_cmp = ("<", ">") if minlike else (">", "<")
        with_idx = op in (PortalOp.KARGMIN, PortalOp.KARGMAX)
        last = "K - 1" if kwide else "0"
        cell = "best[i, {p}]" if kwide else "best[i]"
        icell = "best_idx[i, {p}]" if kwide else "best_idx[i]"
        candidate()
        b(f"{ind}if v {cmp} {cell.format(p=last)}:")
        if kwide:
            b(f"{ind}    _p = K - 1")
            b(f"{ind}    while _p > 0 and "
              f"{cell.format(p='_p - 1')} {shift_cmp} v:")
            b(f"{ind}        {cell.format(p='_p')} = "
              f"{cell.format(p='_p - 1')}")
            if with_idx:
                b(f"{ind}        {icell.format(p='_p')} = "
                  f"{icell.format(p='_p - 1')}")
            b(f"{ind}        _p -= 1")
            b(f"{ind}    {cell.format(p='_p')} = v")
            if with_idx:
                b(f"{ind}    {icell.format(p='_p')} = j")
        else:
            b(f"{ind}    {cell.format(p='0')} = v")
            if with_idx:
                b(f"{ind}    {icell.format(p='0')} = j")
    elif op is PortalOp.FORALL:
        candidate(skip_self=False)
        if excl:
            b(f"{ind}if i == j:")
            b(f"{ind}    v = 0.0")
        b(f"{ind}dense[i, j] = v")
    else:  # pragma: no cover - guarded by native_supports
        raise CompileError(f"no native template for {op.name}")


def _state_args(spec: CodegenSpec) -> list[str]:
    op = spec.inner_op
    if op is PortalOp.SUM:
        return ["acc", "rw"] if spec.weighted else ["acc"]
    if op is PortalOp.PROD:
        return ["acc"]
    if op in (PortalOp.MIN, PortalOp.MAX):
        return ["best"]
    if op in (PortalOp.ARGMIN, PortalOp.ARGMAX):
        return ["best", "best_idx"]
    if op in (PortalOp.KARGMIN, PortalOp.KARGMAX):
        return ["best", "best_idx", "K"]
    if op in (PortalOp.KMIN, PortalOp.KMAX):
        return ["best", "K"]
    if op is PortalOp.FORALL:
        return ["dense"]
    raise CompileError(f"no native template for {op.name}")  # pragma: no cover


def _dummy_expr(name: str, spec: CodegenSpec) -> str:
    """Warm-up dummy for one kernel argument: a zero-filled array of the
    bound array's dtype (loop bounds are all zero, so nothing is read or
    written — only the numba signature compiles)."""
    kwide = (spec.k or 1) > 1
    two_d = {"QROW": "QROW", "RROW": "RROW", "rcentroid": "rcentroid"}
    if name in two_d:
        a = two_d[name]
        return f"np.zeros((1, {a}.shape[1]), {a}.dtype)"
    if name in ("best", "best_idx") and kwide:
        return f"np.zeros((1, K), {name}.dtype)"
    if name == "dense":
        return "np.zeros((1, 1), dense.dtype)"
    if name == "K":
        return "K"
    if name == "ridx":
        return "np.zeros(0, np.int64)"
    return f"np.zeros(1, {name}.dtype)"


def emit_native_chunks(spec: CodegenSpec) -> list[str]:
    """The native section appended to the NumPy source: ``@_njit`` loop
    kernels, plain-Python wrappers closing over the bound arrays, the
    zero-length warm-up, and the override manifest."""
    chunks: list[str] = [NATIVE_MARKER]
    if _uses_finvsqrt(spec.g_ir):
        chunks.append(_FINVSQRT_SRC)

    overrides: list[str] = []
    warm_calls: list[str] = []

    def kernel(name: str, extra_args: list[str], body_emit) -> None:
        args = ["QROW", "RROW"] + _state_args(spec) + extra_args
        lines = ["@_njit", f"def _native_{name}({', '.join(args)}, "
                           f"{', '.join(TAIL[name])}):"]
        body_emit(lines.append)
        lines += [
            "",
            "",
            f"def native_{name}({', '.join(TAIL[name])}):",
            f"    _native_{name}({', '.join(args)}, "
            f"{', '.join(TAIL[name])})",
        ]
        chunks.append("\n".join(lines))
        overrides.append(name)
        dummies = [_dummy_expr(a, spec) for a in args]
        warm_calls.append(f"    _native_{name}({', '.join(dummies)}, "
                          f"{', '.join(WARM_TAIL[name])})")

    TAIL = {
        "base_case": ["qs", "qe", "rs", "re"],
        "base_case_group": ["qs", "qe", "ridx"],
    }
    WARM_TAIL = {
        "base_case": ["0", "0", "0", "0"],
        "base_case_group": ["0", "0", "np.zeros(0, np.int64)"],
    }

    def base_case_body(b):
        b("    for i in range(qs, qe):")
        _update_lines(spec, b, gather=False)

    kernel("base_case", [], base_case_body)

    rule = spec.rule
    if rule is not None and rule.kind in ("bound-min", "bound-max"):
        sign = "" if rule.kind == "bound-min" else "-"
        col = ", K - 1" if (spec.k or 1) > 1 else ""

        def group_body(b):
            b("    for i in range(qs, qe):")
            _update_lines(spec, b, gather=True)
            b(f"        qbound[i] = {sign}best[i{col}]")

        group_args = _state_args(spec)

        def group_kernel():
            args = ["QROW", "RROW"] + group_args + ["qbound"]
            lines = ["@_njit",
                     f"def _native_base_case_group({', '.join(args)}, "
                     f"qs, qe, ridx):"]
            group_body(lines.append)
            lines += [
                "",
                "",
                "def native_base_case_group(qs, qe, ridx):",
                f"    _native_base_case_group({', '.join(args)}, "
                f"qs, qe, ridx)",
            ]
            chunks.append("\n".join(lines))
            overrides.append("base_case_group")
            dummies = [_dummy_expr(a, spec) for a in args]
            warm_calls.append(
                f"    _native_base_case_group({', '.join(dummies)}, "
                f"0, 0, np.zeros(0, np.int64))")

        group_kernel()

    if rule is not None and rule.kind == "approx":
        def action_kernel():
            args = ["QROW", "rcentroid", "rweight", "acc", "qstart", "qend"]
            lines = ["@_njit",
                     f"def _native_apply_action({', '.join(args)}, qi, ri):",
                     "    for i in range(qstart[qi], qend[qi]):"]
            b = lines.append
            _t_lines(spec, b, j="ri", r="rcentroid", tvar="tc")
            pre, g_src = emit_scalar_expr_vn(spec.g_ir, {"t": "tc"})
            for assign in pre:
                b(f"        {assign}")
            b(f"        acc[i] += rweight[ri] * {g_src}")
            lines += [
                "",
                "",
                "def native_apply_action(qi, ri):",
                f"    _native_apply_action({', '.join(args)}, qi, ri)",
            ]
            chunks.append("\n".join(lines))
            overrides.append("apply_action")
            dummies = [_dummy_expr(a, spec) for a in args]
            warm_calls.append(
                f"    _native_apply_action({', '.join(dummies)}, 0, 0)")

        action_kernel()

    warm = ["def _native_warm():"] + warm_calls
    chunks.append("\n".join(warm))
    chunks.append("NATIVE_OVERRIDES = (" +
                  ", ".join(f"{n!r}" for n in overrides) + ",)")
    return chunks


# ---------------------------------------------------------------------------
# the Backend object
# ---------------------------------------------------------------------------

#: Memoized numba dispatchers keyed on (source digest, kernel name):
#: re-binding a cached artifact (fresh state arrays each instantiate,
#: every task in a warm worker) reuses the already-compiled dispatcher
#: instead of re-JIT-ing functionally identical code.  Safe because the
#: native kernels take all data as arguments and close over nothing
#: mutable.
_DISPATCHERS: dict[tuple[str, str], object] = {}


def _identity_jit(fn):
    return fn


def _make_njit(digest: str):
    mode = native_mode()
    if mode != "numba":
        return _identity_jit
    numba = _import_numba()

    def deco(fn):
        key = (digest, fn.__name__)
        disp = _DISPATCHERS.get(key)
        if disp is None:
            disp = numba.njit(cache=False, nogil=True)(fn)
            _DISPATCHERS[key] = disp
        return disp

    return deco


class NativeBackend(Backend):
    """Numba-jitted per-pair kernels over the NumPy backend's skeleton.

    Emission *extends* the NumPy source (every NumPy kernel remains in
    the artifact as the in-place fallback and as the implementation of
    the non-overridden kernels); bind executes the combined source,
    warms the JIT, and swaps the native wrappers in.
    """

    name = "native"

    def supports(self, spec: CodegenSpec) -> str | None:
        return native_supports(spec)

    def emit_source(self, spec: CodegenSpec) -> str:
        numpy_source, _ = emit(spec)
        reason = self.supports(spec)
        with span("codegen.native", supported=reason is None):
            if reason is not None:
                return (numpy_source +
                        f"\n# native backend: numpy fallback — {reason}\n")
            chunks = [numpy_source.rstrip("\n")]
            chunks += emit_native_chunks(spec)
            return "\n\n".join(chunks) + "\n"

    def emit(self, spec: CodegenSpec) -> tuple[str, object]:
        source = self.emit_source(spec)
        code = compile(source, f"<portal-native-{id(spec)}>", "exec")
        return source, code

    def bind(self, source: str, code, bindings: dict) -> GeneratedKernels:
        has_native = NATIVE_MARKER in source
        mode = native_mode()
        env = dict(bindings)
        if has_native:
            digest = hashlib.blake2b(source.encode(),
                                     digest_size=16).hexdigest()
            env["_njit"] = (_make_njit(digest) if mode is not None
                            else _identity_jit)
        kernels = bind_kernels(source, code, env)
        if not has_native or mode is None:
            # Unsupported construct, or numba vanished between compile
            # and bind: the NumPy kernels in the same artifact serve.
            contribute({"backend.native.fallback": 1})
            return kernels

        ns = kernels.namespace
        t0 = time.perf_counter()
        try:
            with span("backend.native.warm", mode=mode):
                ns["_native_warm"]()
        except Exception:
            # A numba typing gap on this kernel shape: stay on NumPy.
            contribute({
                "backend.native.fallback": 1,
                "backend.native.compile_s": time.perf_counter() - t0,
            })
            return kernels
        contribute({"backend.native.compile_s": time.perf_counter() - t0})

        for name in ns["NATIVE_OVERRIDES"]:
            native_fn = ns[f"native_{name}"]
            # Namespace rebinding first: emitted NumPy functions that
            # call these by name (prune_or_approx → apply_action) must
            # pick the native kernels up through their globals.
            ns[name] = native_fn
            setattr(kernels, name, native_fn)
        return kernels


register_backend(NativeBackend())
