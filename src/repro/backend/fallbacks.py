"""Compile fallbacks for programs the generated-kernel pipeline does not
cover: 2-layer programs whose inner function is an opaque external
kernel (the paper's external C++ functions: linked, not optimised — a
blocked brute force applies the operator in interpreted form), and
m ≥ 3-layer programs (the dense multi-layer backend,
:mod:`repro.backend.multilayer`).  Neither is cached: an opaque callable
has no content identity.  Both run the shared rules step; their IR, like
every program's, is built when something reads it.
"""

from __future__ import annotations

import inspect

import numpy as np

from ..dsl.errors import CompileError
from ..dsl.ops import PortalOp
from .codegen import GeneratedKernels, _exclusion_value
from .jit import _resolve_modifier, front_end, self_pairs
from .plan import CompileOptions, ExecutionPlan
from .program import CompiledProgram
from .state import State, allocate_state

__all__ = ["compile_external", "compile_multilayer"]


def compile_external(pexpr, opts: CompileOptions,
                     plan: ExecutionPlan) -> CompiledProgram:
    """Compile a 2-layer program whose inner function is an opaque
    external kernel: always brute force."""
    layers = pexpr.layers
    outer, inner = layers
    modifier = _resolve_modifier(outer.func)
    classification, rule, timings = front_end(pexpr, opts)
    if opts.backend == "interp":
        raise CompileError(
            "the interpreter backend requires a lowered kernel "
            "(external kernels are not in the IR)"
        )
    external = inner.external
    if external is None:
        raise CompileError("external kernel missing")

    qstorage, rstorage = outer.storage, inner.storage
    same_data, exclude_self = self_pairs(layers, opts)
    state = allocate_state(outer.op, inner.op, inner.k,
                           qstorage.n, rstorage.n, modifier)
    qpoints, rpoints = qstorage.data, rstorage.data
    op = inner.op
    # External kernels may optionally accept the block offsets
    # (Q, R, qs, rs) — e.g. EM kernels that look up per-component
    # parameters by reference index.
    try:
        takes_offsets = len(inspect.signature(external).parameters) >= 4
    except (TypeError, ValueError):
        takes_offsets = False

    def base_case(qs, qe, rs, re):
        if takes_offsets:
            v = np.asarray(
                external(qpoints[qs:qe], rpoints[rs:re], qs, rs), dtype=float
            )
        else:
            v = np.asarray(external(qpoints[qs:qe], rpoints[rs:re]), dtype=float)
        if same_data and exclude_self and qs == rs:
            np.fill_diagonal(v, _exclusion_value(op))
        _apply_update(state, op, inner.k, v, qs, qe, rs, re)

    return CompiledProgram(
        name=pexpr.name, options=opts, plan=plan, layers=layers, kernel=None,
        classification=classification, rule=rule, mode="brute", state=state,
        qdata=qpoints, rdata=rpoints, nr=rstorage.n, same_data=same_data,
        timings=timings,
        kernels=GeneratedKernels(
            source="# external kernel: no generated source",
            namespace={}, base_case=base_case,
        ),
    )


def compile_multilayer(pexpr, opts: CompileOptions,
                       plan: ExecutionPlan) -> CompiledProgram:
    """Compile an m ≥ 3 layer program onto the dense multi-layer backend
    (the general form of the paper's equation 2)."""
    layers = pexpr.layers
    classification, rule, timings = front_end(pexpr, opts)
    storages = {id(l.storage) for l in layers}
    exclude_self = (
        opts.exclude_self if opts.exclude_self is not None
        else len(storages) < len(layers)
    )
    state = State(
        inner_op=layers[-1].op, outer_op=layers[0].op, k=None,
        nq=layers[0].storage.n,
    )
    return CompiledProgram(
        name=pexpr.name, options=opts, plan=plan, layers=layers,
        kernel=layers[-1].metric_kernel,
        classification=classification, rule=rule, mode="multilayer",
        state=state, exclude_self=exclude_self, timings=timings,
        kernels=GeneratedKernels(
            source="# m-layer program: dense multi-layer backend "
                   "(no generated kernels)",
            namespace={}, base_case=None,
        ),
    )


def _apply_update(state: State, op: PortalOp, k: int | None,
                  v: np.ndarray, qs, qe, rs, re) -> None:
    """Interpreted operator update used by the external-kernel path."""
    if op is PortalOp.SUM:
        state.arrays["acc"][qs:qe] += v.sum(axis=1)
    elif op is PortalOp.PROD:
        state.arrays["acc"][qs:qe] *= v.prod(axis=1)
    elif op is PortalOp.MIN:
        np.minimum(state.arrays["best"][qs:qe], v.min(axis=1),
                   out=state.arrays["best"][qs:qe])
    elif op is PortalOp.MAX:
        np.maximum(state.arrays["best"][qs:qe], v.max(axis=1),
                   out=state.arrays["best"][qs:qe])
    elif op in (PortalOp.ARGMIN, PortalOp.ARGMAX):
        red = np.argmin if op is PortalOp.ARGMIN else np.argmax
        j = red(v, axis=1)
        vals = v[np.arange(v.shape[0]), j]
        best = state.arrays["best"][qs:qe]
        m = vals < best if op is PortalOp.ARGMIN else vals > best
        best[m] = vals[m]
        state.arrays["best_idx"][qs:qe][m] = rs + j[m]
    elif op in (PortalOp.KARGMIN, PortalOp.KARGMAX, PortalOp.KMIN, PortalOp.KMAX):
        best = state.arrays["best"]
        cand_v = np.concatenate([best[qs:qe], v], axis=1)
        if op in (PortalOp.KARGMIN, PortalOp.KARGMAX):
            idx = state.arrays["best_idx"]
            cand_i = np.concatenate(
                [idx[qs:qe], np.broadcast_to(np.arange(rs, re), v.shape)], axis=1
            )
            key = cand_v if op is PortalOp.KARGMIN else -cand_v
            sel = np.argsort(key, axis=1, kind="stable")[:, :k]
            best[qs:qe] = np.take_along_axis(cand_v, sel, axis=1)
            idx[qs:qe] = np.take_along_axis(cand_i, sel, axis=1)
        else:
            cand_v.sort(axis=1)
            best[qs:qe] = (
                cand_v[:, :k] if op is PortalOp.KMIN else cand_v[:, ::-1][:, :k]
            )
    elif op in (PortalOp.UNION, PortalOp.UNIONARG):
        for i in range(v.shape[0]):
            nz = np.flatnonzero(v[i])
            if nz.size:
                state.lists[qs + i].append(
                    rs + nz if op is PortalOp.UNIONARG else v[i][nz]
                )
    elif op is PortalOp.FORALL:
        state.arrays["dense"][qs:qe, rs:re] = v
    else:  # pragma: no cover
        raise CompileError(f"unsupported inner operator {op.name}")
