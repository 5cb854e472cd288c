"""Compile fallbacks for programs the tree pipeline does not cover:
2-layer programs whose inner function is an opaque external kernel (the
paper's external C++ functions: linked, not optimised — brute force over
an emitted base case that calls the kernel on each block), and m ≥
3-layer programs (the dense multi-layer backend,
:mod:`repro.backend.multilayer`).  Neither is cached: an opaque callable
has no content identity.  Both run the shared rules step; their IR, like
every program's, is built when something reads it.
"""

from __future__ import annotations

import inspect

from ..dsl.errors import CompileError
from .codegen import Bindings, CodegenSpec, GeneratedKernels, emit_external
from .jit import _resolve_modifier, front_end, self_pairs
from .plan import CompileOptions, ExecutionPlan
from .program import CompiledProgram
from .state import State, allocate_state

__all__ = ["compile_external", "compile_multilayer"]


def compile_external(pexpr, opts: CompileOptions,
                     plan: ExecutionPlan) -> CompiledProgram:
    """Compile a 2-layer program whose inner function is an opaque
    external kernel: always brute force, over one emitted
    ``base_case`` (:func:`repro.backend.codegen.emit_external`) that
    calls the kernel on each block and folds it as every generated base
    case does — reference weights and self-exclusion included, and a
    ``MIN`` / ``MAX`` / ``ARG*`` / ``K*`` through ``_merge``, so a NaN
    kernel value never enters the state (a single-value reduction's row
    takes nothing from a block holding a NaN; a K-operator sorts it
    last)."""
    outer, inner = layers = pexpr.layers
    classification, rule, timings = front_end(pexpr, opts)
    if opts.backend == "interp":
        raise CompileError(
            "the interpreter backend requires a lowered kernel "
            "(external kernels are not in the IR)"
        )
    external = inner.external
    if external is None:
        raise CompileError("external kernel missing")
    # External kernels may optionally accept the block offsets
    # (Q, R, qs, rs) — e.g. EM kernels that look up per-component
    # parameters by reference index; the emitted code calls that form.
    try:
        takes_offsets = len(inspect.signature(external).parameters) >= 4
    except (TypeError, ValueError):
        takes_offsets = False
    kernel = (external if takes_offsets
              else lambda Q, R, qs, rs: external(Q, R))

    qstorage, rstorage = outer.storage, inner.storage
    same_data, exclude_self = self_pairs(layers, opts)
    spec = CodegenSpec(
        dim=qstorage.dim, base="external", g_ir=None, monotone=None,
        outer_op=outer.op, inner_op=inner.op,
        weighted=rstorage.weights is not None, same_tree=same_data,
        exclude_self=exclude_self,
    )
    state = allocate_state(outer.op, inner.op, inner.k, qstorage.n,
                           rstorage.n, _resolve_modifier(outer.func))
    source, code = emit_external(spec)
    bindings = Bindings.brute(qstorage.data, rstorage.data, rstorage.weights,
                              {"K": inner.k or 1, "EXTERNAL": kernel})
    return CompiledProgram(
        name=pexpr.name, options=opts, plan=plan, layers=layers, kernel=None,
        classification=classification, rule=rule, mode="brute", state=state,
        qdata=qstorage.data, rdata=rstorage.data, nr=rstorage.n,
        same_data=same_data, timings=timings,
        kernels=bindings.bind(source, code, state),
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
