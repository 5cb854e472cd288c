"""Compilation driver: PortalExpr → CompiledProgram (paper Fig. 1).

One pass from specification to a scheduled traversal:
:func:`compile_expr` validates the options, resolves the execution plan
(:mod:`repro.backend.plan`) once, keys the program on it, and — on a
cache miss — compiles along one seam: code from the program's *shape*
(:func:`_compile_code`: rules and code generation — it never reads a
data array, and leaves the IR to whoever reads it,
:meth:`~repro.backend.program.CompiledProgram.ir`), then bindings from
its *data* (:func:`_bind_data`: whitening, tree builds, shard pack).  The
:class:`_Code` is cached by shape (:func:`_code_key`), the trees and
whitened points by the datasets' identity (the tree cache); nothing
caches the pair.  :func:`_instantiate` binds the two halves to fresh
state as a runnable :class:`~repro.backend.program.CompiledProgram`.
External-kernel and m ≥ 3-layer programs take the uncached fallbacks in
:mod:`repro.backend.fallbacks`.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..dsl.errors import CompileError
from ..dsl.expr import Const, Expr, Indicator
from ..dsl.layer import Layer
from ..dsl.ops import MAX_LIKE, MIN_LIKE
from ..ir.lowering import kernel_to_ir
from ..ir.nodes import SymRef
from ..ir.strength_reduction import reduce_expr
from ..observe import contribute, span
from .cache import (
    ARTIFACT_SCHEMA, MISSING, UncacheableParamError, array_fingerprint,
    cached_build_tree, code_cache, derived_entry, freeze,
)
from .codegen import Bindings, CodegenSpec, emit
from .plan import (
    CompileOptions, ExecutionPlan, program_rules, resolve_plan,
)
from .program import CompiledProgram
from .state import allocate_state

__all__ = ["CompileOptions", "CompiledProgram", "compile_expr"]


class _LazyPolicy:
    """:mod:`repro.policy`, imported on first use — only the ``auto`` and
    ``search`` policy modes ever consult it."""

    def __getattr__(self, name):
        from .. import policy

        return getattr(policy, name)


def _resolve_modifier(func) -> Callable | None:
    """Resolve an outer layer's modifying function (section III-C)."""
    if func is None:
        return None
    if isinstance(func, Expr):
        fv = sorted(func.free_vars(), key=lambda v: v.name)
        if len(fv) != 1:
            raise CompileError(
                "a modifying function must be an expression in exactly one "
                "variable"
            )
        name = fv[0].name
        return lambda arr: func.evaluate({name: arr})
    if callable(func):
        return func
    raise CompileError(f"cannot use {func!r} as a modifying function")


def _whiten_transform(cov: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The numerical optimisation of section IV-D at runtime: points are
    transformed by L⁻¹ (forward substitution against the Cholesky factor)
    so Mahalanobis distance becomes plain squared Euclidean distance."""
    from scipy.linalg import cholesky, solve_triangular

    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise CompileError("covariance must be a square matrix")
    L = cholesky(cov + 1e-12 * np.eye(len(cov)), lower=True)
    return lambda X: solve_triangular(L, X.T, lower=True).T


@dataclass
class _Code:
    """The code half of a compile: a function of the program's *shape*
    (layers, kernel, options, plan) that reads nothing of a
    :class:`~repro.dsl.storage.Storage` but ``dim``, ``weights is
    None`` and identity — :func:`_code_key`.
    Shared, read-only, by every program of that shape: it holds only
    what :func:`_compile_code` derived from keyed inputs, never a layer
    or kernel object (whose covariance is data)."""

    mode: str                        # 'tree' | 'brute' | 'interp'
    classification: object
    rule: object
    spec: CodegenSpec
    source: str
    code: object
    #: apply the monotone kernel map at finalisation (section IV-F)
    defer_monotone: bool
    #: the bound scalars ``K`` / ``H`` / ``TAU`` / ``THETA2``
    scalars: dict
    same_data: bool


@dataclass
class _Data:
    """The data half: what the code half's kernels run over."""

    #: static kernel operands; query side only when ``shard_pack`` is set
    bindings: Bindings
    qtree: object | None = None      # tree mode …
    rtree: object | None = None      # … None when sharded
    qdata: np.ndarray | None = None  # brute / interp mode: the (whitened)
    rdata: np.ndarray | None = None  # points in original order (sharded too)
    #: sharded reference layout: per-shard trees, orig-id maps and
    #: r-side bindings (:class:`repro.parallel.shard.ShardPack`)
    shard_pack: object | None = None


def _func_key(func) -> object:
    """Stable cache-key description of a layer function.

    :class:`Expr` reprs are structural (no object identity), so they are
    content keys; opaque Python callables make the program uncacheable
    (checked by the caller) and never reach this point with one.
    """
    return None if func is None else repr(func)


def _code_key(pexpr, opts: CompileOptions, plan: ExecutionPlan,
              labels: bool = False) -> tuple:
    """Every input of :func:`_compile_code` — the program's shape: per
    layer the operator/k/function/params and what the code half reads of
    the Storage (not its name: only the IR, built on read, embeds it),
    the normalised kernel, the options that change the code, the label
    request and — for what is resolved rather than asked (whether a tree
    engine runs, whether the reference side is sharded) — the resolved
    value, so asking for a default by name shares its entry."""
    layers = pexpr.layers
    kern = layers[1].metric_kernel
    layer_parts = tuple(
        (
            layer.op.name,
            layer.k,
            getattr(layer.var, "name", None),
            _func_key(layer.func),
            freeze(layer.params) if layer.params else None,
            layer.storage.dim,
            layer.storage.weights is None,
        )
        for layer in layers
    )
    return (
        layer_parts, (kern.base, repr(kern.g), kern.whiten),
        opts.backend, plan.engine is not None, opts.tree,
        opts.tau, opts.criterion, opts.theta,
        *self_pairs(layers, opts), (plan.shards or 1) > 1, labels,
    )


def _program_key(code_key: tuple, layers: list[Layer],
                 opts: CompileOptions, plan: ExecutionPlan) -> tuple:
    """Content identity of a 2-layer program: its code key plus what
    only :func:`_bind_data` reads — dataset fingerprints, the whitening
    covariance, the tree parameters (resolved leaf size and shard
    count).  Runtime-only plan fields (which engine, executor, workers,
    min_tasks) are left out.  Only the process executor needs it: its
    digest names the program's shared-memory publication."""
    return code_key + (
        tuple((layer.storage.fingerprint("data"),
               layer.storage.fingerprint("weights")) for layer in layers),
        freeze(layers[1].metric_kernel.covariance),
        opts.tree, plan.leaf_size, plan.shards,
    )


def compile_expr(pexpr, options: dict, *,
                 labels: bool = False) -> CompiledProgram:
    """Compile a validated :class:`~repro.dsl.portal_expr.PortalExpr`.

    Two-layer programs with a lowered kernel take their code half from
    the code cache when its shape was compiled before
    (``cache.compile.hit``: no rule or code generation) and then bind
    the data half, whose trees and whitened points the tree cache serves
    for datasets it has seen.

    ``labels`` (no option asks for it) compiles a bound-rule self-join
    under component labels (``CodegenSpec.labels``): ``QLABEL`` and the
    node ranges ``lmin`` / ``lmax`` in ``program.bindings.arrays``, for
    :mod:`repro.problems.emst` to rewrite in place between runs.
    """
    opts = CompileOptions.from_dict(options)
    layers = pexpr.layers
    # Everything 'auto', environment-supplied or policy-tuned becomes
    # concrete here, before the cache key: sharded code must never
    # collide with unsharded code, and a request that resolves to the
    # default legitimately shares its entry.
    plan = resolve_plan(opts, os.environ, _LazyPolicy(), layers)
    if len(layers) > 2 or layers[1].metric_kernel is None:
        from . import fallbacks

        fallback = (fallbacks.compile_multilayer if len(layers) > 2
                    else fallbacks.compile_external)
        return fallback(pexpr, opts, plan)

    cacheable = (
        opts.backend in ("vectorized", "brute")
        # Opaque Python callables have no content identity to key on.
        and not any(
            callable(l.func) and not isinstance(l.func, Expr) for l in layers
        )
    )
    key = None
    if cacheable:
        try:
            key = (ARTIFACT_SCHEMA, _code_key(pexpr, opts, plan, labels))
        except UncacheableParamError:
            # A parameter with no content identity: running uncached is
            # correct; keying on its repr() (a memory address) is not.
            contribute({"cache.compile.uncacheable": 1})
            cacheable = False
    code, timings, cache_state = MISSING, {}, None
    if cacheable:
        code = code_cache.get(key, MISSING)
        cache_state = "miss" if code is MISSING else "hit"
        contribute({f"cache.compile.{cache_state}": 1})
    if code is MISSING:
        code, timings = _compile_code(pexpr, opts, plan, labels)
        if cacheable:
            code_cache.put(key, code)
    # Code first: nothing the emitter does waits on a tree.
    data = _bind_data(code, layers, opts, plan, timings)
    return _instantiate(code, data, pexpr, opts, plan, timings,
                        cache_state, code_key=key)


def front_end(pexpr, opts: CompileOptions):
    """The rules step of Fig. 1 every compile path shares.  Returns
    ``(classification, rule, timings)``; lowering and the passes wait
    for a reader (:meth:`~repro.backend.program.CompiledProgram.ir`)."""
    contribute({"compile.count": 1})
    t0 = time.perf_counter()
    with span("compile.rules", program=pexpr.name):
        classification, rule = program_rules(pexpr.layers, opts)
    timings = {"rules": time.perf_counter() - t0}
    contribute({f"rules.classified.{classification.category}": 1,
                f"rules.generated.{rule.kind}": 1})
    return classification, rule, timings


def self_pairs(layers: list[Layer], opts: CompileOptions) -> tuple[bool, bool]:
    """``(same_data, exclude_self)`` of a 2-layer program: self pairs
    are excluded by default exactly when the query *is* the reference."""
    same_data = layers[0].storage is layers[1].storage
    return same_data, (
        opts.exclude_self if opts.exclude_self is not None else same_data)


def _compile_code(pexpr, opts: CompileOptions, plan: ExecutionPlan,
                  labels: bool = False) -> tuple[_Code, dict]:
    """Rules → emit (paper Fig. 1) for a 2-layer program with a lowered
    kernel: the code half + its timings."""
    layers = pexpr.layers
    outer, inner = layers
    kernel = inner.metric_kernel
    classification, rule, timings = front_end(pexpr, opts)

    # The plan names an engine exactly when the tree algorithm applies.
    if opts.backend == "interp":
        mode = "interp"
    else:
        mode = "tree" if plan.engine is not None else "brute"
    dim = outer.storage.dim
    if mode == "tree":
        if opts.tree == "octree" and dim > 3:
            raise CompileError("octrees require d <= 3; use tree='kd'")

    # Strength-reduced kernel body for the code generator.
    g_ir = reduce_expr(kernel_to_ir(kernel.g))

    # One-sided indicator kernels compare in *base-distance* units
    # (t < h² instead of sqrt(t) < h): exact — approximate square roots
    # must never flip a comparison in a pruning problem — and cheaper.
    if kernel.is_indicator:
        thr = kernel.indicator_threshold()
        if thr is not None:
            op_sym, h_base = thr
            g_ir = Indicator(op_sym, SymRef("t"), Const(h_base))

    # Monotone-map deferral: order-based reductions over a monotone
    # *increasing* g(t) reduce raw base distances in the hot path and
    # apply g once at finalisation (what expert code does by hand, and
    # what a real backend hoists out of the leaf loop).
    defer_monotone = (
        inner.op in (MIN_LIKE | MAX_LIKE)
        and not kernel.is_indicator
        and kernel.monotone() == "increasing"
        and not isinstance(g_ir, SymRef)  # g is not already the identity
    )
    if defer_monotone:
        g_ir = SymRef("t")

    # Sharded reference layout: the reference side becomes per-shard
    # trees (never the query tree, so same_tree kernels can't apply) and
    # self-pair exclusion switches to labels: each shard's RLABEL names
    # the query position of its points.
    sharded = (plan.shards or 1) > 1
    same_data, exclude_self = self_pairs(layers, opts)
    if labels and (sharded or not same_data or mode != "tree"
                   or not rule.is_bound):
        raise CompileError("labels need an unsharded bound-rule self-join")
    spec = CodegenSpec(
        dim=dim, base=kernel.base,
        g_ir=g_ir, monotone=kernel.monotone(), outer_op=outer.op,
        inner_op=inner.op, rule=rule if mode == "tree" else None,
        weighted=inner.storage.weights is not None,
        same_tree=same_data and not sharded, exclude_self=exclude_self,
        is_indicator=kernel.is_indicator,
        labels=labels or (sharded and same_data and exclude_self),
    )
    t0 = time.perf_counter()
    source, code = emit(spec)
    timings["codegen"] = time.perf_counter() - t0

    scalars = {
        "K": inner.k or 1,
        "H": rule.indicator_h if rule.indicator_h is not None else 0.0,
        "TAU": rule.tau,
        "THETA2": rule.theta * rule.theta,
    }
    return _Code(
        mode=mode, classification=classification, rule=rule, spec=spec,
        source=source, code=code, defer_monotone=defer_monotone,
        scalars=scalars, same_data=same_data,
    ), timings


def _bind_data(code: _Code, layers: list[Layer], opts: CompileOptions,
               plan: ExecutionPlan, timings: dict) -> _Data:
    """Whitening → tree builds → shard pack → :class:`Bindings`: the
    data half of ``code`` over the layers' datasets; its stages are
    added to ``timings``."""
    qstorage, rstorage = layers[0].storage, layers[1].storage
    # The program's own kernel, not one kept with the shared code: its
    # covariance is data, keyed with the whitened points alone.
    kernel, same_data = layers[1].metric_kernel, code.same_data

    qpoints, rpoints = qstorage.data, rstorage.data
    q_fp = r_fp = None  # None: the Storages' own fingerprints
    if kernel.whiten:
        (qpoints, q_fp), (rpoints, r_fp) = _whitened(
            kernel.covariance, qstorage, rstorage, same_data)

    if code.mode != "tree":
        return _Data(Bindings.brute(qpoints, rpoints, rstorage.weights,
                                    code.scalars),
                     qdata=qpoints, rdata=rpoints)

    kind, leaf = opts.tree, plan.leaf_size
    sharded = (plan.shards or 1) > 1
    rtree = shard_pack = None
    t0 = time.perf_counter()
    with span("compile.tree_build", tree=kind, leaf_size=leaf):
        # Passing the Storage alongside its own data array arms the
        # incremental path: on a fingerprint miss after a logged
        # mutation, the cache refits the previous live tree instead
        # of rebuilding (cached_build_tree checks the identity).
        qtree = cached_build_tree(kind, qpoints, leaf, qstorage.weights,
                                  storage=qstorage, fingerprint=q_fp)
        if not sharded:
            rtree = qtree if same_data else cached_build_tree(
                kind, rpoints, leaf, rstorage.weights, storage=rstorage,
                fingerprint=r_fp,
            )
    timings["tree_build"] = time.perf_counter() - t0
    bindings = Bindings.query(qtree, code.scalars)
    if code.spec.labels:
        # Each point starts as its own label (sharded, RLABEL is in the
        # pack); on one tree, one writable array serves both sides.
        pos = np.arange(qtree.n)
        bindings |= Bindings({"QLABEL": pos} if sharded else dict(
            QLABEL=pos, RLABEL=pos, lmin=qtree.start.copy(),
            lmax=qtree.end - 1), {})
    if sharded:
        # Reference side: one tree per spatial shard, built in
        # parallel through the derived-key tree cache; the r-side
        # bindings live in the pack, one set per shard.
        from ..parallel.shard import build_shard_pack

        inv_qperm = qtree.inv_perm() if code.spec.labels else None
        t0 = time.perf_counter()
        shard_pack = build_shard_pack(
            kind, rpoints, rstorage.weights, leaf, plan.shards,
            (r_fp or rstorage.fingerprint("data"),
             rstorage.fingerprint("weights")),
            code.spec.rule, inv_qperm=inv_qperm,
        )
        timings["shard_build"] = time.perf_counter() - t0
    else:
        bindings |= Bindings.reference(rtree, code.spec.rule)
    return _Data(bindings, qtree=qtree, rtree=rtree, shard_pack=shard_pack,
                 rdata=rpoints if sharded else None)


def _whitened(cov, qstorage, rstorage,
              same_data: bool) -> tuple[tuple, tuple]:
    """Both sides' points under the whitening transform of section IV-D,
    each with its fingerprint, in one derived-key tree-cache entry per
    side: keyed by the side's data and the covariance — its content, or
    the reference data it is estimated from — so a repeat execute neither
    whitens nor hashes."""
    transform = functools.cache(lambda: _whiten_transform(
        np.cov(rstorage.data.T) if cov is None else cov))
    cov_id = (("estimated", rstorage.fingerprint("data")) if cov is None
              else freeze(cov))

    def side(storage):
        def whiten():
            points = transform()(storage.data)
            return points, array_fingerprint(points)
        return derived_entry(("whiten", storage.fingerprint("data"), cov_id),
                             whiten, "cache.whiten")

    q = side(qstorage)
    return q, q if same_data else side(rstorage)


def _instantiate(code: _Code, data: _Data, pexpr, opts: CompileOptions,
                 plan: ExecutionPlan, timings: dict, cache_state: str | None,
                 code_key: tuple | None = None) -> CompiledProgram:
    """Build a runnable :class:`CompiledProgram` from the two halves:
    fresh state arrays, fresh modifier closure, and the emitted code
    object re-executed against them."""
    layers = pexpr.layers
    outer, inner = layers
    modifier = _resolve_modifier(outer.func)
    nq, nr = outer.storage.n, inner.storage.n
    state = allocate_state(outer.op, inner.op, inner.k, nq, nr, modifier)
    if code.defer_monotone:
        captured_g = inner.metric_kernel.g
        state.value_transform = lambda v: captured_g.evaluate({"t": v})

    # Versioned snapshot semantics: the program pins a consistent view of
    # the (possibly live) trees at instantiation time.  Snapshots are
    # shallow — mutation rebinds arrays rather than writing into them —
    # so an in-flight or retained program keeps reading the version it
    # compiled against even if the cached tree is refit later.
    qtree, rtree = data.qtree, data.rtree
    if qtree is not None:
        qtree = qtree.snapshot()
        rtree = qtree if data.rtree is data.qtree else (
            None if data.rtree is None else data.rtree.snapshot())
    token = None
    if (code.mode == "tree" and code_key is not None
            and plan.executor == "process"):
        # Only the process executor publishes under the token.  Let the
        # Storages evict exactly these shm publications (and their
        # ::r{i} shard derivatives) when they mutate — a warm
        # process pool must never be served stale columns.
        token = hashlib.blake2b(
            repr(_program_key(code_key, layers, opts, plan)).encode(),
            digest_size=16).hexdigest()
        for layer in layers:
            layer.storage.note_shm_token(token)
    program = CompiledProgram(
        name=pexpr.name, options=opts, plan=plan, layers=layers,
        kernel=inner.metric_kernel, classification=code.classification,
        rule=code.rule, mode=code.mode, state=state,
        qtree=qtree, rtree=rtree, qdata=data.qdata, rdata=data.rdata,
        nr=nr, same_data=code.same_data, cache_state=cache_state,
        bindings=data.bindings, program_token=token, timings=dict(timings),
    )
    if data.shard_pack is not None:
        # Sharded layout: per-shard states + kernel binds; the shard-0
        # kernels stand in as program.kernels for generated_source()
        # introspection.
        from ..parallel.shard import build_shard_execution

        program.shard_exec = build_shard_execution(
            data.shard_pack, code.source, code.code, data.bindings,
            outer.op, inner.op, inner.k, nq,
        )
        bound = program.shard_exec.kernels
    else:
        bound = [data.bindings.bind(code.source, code.code, state)]
    program.kernels = bound[0]
    exact = bound[0].exact_values
    if exact is not None:
        # The winners' exact values, over the points the kernels saw:
        # state rows are query-tree positions, and ids are reference-tree
        # positions or — combined across shards — original ids.
        qp = data.qdata if qtree is None else qtree.points
        rp = data.rdata if rtree is None else rtree.points
        rows = np.arange(len(qp))
        state.exact = lambda ids: exact(
            qp, rows if ids.ndim == 1 else rows[:, None], rp, ids)
    # exec-bound kernels are a reference cycle (namespace → function →
    # its __globals__) that pins the trees' arrays until the cycle
    # collector runs; the program owns them, so it releases their
    # operands by reference count when it dies.
    for kernels in bound:
        weakref.finalize(program, kernels.namespace.clear)
    return program
