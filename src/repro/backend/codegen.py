"""Backend code generation (paper section IV-F).

Emits *real source code* for the three traversal functions — a vectorised
NumPy translation of the optimised Portal IR — then compiles it with
``compile()``/``exec`` and returns the callables.  This is the
reproduction's stand-in for the paper's LLVM x86 backend: the compiler
still produces an executable artifact from the IR, and the same
vectorisation decisions drive the emitted code:

* **one distance form per metric** — a squared-Euclidean kernel that is
  not an indicator takes its block distances as one augmented GEMM at
  every d; indicators and the Manhattan / Chebyshev bases take the
  difference form, one coordinate at a time in dimension order.  The
  paper's d ≤ 4 column-major layout is not reproduced: under NumPy the
  GEMM wins at every d (DESIGN.md, S8).  The winners of a comparative
  reduction are re-evaluated once in the difference form
  (``exact_values``), so their values do not depend on block shapes;
* **strength reduction** — the kernel expression arrives already
  strength-reduced (``pow`` as chained multiplications) and is emitted
  node by node (:func:`_value_lines`): one line per distinct value, so a
  shared square is computed once, written with ``out=`` into an array
  of ``t`` that is not read again, and the generated source visibly
  contains the optimisation;
* **multi-variable filters** — ``min^k``-style operators keep a sorted
  k-array per query, the ordered array the paper describes.  Each leaf
  batch first filters the query rows against their k-th best; only rows
  with a candidate that can enter are merged, and a skipped row is left
  untouched.

Code no program changes (the merges, the GEMM operands, the row
regime's base case, the count and append actions) is plain Python here,
and a program binds each piece it uses in one emitted line.  The
generated source is kept on the compiled program for inspection
(``PortalExpr.generated_source()``), playing the role of an LLVM IR dump.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from ..dsl.errors import CompileError
from ..dsl.expr import BinOp, Call, Const, Expr, Indicator, Neg
from ..dsl.ops import MAX_LIKE, MIN_LIKE, PortalOp, op_info
from ..ir.nodes import IRCall, SymRef
from ..observe import span
from ..rules.spec import RuleSpec
from ..trees.node import _ranges

__all__ = [
    "CodegenSpec", "GeneratedKernels", "generate", "emit", "emit_external",
    "bind_kernels", "Bindings",
]

_NUMPY_CALLS = {
    "sqrt": "np.sqrt",
    "exp": "np.exp",
    "log": "np.log",
    "abs": "np.abs",
    "pow": "np.power",
    "max": "np.maximum",
    "min": "np.minimum",
}


@dataclass
class CodegenSpec:
    """Everything the generator needs to emit a problem's kernels."""

    dim: int
    base: str
    g_ir: Expr | None               # strength-reduced kernel body over
                                    # SymRef('t'); None: external kernel
    monotone: str | None            # 'increasing' | 'decreasing' | None
    outer_op: PortalOp = PortalOp.FORALL
    inner_op: PortalOp = PortalOp.SUM
    rule: RuleSpec | None = None
    weighted: bool = False
    same_tree: bool = False
    exclude_self: bool = False
    is_indicator: bool = False
    #: exclusion by label, replacing the positional self-pair test: a
    #: pair with ``QLABEL[q] == RLABEL[r]`` is excluded.  Sharded
    #: (:mod:`repro.parallel.shard`), a query point's label is its
    #: query-tree position and ``RLABEL`` maps shard positions to query
    #: positions, which the count and append actions read as positions;
    #: on one shared tree (:mod:`repro.problems.emst`) both name one
    #: array of component labels, and the bound keys read each node's
    #: label range ``[lmin, lmax]``.  Set by the compiler, never by an
    #: option.
    labels: bool = False


@dataclass
class GeneratedKernels:
    """Compiled closures plus the emitted source for inspection.

    Every base case is one instance of one skeleton — gather → distance
    → value → self-exclusion/pads → fold — over its own gather:
    ``base_case(qs, qe, rs, re)`` over two leaf slices (the stack
    engine's and brute mode's base case); ``base_case_group(qs, qe,
    gathered)`` over a query leaf and the gathered points of several
    reference leaves (one call per query leaf of a stateless program's
    flush in the batched engine,
    :mod:`repro.traversal.bounded_batched`); a bound rule's
    ``base_case_blocks(qs, qe, ridx, redge)`` over every query leaf of
    one epoch, packed into padded blocks of at most :data:`CHUNK_CELLS`
    cells; and the row regime's ``base_case_rows(qidx, ridx)`` over
    (query row, reference point) pairs.  The distance has one form per
    metric (:func:`_augmented_gemm`); the row regime's pairs take the
    difference form of ``exact_values(Q, qidx, R, ridx)``, which also
    re-evaluates a comparative reduction's winners once after the
    traversal (:func:`repro.backend.state.exact_winners`).  A
    comparative fold is one bound ``_merge``.  Stateless rules
    (indicator / approximation) get ``classify_batch`` over whole arrays
    of node-id pairs, and an inside-region action ``apply_action(qis,
    ris)`` for arrays of its inside pairs.  An approximated pair needs no
    action: it is its query node against the reference node's
    pseudo-point, one more gathered column of ``base_case_group``
    (:meth:`Bindings.reference`).  Bound rules (k-NN, Hausdorff) get
    ``bound_key_batch`` (node pairs) and ``row_key_batch`` (row regime)
    promise keys, which the engine classifies against a signed
    per-query bound array ``qbound``.  The batched engine takes the
    bound form exactly when ``bound_key_batch`` is set; the stack
    reference engine calls them on one pair at a time.
    """

    source: str
    namespace: dict
    base_case: Callable
    pair_min_dist: Callable | None = None
    classify_batch: Callable | None = None
    apply_action: Callable | None = None
    bound_key_batch: Callable | None = None
    base_case_group: Callable | None = None
    base_case_blocks: Callable | None = None
    row_key_batch: Callable | None = None
    base_case_rows: Callable | None = None
    exact_values: Callable | None = None


# ---------------------------------------------------------------------------
# the distance table: metric → block form
# ---------------------------------------------------------------------------

#: metric → (the difference form's term of one coordinate's difference
#: ``_d``, its fold into ``t``, the reduction of a box-gap vector over its
#: last axis).  The reduction serves a scalar node pair and arrays of
#: them alike, so a pair's bound is one bitwise value in both engines.
_METRICS = {
    "sqeuclidean": ("_d * _d", "t += {}", "({0} * {0}).sum(axis=-1)"),
    "manhattan": ("np.abs(_d)", "t += {}", "{0}.sum(axis=-1)"),
    "chebyshev": ("np.abs(_d)", "np.maximum(t, {}, out=t)", "{0}.max(axis=-1)"),
}


def _augmented_gemm(spec: CodegenSpec) -> bool:
    """The block form, a function of (metric, indicator) alone: the norm
    expansion as one augmented GEMM for a squared-Euclidean kernel that
    is not an indicator, at every d; the difference form otherwise.  (An
    indicator keeps the exact difference form: a count must not flip on
    cancellation at its threshold.)"""
    return spec.base == "sqeuclidean" and not spec.is_indicator


def _scale_fold(g: Expr) -> tuple[float, Expr]:
    """``(a, h)`` with ``g(t) = h(a·t)``, the scale the GEMM spelling
    folds into its query operand.  ``t`` must occur once in ``g``, inside
    one chain of negations and of products or quotients by a constant
    (the Gaussian's ``exp(-(t / c))`` is ``h = exp``, ``a = −1/c``);
    ``h`` is ``g`` with that chain replaced by ``t``.  Any other ``g``
    is ``(1.0, g)``."""
    if sum(map(_is_t, g.walk())) != 1:
        return 1.0, g

    def fold(n: Expr) -> tuple[float, Expr, bool]:
        # n holds the one t: (factor, n rebuilt, whether n is in the chain)
        if _is_t(n):
            return 1.0, n, True
        kids = n.children()
        at = next(i for i, c in enumerate(kids) if any(map(_is_t, c.walk())))
        a, kid, chain = fold(kids[at])
        other = kids[1 - at] if len(kids) == 2 else None
        if chain and isinstance(n, Neg):
            return -a, kid, True
        if chain and isinstance(n, BinOp) and isinstance(other, Const):
            if n.op == "*":
                return a * other.value, kid, True
            if n.op == "/" and at == 0 and other.value != 0.0:
                return a / other.value, kid, True
        return a, n._rebuild([kid if i == at else c
                              for i, c in enumerate(kids)]), False

    a, h, _ = fold(g)
    a = float(a)
    if a == 0.0 or not np.isfinite(a):
        return 1.0, g
    return a, h


#: binary operator → the ufunc its array spelling calls (``**`` is left
#: out: ``ndarray.__pow__`` takes shortcuts ``np.power`` does not)
_BINARY_UFUNCS = {"+": "np.add", "-": "np.subtract", "*": "np.multiply",
                  "/": "np.divide"}


def _is_t(n: Expr) -> bool:
    return isinstance(n, SymRef) and n.name == "t"


def _literal(x: float) -> str:
    """A float constant's spelling in emitted code: ``repr``, except the
    values whose ``repr`` is no Python expression (``inf``, ``nan``)."""
    if np.isnan(x):
        return "np.nan"
    return {np.inf: "np.inf", -np.inf: "-np.inf"}.get(x, repr(x))


def _rows(name: str, index: str) -> str:
    """The rows of the array ``name`` at ``index``: a slice stays a
    subscript (a view); an index array (or a node id) gathers with
    ``take``, which copies the same bytes as fancy indexing at a quarter
    to a half of its cost for rows of a few columns (docs/performance.md,
    "Row gathers")."""
    if ":" in index:
        return f"{name}[{index}]"
    return f"{name}.take({index}, axis=0)"


def _value_lines(g: Expr, t: str = "t", v: str = "v",
                 owned: bool = False) -> tuple[list[str], str]:
    """Lines computing ``g(t)``, and the name that holds it: ``v``, or
    ``t`` itself for an identity ``g``, which gets no line.

    The distinct non-leaf nodes of ``g`` are numbered by structure,
    innermost first, so a node spelt like one already numbered
    (strength reduction's shared squares) is that value, computed once.
    Each value is one line through one name map, the last into ``v``,
    in the expression's operator spelling (``(a / b)``, which on a
    scalar costs a quarter of the ufunc call).  With ``owned``, ``t`` is
    an array the caller gives up, and every value computed from it is a
    fresh array: a node with a ufunc spelling that reads such an operand
    for the last time writes into it with ``out=``, so a block kernel
    allocates no array per node of ``g`` (the Gaussian's ``v =
    np.exp(t, out=t)``).  Both spellings call the same ufuncs on the
    same operands, so the bits are those of ``g.evaluate``."""
    numbered: dict[tuple, int] = {}
    values: list[tuple] = [None]   # value 0 is t: (ufunc, template, operands)

    def number(n: Expr) -> int | str:
        # a value's number, or a constant's literal
        if _is_t(n):
            return 0
        if isinstance(n, Const):
            return _literal(n.value)
        if isinstance(n, SymRef):
            raise CompileError(f"no binding for IR symbol {n.name!r}")
        if isinstance(n, BinOp):
            fn, template = _BINARY_UFUNCS.get(n.op), f"({{}} {n.op} {{}})"
        elif isinstance(n, Neg):
            fn, template = "np.negative", "(-({}))"
        elif isinstance(n, (IRCall, Call)):
            fn = _NUMPY_CALLS.get(n.func)
            if fn is None:
                raise CompileError(f"cannot emit IR function {n.func!r}")
            template = f"{fn}({', '.join('{}' for _ in n.children())})"
        elif isinstance(n, Indicator):
            fn, template = None, f"np.multiply(({{}}) {n.op} ({{}}), 1.0)"
        else:
            raise CompileError(
                f"cannot emit expression node {type(n).__name__}")
        key = (template, tuple(number(c) for c in n.children()))
        if key not in numbered:
            numbered[key] = len(values)
            values.append((fn, *key))
        return numbered[key]

    root = number(g)
    if root == 0:
        return [], t
    if isinstance(root, str):
        return [f"{v} = {root}"], v
    last = {a: i for i, (_, _, args) in enumerate(values[1:], 1)
            for a in args}
    names = {0: t}
    fresh = {0} if owned else set()   # values in arrays the lines may reuse
    lines = []
    for i, (fn, template, args) in enumerate(values[1:], 1):
        spelt = [names.get(a, a) for a in args]
        dead = [a for a in args if a in fresh and last[a] == i]
        if fn is not None and dead:
            buf = names[dead[0]]
            call = f"{fn}({', '.join(spelt)}, out={buf})"
            names[i] = v if i == root else buf
            lines.append(call if names[i] == buf else f"{v} = {call}")
        else:
            names[i] = v if i == root else f"_{t}{i}"
            lines.append(f"{names[i]} = {template.format(*spelt)}")
        if fresh.intersection(args):
            fresh.add(i)
    return lines, v


# ---------------------------------------------------------------------------
# the base-case skeleton: gather → distance → value → self-exclusion/pads
# → fold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Gather:
    """How one base case reaches its block, the skeleton's parameter.

    ``q`` / ``r`` index the query / reference points (``QROW``,
    ``RROW`` and the GEMM operands); ``qpos`` / ``rpos`` spell the same
    rows' tree positions, for self-exclusion, ids and the merge.  A
    block is every ``q`` row against every ``r`` row, ``stacked`` when
    ``q`` and ``r`` carry a leading axis of blocks.  ``overlap``, when
    set, is the condition under which the block can hold a self pair by
    position; ``far``, whether ``r`` can reach an approximation rule's
    pseudo-points, which weigh their node's mass."""

    q: str
    r: str
    qpos: str
    rpos: str
    stacked: bool = False
    overlap: str = ""
    far: bool = False


#: ``base_case``: two leaf slices (on one shared tree, and in brute
#: force's aligned blocks, equal or disjoint)
_SLICES = _Gather("qs:qe", "rs:re", "np.arange(qs, qe)", "np.arange(rs, re)",
                  overlap="qs < re and rs < qe")
#: ``base_case_group``: a query slice against one chunk of gathered points
#: (pseudo-points too)
_GROUP = _Gather("qs:qe", "ridx", "np.arange(qs, qe)", "ridx", far=True)
#: ``base_case_blocks``: a stack of padded (query leaf × gathered) blocks
_BLOCKS = _Gather("qrow", "rid", "qrow", "rid", stacked=True)

#: the index suffixes that broadcast a query-row array against a
#: reference-row array into a block
_QB, _RB = "[..., None]", "[..., None, :]"


def _difference_lines(spec: CodegenSpec, diff: str, Q: str) -> list[str]:
    """The difference form's fold of ``t`` over the coordinates of the
    points ``Q``: coordinate ``c``'s difference ``diff.format(c=c)``
    squared (or its magnitude taken), folded in dimension order.  Every
    difference form of every kernel is this one spelling, so a pair's
    value does not depend on the block it was evaluated in."""
    term, fold, _ = _METRICS[spec.base]
    return [f"_d = {diff.format(c=0)}",
            f"t = {term}",
            f"for _c in range(1, {Q}.shape[1]):",
            f"    _d = {diff.format(c='_c')}",
            f"    {fold.format(term)}"]


def _distance_lines(spec: CodegenSpec, g: _Gather) -> list[str]:
    """Lines computing the block ``t`` of gather ``g`` and then ``v``, in
    the block form of :func:`_augmented_gemm`: the GEMM with the kernel's
    scale folded into the query operand and ``v = h(t)``
    (:func:`_scale_fold`), or the difference form
    (:func:`_difference_lines`) and ``v = g(t)``."""
    if _augmented_gemm(spec):
        a, h = _scale_fold(spec.g_ir)
        # a stack of blocks takes a contiguous (k × columns) right operand,
        # the fast batched GEMM
        ra = _rows("RA", g.r)
        rt = (f"np.ascontiguousarray({ra}.transpose(0, 2, 1))"
              if g.stacked else f"{ra}.T")
        lines = [f"QA, RA = _gemm_operands({a!r})",
                 f"t = {_rows('QA', g.q)} @ {rt}",
                 f"np.{'minimum' if a < 0 else 'maximum'}(t, 0.0, out=t)"]
    else:
        h, lines = spec.g_ir, _difference_lines(
            spec, f"QROW[:, {{c}}][{g.q}]{_QB} - RROW[:, {{c}}][{g.r}]{_RB}",
            "QROW")
    value, name = _value_lines(h, owned=True)
    return [*lines, *value, *([] if name == "v" else [f"v = {name}"])]


def _exclusion_value(op: PortalOp) -> float:
    """The value a masked cell holds: one that never enters the
    operator's state."""
    if op in MIN_LIKE:
        return np.inf
    if op in MAX_LIKE:
        return -np.inf
    return 1.0 if op is PortalOp.PROD else 0.0


def _self_exclusion_lines(spec: CodegenSpec, g: _Gather) -> list[str]:
    """Lines writing the exclusion value over the excluded pairs of
    ``v``: those whose two points carry one label (``spec.labels``),
    else the self pairs by position on one shared tree (only where the
    gather can overlap itself)."""
    guard = []
    if spec.labels:
        mask = f"QLABEL[{g.q}]{_QB} == RLABEL[{g.r}]{_RB}"
    elif spec.same_tree and spec.exclude_self:
        mask = f"{g.qpos}{_QB} == {g.rpos}{_RB}"
        guard = [f"if {g.overlap}:"] if g.overlap else []
    else:
        return []
    return [*guard, f"{'    ' if guard else ''}np.copyto(v, "
            f"{_literal(_exclusion_value(spec.inner_op))}, where={mask})"]


def _comparative(spec: CodegenSpec) -> bool:
    return spec.inner_op in MIN_LIKE | MAX_LIKE


def _block_lines(spec: CodegenSpec, g: _Gather) -> list[str]:
    """The skeleton's gather → distance → value → self-exclusion for
    gather ``g``, leaving the block in ``v``."""
    return [*_distance_lines(spec, g), *_self_exclusion_lines(spec, g)]


def _merge_binding(spec: CodegenSpec) -> str | None:
    """The line binding a comparative reduction's one ``_merge``
    (:func:`_k_merge` or :func:`_single_merge`), which refreshes
    ``qbound`` under a bound rule only; None for any other operator."""
    if not _comparative(spec):
        return None
    bound = "qbound" if spec.rule is not None and spec.rule.is_bound else None
    fn, k = (("_k_merge", ", K") if op_info(spec.inner_op).requires_k
             else ("_single_merge", ""))
    return (f"_merge = {fn}(best, best_idx, {bound}{k}, "
            f"descending={spec.inner_op in MAX_LIKE})")


def _fold_lines(spec: CodegenSpec, g: _Gather) -> list[str]:
    """Lines folding the block ``v`` of a query slice ``[qs, qe)`` into
    the operator's state: a comparative reduction calls :func:`_merge`, a
    SUM adds, a PROD multiplies, a list appends each row's hits and a
    dense ``FORALL`` stores.  Where the gather reaches pseudo-points
    (rows from ``rend[0]`` on, gathered after the real rows), a column
    weighs ``rw``, a pseudo-point its node's mass: a weighted SUM folds
    every column by ``rw``; an unweighted one scales its pseudo-point
    columns alone and a PROD raises them to that power, so a real row's
    term and its fold keep their bits, one row's whatever other rows
    share the block (a GEMV's do not)."""
    op = spec.inner_op
    if _comparative(spec):
        return [f"_merge(v, {g.qpos}, {g.rpos}[None])"]
    far = []
    if g.far and spec.rule is not None and spec.rule.approximates:
        w = "v[:, far] * w" if op is PortalOp.SUM else "np.power(v[:, far], w)"
        far = [f"if {g.r}[-1] >= rend[0]:",
               f"    far = {g.r} >= rend[0]",
               f"    w = rw[{g.r}[far]]",
               f"    v[:, far] = {w}"]
    if op is PortalOp.SUM:
        if spec.weighted:
            return [f"acc[qs:qe] += v @ rw[{g.r}]"]
        return [*far, "acc[qs:qe] += v.sum(axis=1)"]
    if op is PortalOp.PROD:
        if spec.weighted:
            raise CompileError("PROD does not support weighted references")
        return [*far, "acc[qs:qe] *= v.prod(axis=1)"]
    if op is PortalOp.UNIONARG or op is PortalOp.UNION:
        # one nonzero scan per block; the hits come row-major, so each
        # row with any is one run of them
        hits = (f"{g.rpos}[hit_c]" if op is PortalOp.UNIONARG
                else "v[hit_r, hit_c]")
        return [
            "hit_r, hit_c = np.nonzero(v)",
            "if hit_r.size:",
            "    head = np.flatnonzero(np.diff(hit_r, prepend=-1))",
            "    rows = (qs + hit_r[head]).tolist()",
            f"    for i, got in zip(rows, np.split({hits}, head[1:])):",
            "        out_lists[i].append(got)",
        ]
    if op is PortalOp.FORALL:
        return [f"dense[qs:qe, {g.r}] = v"]
    raise CompileError(f"no base-case template for {op.name}")  # pragma: no cover


def _function(head: str, body: list[str]) -> str:
    return "\n".join([head, *("    " + line for line in body)])


def _base_case_source(spec: CodegenSpec) -> str:
    """Emit ``base_case(qs, qe, rs, re)``: one leaf pair over slice
    views, the stack engine's and brute mode's base case."""
    return _function("def base_case(qs, qe, rs, re):",
                     [*_block_lines(spec, _SLICES), *_fold_lines(spec, _SLICES)])


#: Cells (query rows × gathered reference columns) that one chunk of a
#: stateless program's grouped base case, or one block of a bound
#: program's blocked base case, evaluates at once, so its temporaries
#: stay in cache (2 vCPUs, x86_64, NumPy 2.4): ``kde_approx`` op_p50 at
#: 16K → 64K cells 155 → 139 ms (median of 4 interleaved spine pairs,
#: 4/4 won); under the folded Gaussian GEMM, 32K / 64K / 128K cells ran
#: 84.5 / 82.8 / 84.4 ms (median of 3 interleaved rounds; 64K won 2 of
#: 3 against 32K and 3 of 3 against 128K, all within 2 %); the
#: ``knn_prune`` blocked kernel ≈ 10 % slower at 32K cells than at 64K,
#: ≈ 3× slower uncapped (one block per epoch).  With rows gathered by
#: ``take`` (3 interleaved spine rounds, op_p50 medians, 32K / 64K /
#: 128K): ``knn_prune`` 70.1 / 63.7 / 61.5 ms (128K won 3 of 3 against
#: 64K, by 0.2–6.6 %), ``kde_approx`` 66.9 / 66.3 / 66.7 ms (128K won 1
#: of 3, peak RSS +1 MB); no size wins both, so 64K stays.
CHUNK_CELLS = 64 * 1024


def _base_case_group_source(spec: CodegenSpec) -> str | None:
    """Emit ``base_case_group(qs, qe, gathered)`` for a stateless
    program: one base case for a query node against the concatenated
    points of *several* reference leaves, then any pseudo-points (an
    approximation's far field, :meth:`Bindings.reference`), walked in
    chunks of at most :data:`CHUNK_CELLS` cells.  A bound program gets
    :func:`_base_case_blocks_source` instead."""
    rule = spec.rule
    if rule is not None and rule.is_bound:
        return None
    return _function("def base_case_group(qs, qe, gathered):", [
        f"step = max(1, {CHUNK_CELLS} // (qe - qs))",
        "for c in range(0, gathered.shape[0], step):",
        "    ridx = gathered[c:c + step]",
        *("    " + line for line in (*_block_lines(spec, _GROUP),
                                      *_fold_lines(spec, _GROUP))),
    ])


def _base_case_blocks_source(spec: CodegenSpec) -> str | None:
    """Emit ``base_case_blocks(qs, qe, ridx, redge)`` for a bound rule:
    one call per leaf-bearing epoch of the batched engine's leaf regime.
    Query leaf ``i`` spans rows ``[qs[i], qe[i])`` and meets the gathered
    reference points ``ridx[redge[i]:redge[i + 1]]``.  The leaves are
    sorted by gathered width and packed into padded blocks of at most
    :data:`CHUNK_CELLS` cells (:func:`_blocks`); each block is one
    instance of the skeleton, batched over its leaves.  A pad cell
    (a narrower leaf's column, or a shorter leaf's row, which repeats
    its last real row) holds the operator's exclusion value, so
    the merge's filter never writes it."""
    rule = spec.rule
    if rule is None or not rule.is_bound:
        return None
    excl = _literal(_exclusion_value(spec.inner_op))
    return _function("def base_case_blocks(qs, qe, ridx, redge):", [
        "width = redge[1:] - redge[:-1]",
        "nrow = qe - qs",
        "order = np.argsort(width, kind='stable')",
        "qrows = qs[:, None] + np.arange(int(nrow.max()))",
        "padrows = qrows >= qe[:, None]",
        "np.minimum(qrows, qe[:, None] - 1, out=qrows)",
        "for sel in _blocks(order, nrow[order], width[order]):",
        "    W = int(width[sel[-1]])",
        "    P = int(nrow[sel].max())",
        "    col = np.arange(W)",
        "    rid = ridx[np.minimum(redge[sel, None] + col, ridx.size - 1)]",
        "    qrow = qrows[sel, :P]",
        *("    " + line for line in _block_lines(spec, _BLOCKS)),
        "    if width[sel[0]] < W:   # the narrower leaves' pad columns",
        f"        v.transpose(0, 2, 1)[col >= width[sel, None]] = {excl}",
        "    if nrow[sel].min() < P:   # the shorter leaves' pad rows",
        f"        v[padrows[sel, :P]] = {excl}",
        "    _merge(v.reshape(-1, W), qrow.ravel(), rid)",
    ])


def _exact_values_source(spec: CodegenSpec) -> str | None:
    """Emit ``exact_values(Q, qidx, R, ridx)`` for a comparative
    reduction: the kernel of the pairs ``(Q[qidx], R[ridx])`` (index
    arrays of one leading length that broadcast against each other) in
    the difference form.  It re-evaluates the winners after the
    traversal (:func:`repro.backend.state.exact_winners`) and is the row
    regime's distance (:func:`_row_base_case`).  Each side's rows are
    gathered by one ``take`` per slice of the leading axis, a slice
    holding at most :data:`CHUNK_CELLS` coordinates."""
    if not _comparative(spec):
        return None
    value, name = _value_lines(spec.g_ir, owned=True)
    diff = _difference_lines(spec, "qp[..., {c}] - rp[..., {c}]", "Q")
    return _function("def exact_values(Q, qidx, R, ridx):", [
        "out = np.empty(np.broadcast_shapes(qidx.shape, ridx.shape))",
        f"step = max(1, {CHUNK_CELLS} // (Q.shape[1] * max(1, out[:1].size)))",
        "for c in range(0, out.shape[0], step):",
        "    qp = Q.take(qidx[c:c + step], axis=0)",
        "    rp = R.take(ridx[c:c + step], axis=0)",
        *("    " + line for line in (*diff, *value)),
        f"    out[c:c + step] = {name}",
        "return out",
    ])


def _row_base_case_binding(spec: CodegenSpec) -> str | None:
    """The line binding a bound rule's ``base_case_rows``
    (:func:`_row_base_case`) over ``exact_values`` and ``_merge``."""
    if spec.rule is None or not spec.rule.is_bound:
        return None
    return ("base_case_rows = _row_base_case(exact_values, _merge, QROW, "
            f"RROW, best, descending={spec.inner_op in MAX_LIKE}"
            f"{_exclusion_args(spec, query=True)})")


def _exclusion_args(spec: CodegenSpec, query: bool = False) -> str:
    """A bound helper's excluded pairs: the label arrays under
    ``spec.labels`` (with the query side's, where the helper reads it),
    else the self pairs by position on one shared tree."""
    if spec.labels:
        return f", {'qlabel=QLABEL, ' if query else ''}rlabel=RLABEL"
    return ", self_pairs=True" if spec.same_tree and spec.exclude_self else ""


# ---------------------------------------------------------------------------
# node-distance helpers and prune/approx emission
# ---------------------------------------------------------------------------

#: the box operands the node-distance bounds subtract, in ``(lo, hi)``
#: pairs: the near (``min``) bound's gap is the larger ``lo − hi`` of
#: the two pairs, the far (``max``) bound's the larger ``hi − lo``,
#: second pair first
_BOX_PAIRS = (("rlo", "qhi"), ("qlo", "rhi"))


def _gap_lines(qlo: str, qhi: str, ri: str,
               edges: tuple[str, ...]) -> list[str]:
    """Lines computing the per-coordinate gap, clamped at 0, between a
    query box spelt ``qlo`` / ``qhi`` (the row regime's is its point,
    ``qlo = qhi = x``) and the reference boxes ``ri``, for each bound in
    ``edges``, with the same subtractions in the same argument order,
    so a pair's bound has one set of bits in every spelling.  One edge
    is one expression into ``gaps`` that writes into no operand (the row
    regime's ``x`` is both ``qlo`` and ``qhi``).  Every box operand is
    gathered by ``take`` (:func:`_rows`), a copy for a scalar node id
    and an array of them alike.  Both edges gather each box operand
    once and write only into those copies, leaving the gaps in ``gmin``
    and ``gmax``."""
    box = {"qlo": qlo, "qhi": qhi, "rlo": _rows("rlo", ri),
           "rhi": _rows("rhi", ri)}
    (a, b), (c, d) = [(box[lo], box[hi]) for lo, hi in _BOX_PAIRS]
    if edges == ("min",):
        return [f"gaps = np.maximum(0.0, np.maximum({a} - {b}, {c} - {d}))"]
    if edges == ("max",):
        return [f"gaps = np.maximum(0.0, np.maximum({d} - {c}, {b} - {a}))"]
    return [f"lo = {a}", f"hi = {b}",
            "gmin = lo - hi",
            "gmax = np.subtract(hi, lo, out=hi)",
            f"lo = {c}", f"hi = {d}",
            "np.maximum(gmin, lo - hi, out=gmin)",
            "np.maximum(np.subtract(hi, lo, out=hi), gmax, out=gmax)",
            "np.maximum(0.0, gmin, out=gmin)",
            "np.maximum(0.0, gmax, out=gmax)"]


def _node_distance_source(spec: CodegenSpec, edge: str) -> str:
    """Emit ``pair_<edge>_base_dist(qi, ri)``: the base distance bound
    between the boxes of query node(s) ``qi`` and reference node(s)
    ``ri``, scalar ids or arrays of them alike."""
    return _function(f"def pair_{edge}_base_dist(qi, ri):", [
        *_gap_lines(_rows("qlo", "qi"), _rows("qhi", "qi"), "ri", (edge,)),
        f"return {_METRICS[spec.base][2].format('gaps')}",
    ])


#: inside-region actions that add the reference node's count (``rweight``)
_COUNT_ACTIONS = ("count_per_query", "count_product")


def _action_source(spec: CodegenSpec) -> str | None:
    """The line binding ``apply_action(qis, ris)``, an inside-region
    rule's side effect of the node pairs ``(qis[p], ris[p])`` in pair
    order (:func:`_count_action`, :func:`_append_action`).  The batched
    engine calls it once per epoch with every code-2 pair of the epoch
    in pool order; the stack engine with its one pair, so each action
    has one spelling."""
    rule = spec.rule
    if rule is None or rule.kind != "indicator" or rule.inside_action is None:
        return None
    if rule.inside_action == "append_all":
        return ("apply_action = _append_action(out_lists, qstart, qend, "
                f"rstart, rend{_exclusion_args(spec)})")
    if rule.inside_action in _COUNT_ACTIONS:
        weights = ", rw=rw" if spec.weighted else ""
        return ("apply_action = _count_action(acc, qstart, qend, rstart, "
                f"rend, rweight{weights}{_exclusion_args(spec)})")
    raise CompileError(  # pragma: no cover
        f"unknown inside action {rule.inside_action!r}")


def _indicator_edges(rule: RuleSpec) -> tuple[str, str, str, str]:
    """``(op, negated op, first, second)`` of an indicator rule: for a
    '<'/'<=' threshold the satisfying region is near, so the first
    (min-distance) test decides all-outside and the second
    (max-distance) one all-inside; '>' mirrors."""
    opn = rule.indicator_op
    neg = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}[opn]
    edges = ["pair_min_base_dist", "pair_max_base_dist"]
    if opn not in ("<", "<="):
        edges.reverse()
    return opn, neg, *edges


def _pair_edges_lines(spec: CodegenSpec) -> list[str]:
    """Lines computing both base-distance bounds of the node pairs
    ``(qis, ris)``, ``tmin`` and ``tmax``, from the gaps of
    :func:`_gap_lines` (so the bits are ``pair_min_base_dist`` /
    ``pair_max_base_dist``'s) with each box array gathered once.  The
    pairs are taken in slices of at most :data:`CHUNK_CELLS`
    coordinates, so the box arrays and gaps alive at once stay
    cache-sized however wide the level."""
    step = max(1, CHUNK_CELLS // spec.dim)
    red = _METRICS[spec.base][2]
    return [
        "tmin = np.empty(qis.shape[0])",
        "tmax = np.empty(qis.shape[0])",
        f"for c in range(0, qis.shape[0], {step}):",
        f"    qi, ri = qis[c:c + {step}], ris[c:c + {step}]",
        *("    " + line for line in _gap_lines(
            _rows("qlo", "qi"), _rows("qhi", "qi"), "ri", ("min", "max"))),
        f"    tmin[c:c + {step}] = {red.format('gmin')}",
        f"    tmax[c:c + {step}] = {red.format('gmax')}",
    ]


def _classify_batch_source(spec: CodegenSpec) -> str | None:
    """Emit ``classify_batch(qis, ris) -> int8 codes`` (0: recurse,
    1: prune, 2: approximate / inside action), classifying a whole
    frontier of node pairs in a handful of array operations.

    Only *stateless* rules classify this way: the bound rules (k-NN,
    Hausdorff) read the mutable best-value arrays, so their batch form
    classifies against a node-bound *snapshot* instead — see
    :func:`_bound_batch_source` / :func:`_base_case_blocks_source`.
    """
    rule = spec.rule
    if rule is None or rule.kind in ("none", "bound-min", "bound-max"):
        return None
    lines = [
        "def classify_batch(qis, ris):",
        "    codes = np.zeros(qis.shape[0], dtype=np.int8)",
    ]
    b = lines.append

    if rule.kind == "indicator":
        opn, neg, first, second = _indicator_edges(rule)
        if rule.inside_action is None:
            b(f"    codes[{first}(qis, ris) {neg} H] = 1")
        else:
            lines += ("    " + line for line in _pair_edges_lines(spec))
            t1, t2 = (f"t{fn.split('_')[1]}" for fn in (first, second))
            b(f"    codes[{t1} {neg} H] = 1")
            b(f"    codes[(codes == 0) & ({t2} {opn} H)] = 2")
    elif rule.criterion == "band":
        lo, glo = _value_lines(spec.g_ir, "tmin", "gtmin", owned=True)
        hi, ghi = _value_lines(spec.g_ir, "tmax", "gtmax", owned=True)
        if spec.monotone == "decreasing":
            glo, ghi = ghi, glo
        lines += ("    " + line for line in (*_pair_edges_lines(spec),
                                             *lo, *hi))
        b(f"    codes[({ghi} - {glo}) <= TAU] = 2")
    else:  # mac
        b("    tmin = pair_min_base_dist(qis, ris)")
        b("    codes[(tmin > 0.0) & (rdiam2[ris] <= THETA2 * tmin)] = 2")
    b("    return codes")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# bound-rule batch emission (epoch engine)
# ---------------------------------------------------------------------------

def _bound_edge(spec: CodegenSpec) -> str:
    """The node-distance edge a bound rule reads: the far one when the
    kernel's best values lie there (a bound-min rule over a decreasing
    kernel, a bound-max one over an increasing kernel)."""
    near = (spec.rule.kind == "bound-min") != (spec.monotone == "decreasing")
    return "min" if near else "max"


def _bound_batch_source(spec: CodegenSpec) -> str | None:
    """Emit ``bound_key_batch(qis, ris)`` and the row regime's
    ``row_key_batch(qidx, ris)`` for bound rules.

    The key is the *signed* band edge of ``g`` over a node pair
    (``+g(t_edge)`` for bound-min, ``-g(t_edge)`` for bound-max), so
    for both rule kinds a pair is prunable iff its key exceeds the
    max-reduced signed per-query bound of its query node, and ascending
    key order is "most promising first".  Classification runs against a
    node-bound snapshot; bounds only tighten (the signed bound only
    decreases), so a stale snapshot can under-prune but never mis-prune.
    Under ``spec.labels`` on one shared tree, a pair whose query node
    (or row) and reference node hold one and the same label gets the key
    ``+inf``, which the engine prunes against any bound: no candidate of
    it survives the label mask.
    """
    rule = spec.rule
    if rule is None or not rule.is_bound:
        return None
    edge = _bound_edge(spec)
    tvar = f"t{edge}"
    value, gband = _value_lines(spec.g_ir, tvar, f"g{tvar}", owned=True)
    # the sign maps both kinds onto "prune iff key > bound, smaller key =
    # more promising": identity for bound-min (a MIN-like operator),
    # negation for bound-max
    sign = "" if spec.inner_op in MIN_LIKE else "-"
    key = f"np.asarray({sign}({gband}), dtype=np.float64)"

    def tail(hi, lo):
        if not (spec.labels and spec.same_tree):
            return [f"return {key}"]
        return [f"key = {key}", f"key[np.maximum({hi}, lmax[ris]) == "
                f"np.minimum({lo}, lmin[ris])] = np.inf", "return key"]
    return "\n\n\n".join([
        _function("def bound_key_batch(qis, ris):", [
            f"{tvar} = pair_{edge}_base_dist(qis, ris)", *value,
            *tail("lmax[qis]", "lmin[qis]")]),
        # the row regime's key: the same band edge with the query box
        # degenerated to the point QROW[qidx]
        _function("def row_key_batch(qidx, ris):", [
            f"x = {_rows('QROW', 'qidx')}",
            *_gap_lines("x", "x", "ris", (edge,)),
            f"{tvar} = {_METRICS[spec.base][2].format('gaps')}", *value,
            *tail("QLABEL[qidx]", "QLABEL[qidx]")]),
    ])


# ---------------------------------------------------------------------------
# the fixed kernel code: no program changes it, so it is not emitted; a
# module binds what it uses in one line stating the program's operands and
# decisions (``_merge = _k_merge(best, best_idx, qbound, K,
# descending=False)``), from every namespace (:func:`bind_kernels`)
# ---------------------------------------------------------------------------

def _blocks(order, rows, width):
    """Greedy cuts over the width-sorted leaves ``order`` (``rows`` /
    ``width`` in that order): a block's padded cells (leaves × widest
    rows × widest width) stay within :data:`CHUNK_CELLS`, unless one
    leaf alone holds more.  ``bind_kernels`` puts it in every emitted
    program's namespace."""
    start, p = 0, 0
    for j, (n, w) in enumerate(zip(rows.tolist(), width.tolist())):
        p = max(p, n)
        if j > start and (j + 1 - start) * p * w > CHUNK_CELLS:
            yield order[start:j]
            start, p = j, n
    yield order[start:]


def _pair_chunks(cells):
    """Edges ``(a, b)`` of consecutive slices of an action's pairs, in
    order, each holding at most :data:`CHUNK_CELLS` cells (``cells[p]``
    of pair ``p``) unless one pair alone holds more.  ``bind_kernels``
    puts it in every emitted program's namespace."""
    ends = np.cumsum(cells)
    if ends.size and ends[-1] <= CHUNK_CELLS:
        yield 0, ends.size
        return
    a = 0
    while a < ends.size:
        b = int(np.searchsorted(ends, ends[a] - cells[a] + CHUNK_CELLS,
                                side="right"))
        b = max(b, a + 1)
        yield a, b
        a = b


def _augmented_operands(Q, R):
    """``_gemm_operands(scale)`` over the points ``Q`` / ``R``: augmented
    operands about o, the centre of ``R``'s box (rounding then scales
    with |q − o|² + |r − o|²), ``scale · t = QA @ RA.T`` with ``QA = scale
    · [Q − o | |q − o|² | 1]``, ``RA = [−2 (R − o) | 1 | |r − o|²]``;
    built once per bind and scale."""
    built = {}

    def _gemm_operands(scale):
        ops = built.get(scale)
        if ops is None:
            o = 0.5 * (R.min(axis=0) + R.max(axis=0))
            q, r = Q - o, R - o
            ops = built[scale] = (
                scale * np.hstack([q, np.einsum('ij,ij->i', q, q)[:, None],
                                   np.ones((q.shape[0], 1))]),
                np.hstack([-2.0 * r, np.ones((r.shape[0], 1)),
                           np.einsum('ij,ij->i', r, r)[:, None]]))
        return ops
    return _gemm_operands


def _direction(descending):
    """``(arg-select, strictly better, exclusion value)`` of the min
    forms, or of the max forms."""
    if descending:
        return np.argmax, np.greater, -np.inf
    return np.argmin, np.less, np.inf


def _pick(v, select, excl):
    """``(v, column, value)`` of each row's best candidate.  NaN sorts
    last: a NaN pick (``argmin`` returns NaN first) has ``v`` read NaN as
    the exclusion value and select again."""
    j = select(v, axis=1)
    top = v[np.arange(v.shape[0]), j]
    if np.isnan(top).any():
        v = np.where(np.isnan(v), excl, v)
        j = select(v, axis=1)
        top = v[np.arange(v.shape[0]), j]
    return v, j, top


def _single_merge(best, best_idx, qbound, descending=False):
    """``_merge(v, q, rid)`` of ``MIN`` / ``MAX`` / ``ARG*`` over the
    ``(n,)`` ``best`` / ``best_idx``: block row ``i`` folds into state
    row ``q[i]``, candidate ``(i, j)`` being id ``rid[i // s, j]`` with
    ``s = len(v) // len(rid)``.  A row takes its best candidate if
    strictly better, and then its signed bound ``qbound`` (unless None)."""
    select, better, excl = _direction(descending)

    def _merge(v, q, rid):
        v, j, vals = _pick(v, select, excl)
        rows = np.flatnonzero(better(vals, best[q]))
        if rows.size:
            qr = q[rows]
            best[qr] = vals[rows]
            best_idx[qr] = rid[rows // (v.shape[0] // rid.shape[0]), j[rows]]
            if qbound is not None:
                qbound[qr] = -vals[rows] if descending else vals[rows]
    return _merge


def _k_merge(best, best_idx, qbound, K, descending=False):
    """``_merge(v, q, rid)`` of a K-operator over the ``(n, K)``
    ``best`` / ``best_idx``: the sorted filter of paper section IV-F
    (``v``, ``q``, ``rid`` as in :func:`_single_merge`).  A row whose
    best candidate is not strictly inside its k-th best (a row of pads)
    is left untouched; the others are gathered once and take ``min(K,
    W) − 1`` more arg-select passes, each excluding the previous pick.
    A stable sort of ``[old k-array | picks]`` (negated for the max
    forms: exact) merges them, so a tie at the k-th value keeps the old
    entry, then the lowest column; ``qbound`` (unless None) becomes ±
    the k-th best."""
    select, better, excl = _direction(descending)

    def _merge(v, q, rid):
        v, j, top = _pick(v, select, excl)
        rows = np.flatnonzero(better(top, best[q, K - 1]))
        if rows.size:
            qr = q[rows]
            w = v[rows]
            rr = np.arange(rows.size)
            npick = min(K, w.shape[1])
            pick = np.empty((rows.size, npick), dtype=np.intp)
            cand_v = np.empty((rows.size, K + npick))
            cand_v[:, :K] = best.take(qr, axis=0)
            pick[:, 0] = j[rows]
            cand_v[:, K] = top[rows]
            for p in range(1, npick):
                w[rr, pick[:, p - 1]] = excl
                pick[:, p] = select(w, axis=1)
                cand_v[:, K + p] = w[rr, pick[:, p]]
            order = np.argsort(-cand_v if descending else cand_v, axis=1,
                               kind='stable')[:, :K]
            rr = rr[:, None]
            ids = rid[(rows // (v.shape[0] // rid.shape[0]))[:, None], pick]
            best_idx[qr] = np.concatenate([best_idx.take(qr, axis=0), ids],
                                          axis=1)[rr, order]
            kept = cand_v[rr, order]
            best[qr] = kept
            if qbound is not None:
                qbound[qr] = -kept[:, K - 1] if descending else kept[:, K - 1]
    return _merge


def _row_base_case(exact_values, merge, Q, R, best, descending=False,
                   qlabel=None, rlabel=None, self_pairs=False):
    """The row regime's ``base_case_rows(qidx, ridx)``: one call per
    epoch over its candidate pairs, grouped by query row, valued by the
    emitted ``exact_values``; excluded pairs (one label, or a self pair
    by position) take the exclusion value.  The candidates inside their
    row's k-th best are packed into one padded (rows × L) block for
    ``merge``."""
    _, better, excl = _direction(descending)
    kth = best[:, -1] if best.ndim == 2 else best

    def base_case_rows(qidx, ridx):
        v = exact_values(Q, qidx, R, ridx)
        if rlabel is not None:
            np.copyto(v, excl, where=qlabel[qidx] == rlabel[ridx])
        elif self_pairs:
            np.copyto(v, excl, where=qidx == ridx)
        keep = np.flatnonzero(better(v, kth[qidx]))
        if keep.size == 0:
            return
        qidx, ridx, v = qidx[keep], ridx[keep], v[keep]
        head = np.empty(qidx.size, dtype=bool)
        head[0] = True
        np.not_equal(qidx[1:], qidx[:-1], out=head[1:])
        first = np.flatnonzero(head)
        slot = np.cumsum(head) - 1
        col = np.arange(qidx.size) - first[slot]
        vb = np.full((first.size, int(col.max()) + 1), excl)
        vb[slot, col] = v
        rb = np.full(vb.shape, -1)
        rb[slot, col] = ridx
        merge(vb, qidx[first], rb)
    return base_case_rows


def _count_action(acc, qstart, qend, rstart, rend, rweight, rw=None,
                  rlabel=None, self_pairs=False):
    """The inside-region count's ``apply_action(qis, ris)``, in bulk
    over slices of pairs of at most :data:`CHUNK_CELLS` cells
    (:func:`_pair_chunks`), with ``np.add.at`` in pair order, so the
    outputs are bitwise a per-pair loop's: each pair adds its node's
    ``rweight`` to its rows of ``acc``, then takes its self pairs (query
    positions ``rlabel`` names, or by position under ``self_pairs``) out
    again, each weighing ``rw`` or 1, right after its own add."""

    def apply_action(qis, ris):
        qs = qstart[qis]
        nq = qend[qis] - qs
        cells = nq + rend[ris] - rstart[ris] if rlabel is not None else nq
        for a, b in _pair_chunks(cells):
            s, n, ri = qs[a:b], nq[a:b], ris[a:b]
            rows = _ranges(s, n)
            vals = np.repeat(rweight[ri], n)
            if rlabel is not None:
                rn = rend[ri] - rstart[ri]
                xpos = _ranges(rstart[ri], rn)
                sp = rlabel[xpos]
                xpair = np.repeat(np.arange(ri.size), rn)
                hit = (sp >= s[xpair]) & (sp < (s + n)[xpair])
                xrows, xpair, xpos = sp[hit], xpair[hit], xpos[hit]
            elif self_pairs:
                lo = np.maximum(s, rstart[ri])
                m = np.maximum(np.minimum(s + n, rend[ri]) - lo, 0)
                xpos = xrows = _ranges(lo, m)
                xpair = np.repeat(np.arange(ri.size), m)
            else:
                np.add.at(acc, rows, vals)
                continue
            xvals = -rw[xpos] if rw is not None else np.full(xrows.size, -1.0)
            key = np.concatenate([2 * np.repeat(np.arange(ri.size), n),
                                  2 * xpair + 1])
            order = np.argsort(key, kind='stable')
            np.add.at(acc, np.concatenate([rows, xrows])[order],
                      np.concatenate([vals, xvals])[order])
    return apply_action


def _append_action(out_lists, qstart, qend, rstart, rend, rlabel=None,
                   self_pairs=False):
    """The inside-region ``append_all``'s ``apply_action(qis, ris)``
    (range search), one pair at a time: each query row's list gets its
    pairs' reference slices in pool order, less the excluded points (as
    in :func:`_count_action`)."""

    def apply_action(qis, ris):
        for qi, ri in zip(qis.tolist(), ris.tolist()):
            s, e, r0, r1 = qstart[qi], qend[qi], rstart[ri], rend[ri]
            idxs = np.arange(r0, r1)
            if rlabel is not None:
                sp = rlabel[r0:r1]
                for i in range(s, e):
                    out_lists[i].append(idxs[sp != i])
            elif self_pairs:
                for i in range(s, e):
                    if r0 <= i < r1:
                        out_lists[i].append(idxs[idxs != i])
                    else:
                        out_lists[i].append(idxs)
            else:
                for i in range(s, e):
                    out_lists[i].append(idxs)
    return apply_action


#: the fixed kernel code in every emitted module's namespace
_FIXED = {f.__name__: f for f in (
    _blocks, _pair_chunks, _ranges, _augmented_operands, _single_merge,
    _k_merge, _row_base_case, _count_action, _append_action)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def emit(spec: CodegenSpec) -> tuple[str, object]:
    """Emit the problem's kernel source and compile it to a code object.

    Pure function of the spec — no data bindings involved — so the
    result is cacheable and re-bindable against fresh state arrays via
    :meth:`Bindings.bind`.
    """
    with span("codegen", dim=spec.dim, inner_op=spec.inner_op.name) as sp:
        gemm = _augmented_gemm(spec)
        chunks = [
            "# Generated by the Portal backend — vectorised NumPy translation",
            f"# base={spec.base} inner={spec.inner_op.name} "
            f"outer={spec.outer_op.name} rule="
            f"{spec.rule.kind if spec.rule else 'none'}"
            + (f" scale={_scale_fold(spec.g_ir)[0]!r}" if gemm else ""),
            *(["_gemm_operands = _augmented_operands(QROW, RROW)"]
              if gemm else []),
            _base_case_source(spec),
            *filter(None, [_merge_binding(spec)]),
        ]
        rules = [src for src in (
            _exact_values_source(spec), _action_source(spec),
            _classify_batch_source(spec), _bound_batch_source(spec),
            _base_case_group_source(spec), _base_case_blocks_source(spec),
            _row_base_case_binding(spec)) if src is not None]
        # the stack engine orders its pairs by the near edge; the far one
        # is emitted where a kernel reads it
        chunks += [_node_distance_source(spec, edge) for edge in ("min", "max")
                   if edge == "min" or any(f"pair_{edge}_base_dist(" in src
                                           for src in rules)]
        chunks += rules
        source = "\n\n".join(chunks) + "\n"
        sp.note(source_loc=source.count("\n"))
        code = compile(source, f"<portal-generated-{id(spec)}>", "exec")
    return source, code


def emit_external(spec: CodegenSpec) -> tuple[str, object]:
    """Emit brute force's ``base_case(qs, qe, rs, re)`` for an opaque
    kernel (``spec.g_ir`` is None): the bound callable
    ``EXTERNAL(Q, R, qs, rs)`` gives the block in place of gather →
    distance → value, and the self-exclusion and fold are every base
    case's (plus the ``_merge`` binding for a comparative operator)."""
    source = "\n\n".join([
        "# Generated by the Portal backend — external kernel, brute force\n"
        f"# inner={spec.inner_op.name} outer={spec.outer_op.name}",
        _function("def base_case(qs, qe, rs, re):", [
            "v = np.asarray(EXTERNAL(QROW[qs:qe], RROW[rs:re], qs, rs), "
            "dtype=np.float64)",
            *_self_exclusion_lines(spec, _SLICES),
            *_fold_lines(spec, _SLICES)]),
        *filter(None, [_merge_binding(spec)]),
    ]) + "\n"
    return source, compile(source, f"<portal-external-{id(spec)}>", "exec")


@dataclass(frozen=True)
class Bindings:
    """The static operands generated kernels close over, by kind.

    ``arrays`` are ndarrays no run writes — the process executor
    publishes them to shared memory as they are: the points (``QROW``,
    ``RROW``), tree metadata
    (``qlo``/``qhi``/``qstart``/``qend``, ``rlo``/``rhi``/``rstart``/
    ``rend``/``rdiam2``, and the node mass where the rule reads it,
    :meth:`reference`), the reference weights ``rw`` when there are any
    (or pseudo-points) and, under
    ``spec.labels``, ``QLABEL`` / ``RLABEL`` (and ``lmin`` / ``lmax``,
    which a caller may rewrite between runs).  ``scalars`` pickle as
    they are: the program-shape constants ``K``/``H``/``TAU``/
    ``THETA2``.  Per-run state (``best``/
    ``best_idx``/``acc``/``dense``/``qbound``/``out_lists``) is never in
    here; :meth:`bind` adds it.
    """

    arrays: dict[str, np.ndarray]
    scalars: dict

    @classmethod
    def query(cls, qtree, scalars: dict) -> "Bindings":
        """The query-tree operands plus the program's shape scalars
        (copied: the code half they come from is shared)."""
        return cls(dict(
            QROW=qtree.points,
            qlo=qtree.lo, qhi=qtree.hi, qstart=qtree.start, qend=qtree.end,
        ), dict(scalars))

    @classmethod
    def reference(cls, rtree, rule: RuleSpec | None,
                  rlabel: np.ndarray | None = None) -> "Bindings":
        """The reference-tree operands the kernels emitted for ``rule``
        (``CodegenSpec.rule``) read — one set per shard tree under the
        sharded layout, with that shard's ``RLABEL``.  The node mass (its
        total weight, or count, at its weighted centroid) is read, and so
        computed on the tree, only where the rule uses it: an
        inside-region count reads it as ``rweight``; an approximation's
        far field is data, one pseudo-point per node after the real rows
        of ``RROW``, ``rw`` (1 per real row unless weighted) and
        ``RLABEL`` (−1, which no query label equals), node ``i``'s at
        row ``n + i``, so the grouped base case evaluates an approximated
        pair as one more gathered column."""
        arrays = dict(
            RROW=rtree.points,
            rlo=rtree.lo, rhi=rtree.hi, rstart=rtree.start, rend=rtree.end,
            rdiam2=rtree.diameter ** 2,
            **_present(rw=rtree.weights, RLABEL=rlabel),
        )
        if rule is not None and rule.inside_action in _COUNT_ACTIONS:
            arrays["rweight"] = _node_mass(rtree)[1]
        elif rule is not None and rule.approximates:
            centroid, mass = _node_mass(rtree)
            real = {**arrays, "rw": (np.ones(rtree.n) if rtree.weights is None
                                     else rtree.weights)}
            pseudo = dict(RROW=centroid, rw=mass,
                          RLABEL=np.full(mass.size, -1))
            arrays.update({name: np.concatenate([real[name], tail])
                           for name, tail in pseudo.items() if name in real})
        return cls(arrays, {})

    @classmethod
    def brute(cls, qpoints: np.ndarray, rpoints: np.ndarray, rweights,
              scalars: dict) -> "Bindings":
        """Brute mode: both datasets in original order, no trees."""
        return cls(dict(QROW=qpoints, RROW=rpoints, **_present(rw=rweights)),
                   dict(scalars))

    def __or__(self, other: "Bindings") -> "Bindings":
        return Bindings({**self.arrays, **other.arrays},
                        {**self.scalars, **other.scalars})

    def bind(self, source: str, code, state) -> GeneratedKernels:
        """Bind emitted code against these operands plus ``state``'s
        fresh accumulators — the one static + state + ``out_lists``
        merge (the compiler, the shard layout and process workers all
        come through here)."""
        namespace = {**self.arrays, **self.scalars, **state.arrays}
        if state.lists is not None:
            namespace["out_lists"] = state.lists
        return bind_kernels(source, code, namespace)


def _node_mass(rtree) -> tuple[np.ndarray, np.ndarray]:
    """Each node's weighted centroid and total weight (its centroid and
    point count, unweighted)."""
    if rtree.weights is None:
        return rtree.centroid, (rtree.end - rtree.start).astype(np.float64)
    return rtree.wcentroid, rtree.wsum


def _present(**named) -> dict:
    """The operands that exist: emitted code only names ``rw`` for a
    weighted reference side, a shard's ``RLABEL`` under ``spec.labels``."""
    return {name: arr for name, arr in named.items() if arr is not None}


def bind_kernels(source: str, code, bindings: dict) -> GeneratedKernels:
    """Execute emitted kernel code against a closure environment — the
    flat namespace :meth:`Bindings.bind` assembles, beside NumPy and the
    fixed kernel code."""
    namespace = {"np": np, **_FIXED}
    namespace.update(bindings)
    exec(code, namespace)
    emitted = {f.name: namespace.get(f.name) for f in fields(GeneratedKernels)
               if f.name not in ("source", "namespace")}
    emitted["pair_min_dist"] = namespace.get("pair_min_base_dist")
    return GeneratedKernels(source=source, namespace=namespace, **emitted)


def generate(spec: CodegenSpec, bindings: dict) -> GeneratedKernels:
    """Emit, compile and bind the problem's kernels (one-shot form of
    :func:`emit` + :func:`bind_kernels`)."""
    source, code = emit(spec)
    return bind_kernels(source, code, bindings)
