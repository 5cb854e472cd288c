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
  verbatim, so the generated source visibly contains the optimisation;
* **multi-variable filters** — ``min^k``-style operators keep a sorted
  k-array per query, the ordered array the paper describes.  Each leaf
  batch first filters the query rows against their k-th best; only rows
  with a candidate that can enter are merged, and a skipped row is left
  untouched.

The generated source is kept on the compiled program for inspection
(``PortalExpr.generated_source()``), playing the role of an LLVM IR dump.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..dsl.errors import CompileError
from ..dsl.expr import BinOp, Call, Const, Expr, Indicator, Neg
from ..dsl.ops import MAX_LIKE, MIN_LIKE, PortalOp, op_info
from ..ir.nodes import IRCall, LoadExpr, SymRef
from ..observe import span
from ..rules.spec import RuleSpec

__all__ = [
    "CodegenSpec", "GeneratedKernels", "generate", "emit", "bind_kernels",
    "emit_expr", "emit_expr_vn", "Bindings",
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


def emit_expr(e: Expr, var_map: dict[str, str],
              _names: dict[int, str] | None = None) -> str:
    """Emit vectorised NumPy source for an IR expression.

    ``_names`` maps ``id(node)`` to an already-materialised temporary —
    the value-numbering hook of :func:`emit_expr_vn`.
    """
    if _names is not None:
        hit = _names.get(id(e))
        if hit is not None:
            return hit

    def sub(node: Expr) -> str:
        return emit_expr(node, var_map, _names)

    if isinstance(e, SymRef):
        try:
            return var_map[e.name]
        except KeyError:
            raise CompileError(f"no binding for IR symbol {e.name!r}") from None
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, BinOp):
        return f"({sub(e.lhs)} {e.op} {sub(e.rhs)})"
    if isinstance(e, Neg):
        return f"(-({sub(e.operand)}))"
    if isinstance(e, (IRCall, Call)):
        args = e.args if isinstance(e, IRCall) else (e.operand,)
        fn = _NUMPY_CALLS.get(e.func)
        if fn is None:
            raise CompileError(f"cannot emit IR function {e.func!r}")
        return f"{fn}({', '.join(sub(a) for a in args)})"
    if isinstance(e, Indicator):
        return f"np.multiply(({sub(e.lhs)}) {e.op} ({sub(e.rhs)}), 1.0)"
    if isinstance(e, LoadExpr):
        return f"{e.array}[{', '.join(sub(i) for i in e.indices)}]"
    raise CompileError(f"cannot emit expression node {type(e).__name__}")


def _shared_subtrees(e: Expr) -> list[Expr]:
    """Non-leaf sub-tree objects referenced more than once in *e*, in
    post-order (inner shared trees before the trees that contain them)."""
    counts: dict[int, int] = {}
    order: list[Expr] = []

    def visit(n: Expr):
        if not n.children():
            return
        seen = counts.get(id(n), 0)
        counts[id(n)] = seen + 1
        if seen:
            return
        for c in n.children():
            visit(c)
        order.append(n)

    visit(e)
    return [n for n in order if counts[id(n)] > 1]


def emit_expr_vn(e: Expr, var_map: dict[str, str],
                 prefix: str = "_vn") -> tuple[list[str], str]:
    """Value-numbering-aware emission: sub-trees referenced more than
    once by object identity (strength reduction's shared pow-chain
    squares) are materialised once into ``<prefix><N>`` temporaries.

    Returns ``(assignments, source)`` where ``assignments`` are
    unindented ``name = expr`` lines to emit before using ``source``.
    For trees without sharing this is exactly :func:`emit_expr`.
    """
    names: dict[int, str] = {}
    assigns: list[str] = []
    for i, node in enumerate(_shared_subtrees(e), 1):
        name = f"{prefix}{i}"
        assigns.append(f"{name} = {emit_expr(node, var_map, names)}")
        names[id(node)] = name
    return assigns, emit_expr(e, var_map, names)


@dataclass
class CodegenSpec:
    """Everything the generator needs to emit a problem's kernels."""

    dim: int
    base: str
    g_ir: Expr                      # strength-reduced kernel body over SymRef('t')
    monotone: str | None            # 'increasing' | 'decreasing' | None
    outer_op: PortalOp = PortalOp.FORALL
    inner_op: PortalOp = PortalOp.SUM
    rule: RuleSpec | None = None
    weighted: bool = False
    same_tree: bool = False
    exclude_self: bool = False
    is_indicator: bool = False
    #: self-exclusion by *identity remap* instead of position: the
    #: reference side is a shard of the query dataset with its own tree
    #: permutation, so "same point" can no longer be detected as "same
    #: position".  The bound array ``RSELF`` maps each reference-tree
    #: position to the query-tree position of the same original point
    #: (−1-free by construction; every shard point exists in the query
    #: tree).  Set by the shard compiler (:mod:`repro.parallel.shard`);
    #: mutually exclusive with the positional ``same_tree`` exclusion.
    self_map: bool = False


@dataclass
class GeneratedKernels:
    """Compiled closures plus the emitted source for inspection.

    ``base_case(qs, qe, rs, re)`` evaluates one leaf pair over slice
    views: the stack engine's and brute mode's base case.
    ``base_case_group(qs, qe, gathered)`` evaluates a query leaf against
    the gathered points of several reference leaves: one call per query
    leaf of a stateless program's flush in the batched engine
    (:mod:`repro.traversal.bounded_batched`).  A bound rule's
    ``base_case_blocks(qs, qe, ridx, redge)`` takes every query leaf of
    one epoch at once, packed into padded blocks of at most
    :data:`CHUNK_CELLS` cells.  These three take a squared-Euclidean
    kernel's distances in one spelling, one augmented GEMM with the
    kernel's constant scale folded into the query operand
    (:func:`_scale_fold`); the row regime's ``base_case_rows`` keeps its
    pair form, one dot product per candidate pair.  A comparative
    reduction also gets ``exact_values(Q, qidx, R, ridx)``, the kernel
    over gathered pairs in the difference form, which re-evaluates its
    winners once after the traversal
    (:func:`repro.backend.state.exact_winners`).  The scalar
    ``prune_or_approx`` / ``pair_min_dist`` drive the nearest-first
    stack engine.  Stateless
    rules (indicator / approximation) get ``classify_batch`` over whole
    arrays of node-id pairs, and ``apply_action`` for their approximated
    or inside pairs.  Bound rules (k-NN, Hausdorff) get
    ``bound_key_batch`` / ``classify_bound_batch``, which classify
    against a signed per-query bound array ``qbound``, plus the row
    regime's pair ``row_key_batch`` / ``base_case_rows``.  The batched
    engine takes the bound form exactly when ``bound_key_batch`` is set.
    """

    source: str
    namespace: dict
    base_case: Callable
    prune_or_approx: Callable | None
    pair_min_dist: Callable | None
    classify_batch: Callable | None = None
    apply_action: Callable | None = None
    bound_key_batch: Callable | None = None
    classify_bound_batch: Callable | None = None
    base_case_group: Callable | None = None
    base_case_blocks: Callable | None = None
    row_key_batch: Callable | None = None
    base_case_rows: Callable | None = None
    exact_values: Callable | None = None


# ---------------------------------------------------------------------------
# pairwise kernel emission
# ---------------------------------------------------------------------------

def _augmented_gemm(spec: CodegenSpec) -> bool:
    """Whether the block kernels take the norm expansion as one augmented
    GEMM: a squared-Euclidean kernel that is not an indicator, at every
    d.  (An indicator keeps the exact difference form: a count must not
    flip on cancellation at its threshold.)"""
    return spec.base == "sqeuclidean" and not spec.is_indicator


def _scale_fold(g: Expr) -> tuple[float, Expr]:
    """``(a, h)`` with ``g(t) = h(a·t)``, the scale the GEMM spelling
    folds into its query operand.  ``t`` must occur once in ``g``, inside
    one chain of negations and of products or quotients by a constant
    (the Gaussian's ``exp(-(t / c))`` is ``h = exp``, ``a = −1/c``);
    ``h`` is ``g`` with that chain replaced by ``t``.  Any other ``g``
    is ``(1.0, g)``."""
    def is_t(n: Expr) -> bool:
        return isinstance(n, SymRef) and n.name == "t"

    if sum(map(is_t, g.walk())) != 1:
        return 1.0, g

    def fold(n: Expr) -> tuple[float, Expr, bool]:
        # n holds the one t: (factor, n rebuilt, whether n is in the chain)
        if is_t(n):
            return 1.0, n, True
        kids = n.children()
        at = next(i for i, c in enumerate(kids) if any(map(is_t, c.walk())))
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


def _clamp(a: float) -> str:
    """The clamp of a GEMM-spelt ``a·t``: its sign is ``a``'s, as the
    exact ``t ≥ 0``'s would be."""
    return f"np.{'minimum' if a < 0 else 'maximum'}(t, 0.0, out=t)"


def _block_kernel(spec: CodegenSpec) -> Expr:
    """The kernel a block kernel applies to its ``t``: ``h`` of
    :func:`_scale_fold` under the GEMM spelling, ``g`` otherwise."""
    return _scale_fold(spec.g_ir)[1] if _augmented_gemm(spec) else spec.g_ir


def _value_lines(g: Expr, indent: str) -> list[str]:
    """Lines computing ``v = g(t)``, shared sub-trees first."""
    pre, g_src = emit_expr_vn(g, {"t": "t"})
    return [f"{indent}{line}" for line in (*pre, f"v = {g_src}")]


_GEMM_OPERANDS = """\
_GEMM = {}


def _gemm_operands(scale):
    # The norm expansion's augmented operands about one origin o, the
    # centre of the reference points' box, so the GEMM's rounding scales
    # with |q - o|^2 + |r - o|^2: scale * t = QA @ RA.T with
    # QA = scale * [Q - o | |q - o|^2 | 1], RA = [-2 (R - o) | 1 | |r - o|^2].
    # Built once per bind and scale.
    ops = _GEMM.get(scale)
    if ops is None:
        o = 0.5 * (RROW.min(axis=0) + RROW.max(axis=0))
        q, r = QROW - o, RROW - o
        ops = _GEMM[scale] = (
            scale * np.hstack([q, np.einsum('ij,ij->i', q, q)[:, None],
                               np.ones((q.shape[0], 1))]),
            np.hstack([-2.0 * r, np.ones((r.shape[0], 1)),
                       np.einsum('ij,ij->i', r, r)[:, None]]))
    return ops"""


def _difference_lines(spec: CodegenSpec, diff: str, dims: str,
                      indent: str) -> list[str]:
    """Lines computing ``t`` in the difference form: ``diff`` (a template
    over ``{c}``) spells coordinate ``c``'s difference ``q − r``, which is
    squared (or its magnitude taken) and folded in dimension order —
    summed, or max'd for Chebyshev — over the ``dims`` coordinates.
    Every difference form of every kernel is this one spelling, so a
    pair's value does not depend on the block it was evaluated in."""
    term = "_d * _d" if spec.base == "sqeuclidean" else "np.abs(_d)"
    fold = (f"np.maximum(t, {term}, out=t)" if spec.base == "chebyshev"
            else f"t += {term}")
    return [f"{indent}{line}" for line in (
        f"_d = {diff.format(c=0)}",
        f"t = {term}",
        f"for _c in range(1, {dims}):",
        f"    _d = {diff.format(c='_c')}",
        f"    {fold}",
    )]


def _pairwise_lines(spec: CodegenSpec, refs: str) -> list[str]:
    """Body lines computing the kernel block ``v`` for queries
    ``[qs, qe)`` against the reference points ``refs`` spells: ``rs:re``
    (a leaf slice, the ``base_case`` views) or ``ridx`` (a gathered index
    array, ``base_case_group``).  Both spellings take the same
    arithmetic: the augmented GEMM (:func:`_augmented_gemm`) or the
    difference form (:func:`_difference_lines`)."""
    if _augmented_gemm(spec):
        a = _scale_fold(spec.g_ir)[0]
        out = [f"    QA, RA = _gemm_operands({a!r})",
               f"    t = QA[qs:qe] @ RA[{refs}].T",
               f"    {_clamp(a)}"]
    else:
        out = ["    dq = QROW[qs:qe].T",
               f"    dr = RROW[{refs}].T",
               *_difference_lines(spec, "dq[{c}][:, None] - dr[{c}][None, :]",
                                  "dq.shape[0]", "    ")]
    return out + _value_lines(_block_kernel(spec), "    ")


def _pairwise_source(spec: CodegenSpec) -> str:
    return "\n".join(["def _pairwise(qs, qe, rs, re):",
                      *_pairwise_lines(spec, "rs:re"), "    return v"])


def _exact_values_source(spec: CodegenSpec) -> str | None:
    """Emit ``exact_values(Q, qidx, R, ridx)`` for a comparative
    reduction: the kernel of the pairs ``(Q[qidx], R[ridx])`` (index
    arrays broadcast against each other) in the difference form, one
    gathered coordinate at a time.  It re-evaluates the winners after
    the traversal (:func:`repro.backend.state.exact_winners`) and is the
    row regime's pair form for every kernel the GEMM does not take."""
    if spec.inner_op not in MIN_LIKE | MAX_LIKE:
        return None
    return "\n".join([
        "def exact_values(Q, qidx, R, ridx):",
        *_difference_lines(spec, "Q[:, {c}][qidx] - R[:, {c}][ridx]",
                           "Q.shape[1]", "    "),
        *_value_lines(spec.g_ir, "    "),
        "    return v",
    ])


def _point_to_centroid(spec: CodegenSpec, centroid_arr: str) -> list[str]:
    """Source lines computing ``tc``: base distance from queries [s:e) to a
    reference-node centroid (used by ComputeApprox)."""
    out = [
        f"    c = {centroid_arr}[ri]",
        "    dqc = QROW[s:e] - c",
    ]
    if spec.base == "sqeuclidean":
        out.append("    tc = np.einsum('ij,ij->i', dqc, dqc)")
    elif spec.base == "manhattan":
        out.append("    tc = np.abs(dqc).sum(axis=1)")
    else:
        out.append("    tc = np.abs(dqc).max(axis=1)")
    return out


# ---------------------------------------------------------------------------
# base-case emission (operator update templates)
# ---------------------------------------------------------------------------

def _exclusion_value(op: PortalOp) -> str:
    if op in MIN_LIKE:
        return "np.inf"
    if op in MAX_LIKE:
        return "-np.inf"
    if op is PortalOp.PROD:
        return "1.0"
    return "0.0"  # SUM / UNION / UNIONARG / FORALL


def _kth_best(spec: CodegenSpec) -> str:
    """Index suffix selecting the k-th best column of ``best``: a
    K-operator keeps an ``(n, K)`` array — even at ``K = 1`` — and a
    single-value reduction an ``(n,)`` one."""
    return ", K - 1" if op_info(spec.inner_op).requires_k else ""


def _merge_lines(spec: CodegenSpec,
                 ids: Callable[[str, str], str]) -> list[str] | None:
    """Body lines merging the candidate block ``v`` into ``best`` and
    ``best_idx`` for a comparative reduction, None for any other
    operator.  Every comparative reduction keeps its winners' ids, which
    :func:`repro.backend.state.exact_winners` re-evaluates.  ``ids(i,
    j)`` spells the reference ids of candidate columns ``j`` of block
    rows ``i`` — ``rs + j`` over a leaf slice, ``ridx[j]`` over a
    gathered batch, ``ridx[i, j]`` over per-row gathers, ``rid[leaf[i],
    j]`` over a block of query leaves — the one difference between the
    base cases.

    A single-value reduction takes one ``argmin`` per row (``argmax``
    for the max forms) and keeps a candidate strictly better than the
    row's best.  A K-operator takes the same arg-select per row: the
    row's best candidate, whose test against the k-th best is the row
    filter.  A row with only strictly worse candidates is left
    untouched.  The rows that pass are gathered once, and ``min(K, W) −
    1`` more arg-select passes over that copy, each writing the
    exclusion value over the previous pick, give each row its K best
    candidates in order.  A stable sort over ``[old k-array | picks]``
    merges the two, so a tie at the k-th value keeps the old entry,
    then the lowest block column.  A pick holding the exclusion value (a
    pad, or a row narrower than K) never displaces an old entry.  NaN
    sorts last: ``argmin`` returns a row's NaN cell first, so a block
    whose best cell is NaN takes NaN as the exclusion value and selects
    again."""
    op = spec.inner_op
    if op not in MIN_LIKE | MAX_LIKE:
        return None
    lines: list[str] = []
    b = lines.append
    red = "argmin" if op in MIN_LIKE else "argmax"
    if not op_info(op).requires_k:
        b(f"    j = v.{red}(axis=1)")
        b("    vals = v[np.arange(v.shape[0]), j]")
        b("    bb = best[qs:qe]")
        b(f"    m = vals {'<' if op in MIN_LIKE else '>'} bb")
        b("    if m.any():")
        b("        bb[m] = vals[m]")
        b(f"        best_idx[qs:qe][m] = {ids('m', 'j[m]')}")
        return lines
    # the max forms sort on negated values: exact
    cmp, neg = ("<=", "") if op in MIN_LIKE else (">=", "-")
    excl = _exclusion_value(op)
    b("    # ordered k-array merge (sorted filter of section IV-F): each")
    b("    # row with a candidate at or inside its k-th best picks its")
    b("    # K best candidates, one arg-select pass each")
    b(f"    j = v.{red}(axis=1)")
    b("    top = v[np.arange(v.shape[0]), j]")
    b("    if np.isnan(top).any():   # NaN sorts last")
    b(f"        v = np.where(np.isnan(v), {excl}, v)")
    b(f"        j = v.{red}(axis=1)")
    b("        top = v[np.arange(v.shape[0]), j]")
    b(f"    rows = np.flatnonzero(top {cmp} best[qs:qe, K - 1])")
    b("    if rows.size:")
    b("        qr = qs + rows")
    b("        w = v[rows]")
    b("        rr = np.arange(rows.size)")
    b("        npick = min(K, w.shape[1])")
    b("        pick = np.empty((rows.size, npick), dtype=np.intp)")
    b("        cand_v = np.empty((rows.size, K + npick))")
    b("        cand_v[:, :K] = best[qr]")
    b("        pick[:, 0] = j[rows]")
    b("        cand_v[:, K] = top[rows]")
    b("        for p in range(1, npick):")
    b(f"            w[rr, pick[:, p - 1]] = {excl}")
    b(f"            pick[:, p] = w.{red}(axis=1)")
    b("            cand_v[:, K + p] = w[rr, pick[:, p]]")
    b(f"        order = np.argsort({neg}cand_v, axis=1, kind='stable')[:, :K]")
    b("        rr = rr[:, None]")
    b("        best_idx[qr] = np.concatenate([best_idx[qr], "
      f"{ids('rows[:, None]', 'pick')}], axis=1)[rr, order]")
    b("        best[qr] = cand_v[rr, order]")
    return lines


def _self_exclusion_lines(spec: CodegenSpec, refs: str) -> list[str]:
    """Body lines masking the self pairs of block ``v`` (queries
    ``[qs, qe)`` × the references ``refs`` spells, as in
    :func:`_pairwise_lines`) with the operator's exclusion value: by
    identity (``RSELF``) on a sharded reference, by position on one
    shared tree — where two leaf slices are equal or disjoint, so a
    slice's self pairs are the diagonal of a leaf against itself."""
    excl = _exclusion_value(spec.inner_op)
    if spec.self_map:
        return ["    v = np.where(np.arange(qs, qe)[:, None] == "
                f"RSELF[{refs}][None, :], {excl}, v)"]
    if not (spec.same_tree and spec.exclude_self):
        return []
    if refs == "rs:re":
        return ["    if qs == rs:", f"        np.fill_diagonal(v, {excl})"]
    return ["    v = np.where(np.arange(qs, qe)[:, None] == "
            f"{refs}[None, :], {excl}, v)"]


def _update_lines(spec: CodegenSpec, refs: str,
                  ids: Callable[[str, str], str]) -> list[str]:
    """Body lines folding block ``v`` into the operator's state: a SUM
    adds, a PROD multiplies, a list appends each row's hits, a dense
    ``FORALL`` stores and a comparative reduction merges
    (:func:`_merge_lines`).  ``refs`` spells the block's reference
    columns and ``ids(i, j)`` the reference ids of block cells, as in
    :func:`_merge_lines` — the one difference between ``base_case`` and
    ``base_case_group``."""
    op = spec.inner_op
    merge = _merge_lines(spec, ids)
    if merge is not None:
        return merge
    if op is PortalOp.SUM:
        return [f"    acc[qs:qe] += v @ rw[{refs}]" if spec.weighted
                else "    acc[qs:qe] += v.sum(axis=1)"]
    if op is PortalOp.PROD:
        if spec.weighted:
            raise CompileError("PROD does not support weighted references")
        return ["    acc[qs:qe] *= v.prod(axis=1)"]
    if op is PortalOp.UNIONARG or op is PortalOp.UNION:
        # one nonzero scan per block; the hits come row-major, so each
        # row with any is one run of them
        hits = (ids("hit_r", "hit_c") if op is PortalOp.UNIONARG
                else "v[hit_r, hit_c]")
        return [
            "    hit_r, hit_c = np.nonzero(v)",
            "    if hit_r.size:",
            "        head = np.flatnonzero(np.diff(hit_r, prepend=-1))",
            "        rows = (qs + hit_r[head]).tolist()",
            f"        for i, got in zip(rows, np.split({hits}, head[1:])):",
            "            out_lists[i].append(got)",
        ]
    if op is PortalOp.FORALL:
        return [f"    dense[qs:qe, {refs}] = v"]
    raise CompileError(f"no base-case template for {op.name}")  # pragma: no cover


def _base_case_source(spec: CodegenSpec) -> str:
    return "\n".join([
        "def base_case(qs, qe, rs, re):",
        "    v = _pairwise(qs, qe, rs, re)",
        *_self_exclusion_lines(spec, "rs:re"),
        *_update_lines(spec, "rs:re", lambda i, j: f"rs + {j}"),
    ])


# ---------------------------------------------------------------------------
# node-distance helpers and prune/approx emission
# ---------------------------------------------------------------------------

def _combine(base: str, vec: str) -> str:
    # sqeuclidean spelled as (v*v).sum() rather than v @ v: same reduce
    # ordering as the batched axis-1 form, so the scalar and batched
    # node-pair distances are bitwise identical (so are their decisions).
    if base == "sqeuclidean":
        return f"float(({vec} * {vec}).sum())"
    if base == "manhattan":
        return f"float({vec}.sum())"
    return f"float({vec}.max())"


def _pair_dist_source(spec: CodegenSpec) -> str:
    return textwrap.dedent(
        f"""\
        def pair_min_base_dist(qi, ri):
            gaps = np.maximum(0.0, np.maximum(rlo[ri] - qhi[qi], qlo[qi] - rhi[ri]))
            return {_combine(spec.base, 'gaps')}

        def pair_max_base_dist(qi, ri):
            spans = np.maximum(0.0, np.maximum(rhi[ri] - qlo[qi], qhi[qi] - rlo[ri]))
            return {_combine(spec.base, 'spans')}"""
    )


def _combine_batch(base: str, mat: str) -> str:
    if base == "sqeuclidean":
        return f"({mat} * {mat}).sum(axis=1)"
    if base == "manhattan":
        return f"{mat}.sum(axis=1)"
    return f"{mat}.max(axis=1)"


def _pair_dist_batch_source(spec: CodegenSpec) -> str:
    """Vectorised node-pair distance bounds over arrays of node ids —
    the decision plane of the batched frontier engine."""
    return textwrap.dedent(
        f"""\
        def pair_min_base_dist_batch(qis, ris):
            gaps = np.maximum(0.0, np.maximum(rlo[ris] - qhi[qis], qlo[qis] - rhi[ris]))
            return {_combine_batch(spec.base, 'gaps')}

        def pair_max_base_dist_batch(qis, ris):
            spans = np.maximum(0.0, np.maximum(rhi[ris] - qlo[qis], qhi[qis] - rlo[ris]))
            return {_combine_batch(spec.base, 'spans')}"""
    )


def _g_scalar_vn(spec: CodegenSpec, tvar: str,
                 prefix: str) -> tuple[list[str], str]:
    return emit_expr_vn(spec.g_ir, {"t": tvar}, prefix=prefix)


def _band_exprs(spec: CodegenSpec) -> tuple[list[str], str, str]:
    """(pre-assignments, g_lo, g_hi) over the [tmin, tmax] interval."""
    pre_min, g_min = _g_scalar_vn(spec, "tmin", "_vn_lo")
    pre_max, g_max = _g_scalar_vn(spec, "tmax", "_vn_hi")
    pre = pre_min + pre_max
    if spec.monotone == "decreasing":
        return pre, g_max, g_min
    return pre, g_min, g_max


def _approx_action_lines(spec: CodegenSpec, centroid_arr: str) -> list[str]:
    pre, g_src = _g_scalar_vn(spec, "tc", "_vn")
    # each of the node's W points contributes about g(centre): W·g to a
    # sum, g**W to a product
    update = (f"acc[s:e] *= np.power({g_src}, rweight[ri])"
              if spec.inner_op is PortalOp.PROD
              else f"acc[s:e] += rweight[ri] * {g_src}")
    return [
        "    s = qstart[qi]; e = qend[qi]",
        *_point_to_centroid(spec, centroid_arr),
        *(f"    {assign}" for assign in pre),
        f"    {update}",
    ]


def _inside_action_lines(spec: CodegenSpec, rule: RuleSpec) -> list[str]:
    """Body lines of the indicator inside-region action (one node pair)."""
    lines: list[str] = []
    b = lines.append
    if rule.inside_action in ("count_per_query", "count_product"):
        b("    s = qstart[qi]; e = qend[qi]")
        b("    acc[s:e] += rweight[ri]")
        if spec.self_map:
            # A self pair is (query position RSELF[r]) × (reference
            # position r); RSELF values are unique, so a plain
            # fancy-indexed subtract is duplicate-free.
            b("    sp = RSELF[rstart[ri]:rend[ri]]")
            b("    m = (sp >= s) & (sp < e)")
            if spec.weighted:
                b("    acc[sp[m]] -= rw[rstart[ri]:rend[ri]][m]")
            else:
                b("    acc[sp[m]] -= 1.0")
        elif spec.same_tree and spec.exclude_self:
            b("    lo = max(s, rstart[ri]); hi = min(e, rend[ri])")
            b("    if lo < hi:")
            if spec.weighted:
                b("        acc[lo:hi] -= rw[lo:hi]")
            else:
                b("        acc[lo:hi] -= 1.0")
    elif rule.inside_action == "append_all":
        b("    s = qstart[qi]; e = qend[qi]")
        b("    idxs = np.arange(rstart[ri], rend[ri])")
        if spec.self_map:
            b("    sp = RSELF[rstart[ri]:rend[ri]]")
            b("    for i in range(s, e):")
            b("        out_lists[i].append(idxs[sp != i])")
        elif spec.same_tree and spec.exclude_self:
            b("    for i in range(s, e):")
            b("        if rstart[ri] <= i < rend[ri]:")
            b("            out_lists[i].append(idxs[idxs != i])")
            b("        else:")
            b("            out_lists[i].append(idxs)")
        else:
            b("    for i in range(s, e):")
            b("        out_lists[i].append(idxs)")
    else:  # pragma: no cover
        raise CompileError(f"unknown inside action {rule.inside_action!r}")
    return lines


def _action_source(spec: CodegenSpec) -> str | None:
    """Emit ``apply_action(qi, ri)``: the ComputeApprox / inside-region
    side effect for one node pair, shared by the scalar prune function
    and the batched engine (so both engines apply bit-identical
    updates, in their own orders)."""
    rule = spec.rule
    if rule is None:
        return None
    if rule.kind == "indicator" and rule.inside_action is not None:
        body = _inside_action_lines(spec, rule)
    elif rule.kind == "approx":
        body = _approx_action_lines(spec, "rcentroid")
    else:
        return None
    return "\n".join(["def apply_action(qi, ri):", *body])


def _prune_source(spec: CodegenSpec) -> str | None:
    rule = spec.rule
    if rule is None or rule.kind == "none":
        return None
    lines = ["def prune_or_approx(qi, ri):"]
    b = lines.append

    if rule.kind in ("bound-min", "bound-max"):
        need_max = (rule.kind == "bound-min") == (spec.monotone == "decreasing")
        if need_max:
            b("    tmax = pair_max_base_dist(qi, ri)")
            pre, gband = _g_scalar_vn(spec, "tmax", "_vn")
        else:
            b("    tmin = pair_min_base_dist(qi, ri)")
            pre, gband = _g_scalar_vn(spec, "tmin", "_vn")
        for assign in pre:
            b(f"    {assign}")
        col = _kth_best(spec)
        if rule.kind == "bound-min":
            b(f"    B = best[qstart[qi]:qend[qi]{col}].max()")
            b(f"    return 1 if {gband} > B else 0")
        else:
            b(f"    B = best[qstart[qi]:qend[qi]{col}].min()")
            b(f"    return 1 if {gband} < B else 0")

    elif rule.kind == "indicator":
        opn = rule.indicator_op
        neg = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}[opn]
        # For '<'/'<=' thresholds the satisfying region is near: min-distance
        # decides all-outside, max-distance decides all-inside ('>' mirrors).
        near = opn in ("<", "<=")
        first = "pair_min_base_dist" if near else "pair_max_base_dist"
        second = "pair_max_base_dist" if near else "pair_min_base_dist"
        b(f"    t1 = {first}(qi, ri)")
        b(f"    if t1 {neg} H:")
        b("        return 1")
        if rule.inside_action is not None:
            b(f"    t2 = {second}(qi, ri)")
            b(f"    if t2 {opn} H:")
            b("        apply_action(qi, ri)")
            b("        return 2")
        b("    return 0")

    elif rule.kind == "approx":
        if rule.criterion == "band":
            b("    tmin = pair_min_base_dist(qi, ri)")
            b("    tmax = pair_max_base_dist(qi, ri)")
            pre, glo, ghi = _band_exprs(spec)
            for assign in pre:
                b(f"    {assign}")
            b(f"    if ({ghi}) - ({glo}) <= TAU:")
        else:  # mac
            b("    tmin = pair_min_base_dist(qi, ri)")
            b("    if tmin > 0.0 and rdiam2[ri] <= THETA2 * tmin:")
        b("        apply_action(qi, ri)")
        b("        return 2")
        b("    return 0")
    else:  # pragma: no cover
        raise CompileError(f"unknown rule kind {rule.kind!r}")
    return "\n".join(lines)


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
        opn = rule.indicator_op
        neg = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}[opn]
        near = opn in ("<", "<=")
        first = "pair_min_base_dist_batch" if near else "pair_max_base_dist_batch"
        second = "pair_max_base_dist_batch" if near else "pair_min_base_dist_batch"
        b(f"    t1 = {first}(qis, ris)")
        b(f"    codes[t1 {neg} H] = 1")
        if rule.inside_action is not None:
            b(f"    t2 = {second}(qis, ris)")
            b(f"    codes[(codes == 0) & (t2 {opn} H)] = 2")
    elif rule.criterion == "band":
        b("    tmin = pair_min_base_dist_batch(qis, ris)")
        b("    tmax = pair_max_base_dist_batch(qis, ris)")
        pre, glo, ghi = _band_exprs(spec)
        for assign in pre:
            b(f"    {assign}")
        b(f"    codes[(({ghi}) - ({glo})) <= TAU] = 2")
    else:  # mac
        b("    tmin = pair_min_base_dist_batch(qis, ris)")
        b("    codes[(tmin > 0.0) & (rdiam2[ris] <= THETA2 * tmin)] = 2")
    b("    return codes")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# bound-rule batch emission (epoch engine)
# ---------------------------------------------------------------------------

def _bound_sign(rule: RuleSpec) -> str:
    """Sign that maps a bound rule onto the unified "prune iff
    key > node_bound, smaller key = more promising" convention: identity
    for ``bound-min``, negation for ``bound-max``."""
    return "" if rule.kind == "bound-min" else "-"


def _bound_batch_source(spec: CodegenSpec) -> str | None:
    """Emit ``bound_key_batch(qis, ris)`` and
    ``classify_bound_batch(keys, node_bounds)`` for bound rules.

    The key is the *signed* band edge of ``g`` over a node pair
    (``+g(t_edge)`` for bound-min, ``-g(t_edge)`` for bound-max), so
    for both rule kinds a pair is prunable iff its key exceeds the
    max-reduced signed per-query bound of its query node, and ascending
    key order is "most promising first".  Classification runs against a
    node-bound snapshot; bounds only tighten (the signed bound only
    decreases), so a stale snapshot can under-prune but never mis-prune.
    """
    rule = spec.rule
    if rule is None or rule.kind not in ("bound-min", "bound-max"):
        return None
    need_max = (rule.kind == "bound-min") == (spec.monotone == "decreasing")
    tvar = "tmax" if need_max else "tmin"
    dist_fn = ("pair_max_base_dist_batch" if need_max
               else "pair_min_base_dist_batch")
    # The row regime's key: the same band edge with the query box
    # degenerated to the point QROW[qidx].
    edge = ("np.maximum(rhi[ris] - x, x - rlo[ris])" if need_max
            else "np.maximum(rlo[ris] - x, x - rhi[ris])")
    pre, gband = _g_scalar_vn(spec, tvar, "_vn")
    key = (f"    return np.asarray({_bound_sign(rule)}({gband}), "
           "dtype=np.float64)")
    lines = [
        "def bound_key_batch(qis, ris):",
        f"    {tvar} = {dist_fn}(qis, ris)",
        *(f"    {assign}" for assign in pre),
        key,
        "",
        "",
        "def row_key_batch(qidx, ris):",
        "    x = QROW[qidx]",
        f"    gaps = np.maximum(0.0, {edge})",
        f"    {tvar} = {_combine_batch(spec.base, 'gaps')}",
        *(f"    {assign}" for assign in pre),
        key,
        "",
        "",
        "def classify_bound_batch(keys, node_bounds):",
        "    return keys > node_bounds",
    ]
    return "\n".join(lines)


#: Cells (query rows × gathered reference columns) that one chunk of a
#: stateless program's grouped base case, or one block of a bound
#: program's blocked base case, evaluates at once, so its temporaries
#: stay in cache (2 vCPUs, x86_64, NumPy 2.4): ``kde_approx`` op_p50 at
#: 16K → 64K cells 155 → 139 ms (median of 4 interleaved spine pairs,
#: 4/4 won); under the folded Gaussian GEMM, 32K / 64K / 128K cells ran
#: 84.5 / 82.8 / 84.4 ms (median of 3 interleaved rounds; 64K won 2 of
#: 3 against 32K and 3 of 3 against 128K, all within 2 %); the
#: ``knn_prune`` blocked kernel ≈ 10 % slower at 32K cells than at 64K,
#: ≈ 3× slower uncapped (one block per epoch).
CHUNK_CELLS = 64 * 1024


def _base_case_group_source(spec: CodegenSpec) -> str | None:
    """Emit ``base_case_group(qs, qe, gathered)`` for a stateless
    program: one vectorised base case for a query leaf against the
    concatenated points of *several* reference leaves, walked in chunks
    of at most :data:`CHUNK_CELLS` cells, each chunk in
    :func:`_pairwise_lines`' arithmetic — for a folded Gaussian one
    GEMM, one clamp and one ``exp``.  A bound program gets
    :func:`_base_case_blocks_source` instead."""
    rule = spec.rule
    if rule is not None and rule.is_bound:
        return None
    body = [*_pairwise_lines(spec, "ridx"),
            *_self_exclusion_lines(spec, "ridx"),
            *_update_lines(spec, "ridx", lambda i, j: f"ridx[{j}]")]
    return "\n".join([
        "def base_case_group(qs, qe, gathered):",
        f"    step = max(1, {CHUNK_CELLS} // (qe - qs))",
        "    for c in range(0, gathered.shape[0], step):",
        "        ridx = gathered[c:c + step]",
        *("    " + line for line in body),
    ])


def _block_distance_lines(spec: CodegenSpec) -> list[str]:
    """Body lines computing ``t`` (blocks × rows × columns) for the query
    rows ``qrow`` (blocks × rows) against the reference points ``rid``
    (blocks × columns): :func:`_pairwise_lines`' arithmetic, its
    augmented GEMM batched over the blocks."""
    if _augmented_gemm(spec):
        a = _scale_fold(spec.g_ir)[0]
        out = [f"        QA, RA = _gemm_operands({a!r})",
               # a contiguous (k × columns) right operand takes the fast GEMM
               "        RB = np.ascontiguousarray(RA[rid].transpose(0, 2, 1))",
               "        t = QA[qrow] @ RB",
               f"        {_clamp(a)}"]
    else:
        out = ["        dq = QROW[qrow]",
               "        dr = RROW[rid]",
               *_difference_lines(
                   spec, "dq[:, :, None, {c}] - dr[:, None, :, {c}]",
                   "dq.shape[2]", "        ")]
    return out + _value_lines(_block_kernel(spec), "        ")


def _base_case_blocks_source(spec: CodegenSpec) -> str | None:
    """Emit ``base_case_blocks(qs, qe, ridx, redge)`` for a bound rule:
    one call per leaf-bearing epoch of the batched engine's leaf regime.
    Query leaf ``i`` spans rows ``[qs[i], qe[i])`` and meets the gathered
    reference points ``ridx[redge[i]:redge[i + 1]]``.  The leaves are
    sorted by gathered width and packed into padded blocks of at most
    :data:`CHUNK_CELLS` cells; each block takes one batched distance
    (:func:`_block_distance_lines`) and one dense merge through the
    :func:`_merge_lines` template (emitted as ``_merge_block``), over
    copies of its rows' state.  A pad cell holds the operator's
    exclusion value and id −1; a pad row repeats its leaf's last row
    and is never written back.  Every real row's signed bound ``qbound``
    is refreshed from its k-th best."""
    rule = spec.rule
    if rule is None or not rule.is_bound:
        return None
    excl = _exclusion_value(spec.inner_op)
    kth = _kth_best(spec)
    lines = [
        "def base_case_blocks(qs, qe, ridx, redge):",
        "    width = redge[1:] - redge[:-1]",
        "    nrow = qe - qs",
        "    order = np.argsort(width, kind='stable')",
        "    qrows = qs[:, None] + np.arange(int(nrow.max()))",
        "    reals = qrows < qe[:, None]",
        "    np.minimum(qrows, qe[:, None] - 1, out=qrows)",
        "    for sel in _blocks(order, nrow[order], width[order]):",
        "        W = int(width[sel[-1]])",
        "        P = int(nrow[sel].max())",
        "        col = np.arange(W)",
        "        rid = ridx[np.minimum(redge[sel, None] + col, ridx.size - 1)]",
        "        qrow = qrows[sel, :P]",
        *_block_distance_lines(spec),
    ]
    b = lines.append
    if spec.self_map:
        b(f"        np.copyto(v, {excl}, "
          "where=qrow[:, :, None] == RSELF[rid][:, None, :])")
    elif spec.same_tree and spec.exclude_self:
        b(f"        np.copyto(v, {excl}, "
          "where=qrow[:, :, None] == rid[:, None, :])")
    b("        if width[sel[0]] < W:   # the narrower leaves' pad cells")
    b("            pad = col >= width[sel, None]")
    b(f"            v.transpose(0, 2, 1)[pad] = {excl}")
    b("            rid = np.where(pad, -1, rid)")
    b("        qflat = qrow.ravel()")
    b("        bk = best[qflat]")
    b("        bik = best_idx[qflat]")
    b("        leaf = np.repeat(np.arange(sel.size), P)")
    b("        _merge_block(v.reshape(-1, W), rid, leaf, bk, bik)")
    b("        if nrow[sel].min() < P:   # pad rows: write back the real ones")
    b("            real = reals[sel, :P].ravel()")
    b("            qflat, bk, bik = qflat[real], bk[real], bik[real]")
    b("        best_idx[qflat] = bik")
    b("        best[qflat] = bk")
    b(f"        qbound[qflat] = {_bound_sign(rule)}bk[:{kth}]"
      if kth else f"        qbound[qflat] = {_bound_sign(rule)}bk")
    lines += [
        "",
        "",
        "def _blocks(order, rows, width):",
        "    # Greedy cuts over the width-sorted leaves: a block's padded",
        "    # cells (leaves × widest rows × widest width) stay within",
        f"    # {CHUNK_CELLS}, unless one leaf alone holds more.",
        "    start, p = 0, 0",
        "    for j, (n, w) in enumerate(zip(rows.tolist(), width.tolist())):",
        "        p = max(p, n)",
        f"        if j > start and (j + 1 - start) * p * w > {CHUNK_CELLS}:",
        "            yield order[start:j]",
        "            start, p = j, n",
        "    yield order[start:]",
        "",
        "",
        "def _merge_block(v, rid, leaf, best, best_idx, qs=0, qe=None):",
        *_merge_lines(spec, lambda i, j: f"rid[leaf[{i}], {j}]"),
    ]
    return "\n".join(lines)


def _pairwise_pairs_lines(spec: CodegenSpec) -> list[str]:
    """Body lines computing ``v[p]`` for the candidate pairs
    ``(qidx[p], ridx[p])`` (the row regime's flat gather): the norm
    expansion, one dot product per pair over the trees' cached squared
    norms, where the block kernels take the GEMM, and ``exact_values``
    otherwise."""
    if not _augmented_gemm(spec):
        return ["    v = exact_values(QROW, qidx, RROW, ridx)"]
    return ["    t = QN2[qidx] + RN2[ridx] "
            "- 2.0 * np.einsum('ij,ij->i', QROW[qidx], RROW[ridx])",
            "    np.maximum(t, 0.0, out=t)",
            *_value_lines(spec.g_ir, "    ")]


def _base_case_rows_source(spec: CodegenSpec) -> str | None:
    """Emit ``base_case_rows(qidx, ridx)``: the row regime's one base
    case per epoch over every candidate pair ``(qidx[p], ridx[p])`` of
    the epoch, grouped by query row.  Distances are taken over the real
    pairs only; the candidates at or inside their row's k-th best (the
    merge template's own row filter, per candidate) are padded into one
    (rows × L) block, with a pad holding the operator's exclusion value,
    and merged through the unchanged :func:`_merge_lines` template
    (emitted as ``_merge_rows``, whose parameters stand in for the state
    arrays over the block ``[0, rows)``) with per-row ids."""
    rule = spec.rule
    if rule is None or rule.kind not in ("bound-min", "bound-max"):
        return None
    op = spec.inner_op
    excl = _exclusion_value(op)
    cmp = "<=" if op in MIN_LIKE else ">="
    kth = _kth_best(spec)
    lines = ["def base_case_rows(qidx, ridx):"]
    lines += _pairwise_pairs_lines(spec)
    b = lines.append
    if spec.self_map:
        b(f"    v[qidx == RSELF[ridx]] = {excl}")
    elif spec.same_tree and spec.exclude_self:
        b(f"    v[qidx == ridx] = {excl}")
    b(f"    keep = np.flatnonzero(v {cmp} best[qidx{kth}])")
    b("    if keep.size == 0:")
    b("        return")
    b("    qidx, ridx, v = qidx[keep], ridx[keep], v[keep]")
    b("    head = np.empty(qidx.size, dtype=bool)")
    b("    head[0] = True")
    b("    np.not_equal(qidx[1:], qidx[:-1], out=head[1:])")
    b("    first = np.flatnonzero(head)")
    b("    slot = np.cumsum(head) - 1")
    b("    col = np.arange(qidx.size) - first[slot]")
    b("    rows = qidx[first]")
    b(f"    vb = np.full((rows.size, int(col.max()) + 1), {excl})")
    b("    vb[slot, col] = v")
    b("    rb = np.full(vb.shape, -1)")
    b("    rb[slot, col] = ridx")
    b("    bk = best[rows]")
    b("    bik = best_idx[rows]")
    b("    _merge_rows(vb, rb, bk, bik)")
    b("    best_idx[rows] = bik")
    b("    best[rows] = bk")
    kth_col = f"bk[:{kth}]" if kth else "bk"
    b(f"    qbound[rows] = {_bound_sign(rule)}{kth_col}")
    lines += ["", "",
              "def _merge_rows(v, ridx, best, best_idx, qs=0, qe=None):"]
    lines += _merge_lines(spec, lambda i, j: f"ridx[{i}, {j}]")
    return "\n".join(lines)


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
            *([_GEMM_OPERANDS] if gemm else []),
            _pairwise_source(spec),
            _base_case_source(spec),
            _pair_dist_source(spec),
            _pair_dist_batch_source(spec),
        ]
        for maker in (_exact_values_source, _action_source, _prune_source,
                      _classify_batch_source, _bound_batch_source,
                      _base_case_group_source, _base_case_blocks_source,
                      _base_case_rows_source):
            src = maker(spec)
            if src is not None:
                chunks.append(src)
        source = "\n\n".join(chunks) + "\n"
        sp.note(source_loc=source.count("\n"))
        code = compile(source, f"<portal-generated-{id(spec)}>", "exec")
    return source, code


@dataclass(frozen=True)
class Bindings:
    """The static operands generated kernels close over, by kind.

    ``arrays`` are read-only ndarrays — the process executor publishes
    them to shared memory as they are: the points (``QROW``, with their
    squared norms ``QN2``, and the ``R*`` twins), tree metadata
    (``qlo``/``qhi``/``qstart``/``qend``, ``rlo``/``rhi``/``rstart``/
    ``rend``/``rcentroid``/``rweight``/``rdiam2``), the reference
    weights ``rw`` when there are any and — for sharded programs emitted
    with ``spec.self_map`` — the reference→query identity remap
    ``RSELF``.  ``scalars`` pickle as they are: the program-shape
    constants ``K``/``H``/``TAU``/``THETA2``.  Per-run state (``best``/
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
            QROW=qtree.points, QN2=qtree.sqnorms(),
            qlo=qtree.lo, qhi=qtree.hi, qstart=qtree.start, qend=qtree.end,
        ), dict(scalars))

    @classmethod
    def reference(cls, rtree, rself: np.ndarray | None = None) -> "Bindings":
        """The reference-tree operands (one set per shard tree under the
        sharded layout, with that shard's ``RSELF``)."""
        weighted = rtree.weights is not None
        return cls(dict(
            RROW=rtree.points, RN2=rtree.sqnorms(),
            rlo=rtree.lo, rhi=rtree.hi, rstart=rtree.start, rend=rtree.end,
            rcentroid=rtree.wcentroid if weighted else rtree.centroid,
            rweight=(rtree.wsum if weighted
                     else (rtree.end - rtree.start).astype(np.float64)),
            rdiam2=rtree.diameter ** 2,
            **_present(rw=rtree.weights, RSELF=rself),
        ), {})

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


def _present(**named) -> dict:
    """The operands that exist: emitted code only names ``rw`` for a
    weighted reference side, ``RSELF`` under ``spec.self_map``."""
    return {name: arr for name, arr in named.items() if arr is not None}


def bind_kernels(source: str, code, bindings: dict) -> GeneratedKernels:
    """Execute emitted kernel code against a closure environment — the
    flat namespace :meth:`Bindings.bind` assembles."""
    namespace = {"np": np}
    namespace.update(bindings)
    exec(code, namespace)
    return GeneratedKernels(
        source=source,
        namespace=namespace,
        base_case=namespace["base_case"],
        prune_or_approx=namespace.get("prune_or_approx"),
        pair_min_dist=namespace.get("pair_min_base_dist"),
        classify_batch=namespace.get("classify_batch"),
        apply_action=namespace.get("apply_action"),
        bound_key_batch=namespace.get("bound_key_batch"),
        classify_bound_batch=namespace.get("classify_bound_batch"),
        base_case_group=namespace.get("base_case_group"),
        base_case_blocks=namespace.get("base_case_blocks"),
        row_key_batch=namespace.get("row_key_batch"),
        base_case_rows=namespace.get("base_case_rows"),
        exact_values=namespace.get("exact_values"),
    )


def generate(spec: CodegenSpec, bindings: dict) -> GeneratedKernels:
    """Emit, compile and bind the problem's kernels (one-shot form of
    :func:`emit` + :func:`bind_kernels`)."""
    source, code = emit(spec)
    return bind_kernels(source, code, bindings)
