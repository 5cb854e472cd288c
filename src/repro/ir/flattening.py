"""Flattening pass (paper section IV-C).

Rewrites multi-dimensional loads and stores into one-dimensional strided
accesses: ``load(A, i, d)`` becomes ``load(A, i·A.stride0 + d·A.stride1)``.
The strides are symbolic and bound at run time.  The paper fixes them
by a per-dataset layout choice (column-major for d ≤ 4, section IV-F);
here every dataset is row-major (DESIGN.md, S8), so the interpreter
binds ``stride0 = d`` and ``stride1 = 1``.
"""

from __future__ import annotations

from ..dsl.expr import BinOp, Const, Expr
from .nodes import IRProgram, LoadExpr, StoreStmt, SymRef, Stmt

__all__ = ["flatten"]


def _flat_index(array: str, indices: tuple[Expr, ...]) -> Expr:
    terms = [
        BinOp("*", idx, SymRef(f"{array}.stride{axis}"))
        for axis, idx in enumerate(indices)
    ]
    out = terms[0]
    for t in terms[1:]:
        out = BinOp("+", out, t)
    return out


def flatten(program: IRProgram) -> IRProgram:
    """Flatten every multi-index load/store in the program."""

    def rewrite_expr(e: Expr) -> Expr:
        if isinstance(e, LoadExpr) and len(e.indices) > 1:
            return LoadExpr(e.array, (_flat_index(e.array, e.indices),))
        return e

    def rewrite_stmt(s: Stmt):
        if isinstance(s, StoreStmt) and len(s.indices) > 1:
            return StoreStmt(s.array, (_flat_index(s.array, s.indices),), s.value)
        return s

    out = program.map_exprs(rewrite_expr)
    out = IRProgram(
        {k: f.map_stmts(rewrite_stmt) for k, f in out.functions.items()},
        dict(out.meta),
    )
    out.meta["flattened"] = True
    return out
