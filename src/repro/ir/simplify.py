"""Algebraic simplification pass over the Table I operator set.

Extends plain constant folding with identity rewrites and a few exact
cancellations.  Every rewrite is exact in IEEE double arithmetic: a
rewrite that can change a result in corner cases (``x * 0 → 0`` hides
NaN/Inf propagation, ``exp(log(x)) → x`` changes overflow behaviour) is
not made.  Constants fold in float64 NumPy arithmetic, as the emitted
code computes them, and only to a finite real.

The single-node folding core (:func:`fold_node`) is shared with the
pass manager's standalone ``fold`` pass.
"""

from __future__ import annotations

import math

import numpy as np

from ..dsl.expr import BinOp, Const, Expr, Indicator, Neg
from .nodes import IRCall, IRProgram

__all__ = ["simplify", "fold_node"]

#: binary operators and IR functions, as the emitted code evaluates them
_FOLDABLE = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "**": np.power,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "pow": np.power,
    "max": np.maximum,
    "min": np.minimum,
}

_CMP = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}


def _const(e: Expr, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def _fold(e: Expr, fn, args) -> Expr:
    """``Const(fn(*args))`` evaluated in float64 NumPy — what the emitted
    code computes — when that is a finite real; otherwise *e*, left for
    runtime (a NaN, an infinity or a complex power is never folded)."""
    with np.errstate(all="ignore"):
        value = float(fn(*(np.float64(a.value) for a in args)))
    return Const(value) if math.isfinite(value) else e


def fold_node(e: Expr) -> Expr:
    """Constant folding + exact identities for one (rebuilt) node."""
    if isinstance(e, Neg) and isinstance(e.operand, Const):
        return Const(-e.operand.value)
    if isinstance(e, BinOp):
        a, b = e.lhs, e.rhs
        if isinstance(a, Const) and isinstance(b, Const):
            return _fold(e, _FOLDABLE[e.op], (a, b))
        # Identities: x*1, 1*x, x+0, 0+x, x-0, x/1.
        if e.op == "*" and _const(b, 1.0):
            return a
        if e.op == "*" and _const(a, 1.0):
            return b
        if e.op == "+" and _const(b, 0.0):
            return a
        if e.op == "+" and _const(a, 0.0):
            return b
        if e.op == "-" and _const(b, 0.0):
            return a
        if e.op == "/" and _const(b, 1.0):
            return a
    if isinstance(e, IRCall) and e.func in _FOLDABLE and all(
        isinstance(a, Const) for a in e.args
    ):
        return _fold(e, _FOLDABLE[e.func], e.args)
    return e


def _simplify_node(e: Expr) -> Expr:
    e = fold_node(e)
    if isinstance(e, Neg) and isinstance(e.operand, Neg):
        return e.operand.operand
    if isinstance(e, Indicator) and isinstance(e.lhs, Const) and isinstance(
        e.rhs, Const
    ):
        return Const(1.0 if _CMP[e.op](e.lhs.value, e.rhs.value) else 0.0)
    if isinstance(e, BinOp):
        a, b = e.lhs, e.rhs
        if e.op == "-" and _const(a, 0.0):
            return Neg(b)
        if e.op == "+" and a == b:
            # x + x == 2*x exactly in IEEE arithmetic; halves the reads.
            return BinOp("*", Const(2.0), a)
    if isinstance(e, IRCall):
        args = e.args
        if e.func == "pow" and len(args) == 2 and _const(args[1], 1.0):
            return args[0]
        if e.func == "pow" and len(args) == 2 and _const(args[1], 0.0):
            return Const(1.0)
        if e.func in ("min", "max") and len(args) == 2 and args[0] == args[1]:
            return args[0]
        if (e.func == "abs" and len(args) == 1
                and isinstance(args[0], IRCall) and args[0].func == "abs"):
            return args[0]
        if e.func == "dot" and len(args) == 2 and args[0] == args[1]:
            # dot(x, x) → sqnorm(x): evaluates x once (paper Table I norm).
            return IRCall("sqnorm", (args[0],))
    return e


def simplify(program: IRProgram) -> IRProgram:
    """Apply algebraic simplification to every function of *program*."""
    out = program.map_exprs(_simplify_node)
    out.meta["simplified"] = True
    return out
