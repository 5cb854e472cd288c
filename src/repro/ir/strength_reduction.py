"""Strength-reduction pass (paper section IV-E).

``pow(x, n)`` with an integer exponent ``2 ≤ n ≤ 8`` becomes a chain of
multiplications by binary exponentiation; ``pow(x, 0)`` and ``pow(x, 1)``
become ``1`` and ``x``.  In statement context the operand ``x`` and
intermediate squares are materialised once into shared ``sr<N>``
temporaries, so the rewrite never duplicates the operand tree (the
duplication CSE previously had to rediscover).

The paper also rewrites ``sqrt(x)`` to ``1 / fast_inverse_sqrt(x)``, a
fast LLVM intrinsic.  Under NumPy that is a Python-level bit-twiddle set
against one ``np.sqrt`` ufunc — slower and less accurate — so the rewrite
is not carried over (DESIGN.md, substitution S7); every rewrite here is
exact in IEEE double arithmetic.
"""

from __future__ import annotations

from ..dsl.expr import BinOp, Const, Expr
from .nodes import (
    Alloc, Assign, AugAssign, CallStmt, For, IfStmt, IRCall, IRProgram,
    ReturnStmt, Stmt, StoreStmt, SymRef, _map_expr_tree,
)

__all__ = ["strength_reduce", "reduce_expr", "MAX_POW_CHAIN"]

#: Largest integer exponent expanded into a multiplication chain.
MAX_POW_CHAIN = 8


def _pow_chain(base: Expr, n: int, materialize) -> Expr:
    """Binary-exponentiation chain for ``base ** n`` (2 ≤ n ≤ 8).
    *materialize* shares an intermediate square: a hoisted temporary in
    statement context, the same sub-tree object in expression context."""
    mul = lambda a, b: BinOp("*", a, b)
    if n == 2:
        return mul(base, base)
    if n == 3:
        return mul(mul(base, base), base)
    sq = materialize(mul(base, base))
    if n == 4:
        return mul(sq, sq)
    if n == 5:
        return mul(mul(sq, sq), base)
    if n == 6:
        return mul(mul(sq, sq), sq)
    if n == 7:
        return mul(mul(mul(sq, sq), sq), base)
    sq2 = materialize(mul(sq, sq))  # n == 8
    return mul(sq2, sq2)


def _make_rewriter(hoist=None):
    """Node rewriter; *hoist* (when given) materialises an expression into
    a fresh shared temporary, returning its :class:`SymRef`."""

    def materialize(e: Expr) -> Expr:
        if hoist is None or isinstance(e, (SymRef, Const)):
            return e
        return hoist(e)

    def rewrite(e: Expr) -> Expr:
        if isinstance(e, IRCall) and e.func == "pow" and len(e.args) == 2:
            x, n = e.args
            if isinstance(n, Const) and float(n.value).is_integer():
                ni = int(n.value)
                if ni == 0:
                    return Const(1.0)
                if ni == 1:
                    return x
                if 2 <= ni <= MAX_POW_CHAIN:
                    return _pow_chain(materialize(x), ni, materialize)
        return e

    return rewrite


def _reduce_stmt(s: Stmt, counter: list[int]):
    """Rewrite the directly evaluated expressions of one statement,
    hoisting pow operands into ``sr<N>`` temporaries prefixed before it.
    (Direct expressions of loops and branches — bounds, conditions — are
    evaluated once before their bodies, so the prefix is sound there
    too; bodies are rewritten as their own statements.)"""
    prefix: list[Stmt] = []

    def hoist(e: Expr) -> Expr:
        counter[0] += 1
        name = f"sr{counter[0]}"
        prefix.append(Assign(name, e))
        return SymRef(name)

    node = _make_rewriter(hoist)

    def rw(e: Expr) -> Expr:
        return _map_expr_tree(e, node)

    if isinstance(s, Assign):
        s = Assign(s.target, rw(s.value))
    elif isinstance(s, AugAssign):
        s = AugAssign(s.target, s.op, rw(s.value),
                      None if s.index is None else rw(s.index))
    elif isinstance(s, StoreStmt):
        s = StoreStmt(s.array, tuple(rw(i) for i in s.indices), rw(s.value))
    elif isinstance(s, ReturnStmt):
        s = ReturnStmt(None if s.value is None else rw(s.value))
    elif isinstance(s, CallStmt):
        s = CallStmt(s.func, tuple(rw(a) for a in s.args))
    elif isinstance(s, Alloc):
        s = Alloc(s.name,
                  None if s.size is None else rw(s.size),
                  None if s.init is None else rw(s.init))
    elif isinstance(s, For):
        s = For(s.var, rw(s.start), rw(s.end), s.body)
    elif isinstance(s, IfStmt):
        s = IfStmt(rw(s.cond), s.then, s.orelse)
    return prefix + [s] if prefix else s


def strength_reduce(program: IRProgram) -> IRProgram:
    """Apply strength reduction to every function of the program."""
    counter = [0]
    functions = {
        name: fn.map_stmts(lambda s: _reduce_stmt(s, counter))
        for name, fn in program.functions.items()
    }
    out = IRProgram(functions, dict(program.meta))
    out.meta["strength_reduced"] = True
    return out


def reduce_expr(e: Expr) -> Expr:
    """Strength-reduce a bare expression (used by the code generator on
    the kernel body, so the emitted source contains the reduced forms).
    Intermediate squares are shared sub-tree objects; the emitter's
    value numbering materialises each shared square once."""
    return _map_expr_tree(e, _make_rewriter())
