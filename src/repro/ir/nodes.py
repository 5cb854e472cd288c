"""Portal IR: the imperative intermediate representation (paper Figs 1–3).

The IR is a small statement language over the symbolic expression nodes of
:mod:`repro.dsl.expr`, extended with three IR-only leaves:

* :class:`SymRef` — reference to a scalar temporary or parameter,
* :class:`LoadExpr` — (possibly multi-dimensional) array load; the
  flattening pass rewrites multi-index loads into one-dimensional strided
  loads (paper section IV-C),
* :class:`IRCall` — call of an IR-level function (``pow``, ``sqrt``,
  ``cholesky``, ``forward_sub``, ...), the nodes the
  numerical-optimisation and strength-reduction passes rewrite.

Statements form :class:`Block` trees inside :class:`IRFunction`; a
compiled problem is an :class:`IRProgram` holding the three traversal
functions (BaseCase, Prune/Approximate, ComputeApprox) plus the
brute-force variant used for correctness checks (section IV).

Passes use the uniform ``map_exprs`` / ``map_blocks`` traversal helpers so
each optimisation is a ~50-line tree rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..dsl.expr import Const, Expr

__all__ = [
    "SymRef", "LoadExpr", "IRCall",
    "Stmt", "Block", "Alloc", "For", "Assign", "AugAssign", "StoreStmt",
    "IfStmt", "ReturnStmt", "Comment", "CallStmt",
    "IRFunction", "IRProgram",
]


# ---------------------------------------------------------------------------
# IR-only expression leaves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymRef(Expr):
    """Reference to a scalar temporary, loop variable or parameter."""

    name: str = ""
    shape: str = field(default="scalar")

    def _key(self):
        return (self.name,)

    def evaluate(self, env):
        return env[self.name]

    def __repr__(self):
        return self.name


@dataclass(frozen=True, eq=False)
class LoadExpr(Expr):
    """Array load ``load(array, i, j, ...)``.

    Multi-index loads are produced by lowering and rewritten by the
    flattening pass into single-index loads whose index expression folds
    the strides in.
    """

    array: str = ""
    indices: tuple[Expr, ...] = ()
    shape: str = field(default="scalar")

    def children(self):
        return self.indices

    def _rebuild(self, children):
        return LoadExpr(self.array, tuple(children))

    def _key(self):
        return (self.array, len(self.indices))

    def evaluate(self, env):
        arr = env[self.array]
        idx = tuple(int(i.evaluate(env)) for i in self.indices)
        return arr[idx if len(idx) > 1 else idx[0]]

    def __repr__(self):
        idx = ",".join(repr(i) for i in self.indices)
        return f"load({self.array},{idx})"


#: Functions callable from the IR, with reference implementations used by
#: the interpreter backend.
IR_FUNCS: dict[str, Callable] = {}


def _register_ir_funcs():
    from scipy.linalg import cholesky as _chol, solve_triangular

    IR_FUNCS.update(
        {
            # float64, as the emitted np.power: pow(-8, 0.5) is NaN,
            # not a complex number.
            "pow": lambda x, n: np.power(x, n, dtype=np.float64),
            "sqrt": np.sqrt,
            "exp": np.exp,
            "log": np.log,
            "abs": np.abs,
            "min": lambda a, b: np.minimum(a, b),
            "max": lambda a, b: np.maximum(a, b),
            "cholesky": lambda S: _chol(S, lower=True),
            "forward_sub": lambda L, y: solve_triangular(L, y, lower=True),
            "dot": np.dot,
            # dot(x, x) after the simplify pass: same product, one read.
            "sqnorm": lambda v: np.dot(v, v),
            # Dense Mahalanobis form: replaced by the numerical-optimisation
            # pass; kept executable so pre-pass IR is still interpretable.
            "mahalanobis": lambda y, S: float(y @ np.linalg.inv(S) @ y),
        }
    )


@dataclass(frozen=True, eq=False)
class IRCall(Expr):
    """Call of an IR-level function by name."""

    func: str = ""
    args: tuple[Expr, ...] = ()
    shape: str = field(default="scalar")

    def children(self):
        return self.args

    def _rebuild(self, children):
        return IRCall(self.func, tuple(children))

    def _key(self):
        return (self.func, len(self.args))

    def evaluate(self, env):
        if not IR_FUNCS:
            _register_ir_funcs()
        fn = IR_FUNCS.get(self.func)
        if fn is None:
            fn = env.get(self.func)
        if fn is None:
            raise KeyError(f"unknown IR function {self.func!r}")
        return fn(*(a.evaluate(env) for a in self.args))

    def __repr__(self):
        return f"{self.func}({', '.join(repr(a) for a in self.args)})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class for IR statements."""

    def exprs(self) -> tuple[Expr, ...]:
        """Direct expression operands of this statement."""
        return ()

    def blocks(self) -> tuple["Block", ...]:
        """Nested statement blocks."""
        return ()

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "Stmt":
        """Return a copy with every expression operand rewritten by *fn*
        (recursing into nested blocks)."""
        return self

    def walk(self) -> Iterator["Stmt"]:
        yield self
        for b in self.blocks():
            for s in b.stmts:
                yield from s.walk()


def _map_expr_tree(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up expression rewrite."""
    rebuilt = expr._rebuild([_map_expr_tree(c, fn) for c in expr.children()])
    return fn(rebuilt)


@dataclass
class Block:
    stmts: list[Stmt] = field(default_factory=list)

    def map_exprs(self, fn) -> "Block":
        return Block([s.map_exprs(fn) for s in self.stmts])

    def map_stmts(self, fn: Callable[[Stmt], list[Stmt] | Stmt | None]) -> "Block":
        """Rewrite statements (None drops, list splices), recursing first."""
        out: list[Stmt] = []
        for s in self.stmts:
            if isinstance(s, For):
                s = For(s.var, s.start, s.end, s.body.map_stmts(fn))
            elif isinstance(s, IfStmt):
                s = IfStmt(
                    s.cond, s.then.map_stmts(fn),
                    None if s.orelse is None else s.orelse.map_stmts(fn),
                )
            r = fn(s)
            if r is None:
                continue
            out.extend(r if isinstance(r, list) else [r])
        return Block(out)

    def walk(self) -> Iterator[Stmt]:
        for s in self.stmts:
            yield from s.walk()


@dataclass
class Comment(Stmt):
    text: str = ""


@dataclass
class Alloc(Stmt):
    """Storage injection: ``alloc name[size] = init`` (section IV-B)."""

    name: str = ""
    size: Expr | None = None  # None => scalar temporary
    init: Expr | None = None

    def exprs(self):
        return tuple(e for e in (self.size, self.init) if e is not None)

    def map_exprs(self, fn):
        return Alloc(
            self.name,
            None if self.size is None else _map_expr_tree(self.size, fn),
            None if self.init is None else _map_expr_tree(self.init, fn),
        )


@dataclass
class For(Stmt):
    """``for var in start ... end`` — implicit stride 1 (section IV-A)."""

    var: str = "i"
    start: Expr = None  # type: ignore[assignment]
    end: Expr = None  # type: ignore[assignment]
    body: Block = field(default_factory=Block)

    def exprs(self):
        return (self.start, self.end)

    def blocks(self):
        return (self.body,)

    def map_exprs(self, fn):
        return For(
            self.var, _map_expr_tree(self.start, fn),
            _map_expr_tree(self.end, fn), self.body.map_exprs(fn),
        )


@dataclass
class Assign(Stmt):
    target: str = ""
    value: Expr = None  # type: ignore[assignment]

    def exprs(self):
        return (self.value,)

    def map_exprs(self, fn):
        return Assign(self.target, _map_expr_tree(self.value, fn))


@dataclass
class AugAssign(Stmt):
    """``target op= value`` — the loop-end reduction updates."""

    target: str = ""
    op: str = "+"
    value: Expr = None  # type: ignore[assignment]
    #: Optional store index when the target is an array cell.
    index: Expr | None = None

    def exprs(self):
        return (self.value,) + ((self.index,) if self.index is not None else ())

    def map_exprs(self, fn):
        return AugAssign(
            self.target, self.op, _map_expr_tree(self.value, fn),
            None if self.index is None else _map_expr_tree(self.index, fn),
        )


@dataclass
class StoreStmt(Stmt):
    array: str = ""
    indices: tuple[Expr, ...] = ()
    value: Expr = None  # type: ignore[assignment]

    def exprs(self):
        return self.indices + (self.value,)

    def map_exprs(self, fn):
        return StoreStmt(
            self.array,
            tuple(_map_expr_tree(i, fn) for i in self.indices),
            _map_expr_tree(self.value, fn),
        )


@dataclass
class IfStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Block = field(default_factory=Block)
    orelse: Block | None = None

    def exprs(self):
        return (self.cond,)

    def blocks(self):
        return (self.then,) + ((self.orelse,) if self.orelse is not None else ())

    def map_exprs(self, fn):
        return IfStmt(
            _map_expr_tree(self.cond, fn),
            self.then.map_exprs(fn),
            None if self.orelse is None else self.orelse.map_exprs(fn),
        )


@dataclass
class CallStmt(Stmt):
    """Statement-level call (e.g. ``sorted_insert`` for K* filters)."""

    func: str = ""
    args: tuple[Expr, ...] = ()

    def exprs(self):
        return self.args

    def map_exprs(self, fn):
        return CallStmt(self.func, tuple(_map_expr_tree(a, fn) for a in self.args))


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None = None

    def exprs(self):
        return (self.value,) if self.value is not None else ()

    def map_exprs(self, fn):
        return ReturnStmt(
            None if self.value is None else _map_expr_tree(self.value, fn)
        )


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------

@dataclass
class IRFunction:
    """One of the traversal functions in IR form."""

    name: str
    params: tuple[str, ...]
    body: Block

    def map_exprs(self, fn) -> "IRFunction":
        return IRFunction(self.name, self.params, self.body.map_exprs(fn))

    def map_stmts(self, fn) -> "IRFunction":
        return IRFunction(self.name, self.params, self.body.map_stmts(fn))


@dataclass
class IRProgram:
    """The IR of a full Portal problem at one compiler stage.

    ``functions`` holds BaseCase / PruneApprox / ComputeApprox (and
    BruteForce); ``meta`` records problem classification and layer info
    the backend needs.
    """

    functions: dict[str, IRFunction]
    meta: dict = field(default_factory=dict)

    def map_exprs(self, fn) -> "IRProgram":
        return IRProgram(
            {k: f.map_exprs(fn) for k, f in self.functions.items()},
            dict(self.meta),
        )

    def __getitem__(self, name: str) -> IRFunction:
        return self.functions[name]


def const(v: float) -> Const:
    return Const(float(v))
