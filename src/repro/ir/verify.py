"""Structural IR verifier: the machine-checkable validity contract that
every optimisation pass must preserve.

Optimisation passes are tree rewrites, and a buggy rewrite typically
leaves one of a small number of structural footprints behind: a reference
to a temporary whose defining assignment was dropped, a frontend node
(``Var``/``DimReduce``) smuggled into the IR, an ``IRCall`` rebuilt with
the wrong arity, a multi-index load surviving past flattening, or an
accumulator update against an undefined target.  :func:`verify_program`
checks all of these invariants over a whole :class:`IRProgram`:

* only IR node types appear (no unlowered frontend expressions),
* every ``BinOp``/``AugAssign``/``Indicator`` operator is legal,
* every ``IRCall``/``CallStmt`` names a known function with the right arity,
* loads carry at least one index, and exactly one once the program is
  flattened,
* every ``SymRef``/load target is defined before use (or is an external
  environment name: parameters, storages, tree metadata, strides),
* compiler-generated temporaries (``cse*``/``sr*``) are assigned exactly
  once (SSA-style single definition) and never used as accumulators,
* accumulator updates use a supported reduction operator and indexed
  updates only target injected storage.

The pass manager runs the verifier after every pass when
``CompileOptions.verify_ir`` is enabled (the default in the test suite);
a violation raises :class:`IRVerificationError` naming the offending
pass, function and statement.
"""

from __future__ import annotations

import re

from ..dsl.errors import CompileError
from ..dsl.expr import (
    BinOp, Call, Const, DimReduce, DistVar, Expr, Indicator, Neg, Var,
)
from .nodes import (
    Alloc, Assign, AugAssign, Block, CallStmt, Comment, For, IfStmt, IRCall,
    IRFunction, IRProgram, LoadExpr, ReturnStmt, Stmt, StoreStmt, SymRef,
)

__all__ = ["IRVerificationError", "verify_program", "verify_function"]


class IRVerificationError(CompileError):
    """A pass produced structurally invalid IR.

    Carries the offending ``pass_name`` / ``function`` / rendered
    ``stmt`` so test harnesses (and humans) can attribute the breakage.
    """

    def __init__(self, message: str, *, pass_name: str | None = None,
                 function: str | None = None, stmt: str | None = None):
        self.message = message
        self.pass_name = pass_name
        self.function = function
        self.stmt = stmt
        where = f"after pass {pass_name!r}" if pass_name else "in IR"
        if function:
            where += f", function {function!r}"
        if stmt:
            where += f", at `{stmt}`"
        super().__init__(f"IR verification failed {where}: {message}")


#: Legal operator sets of the IR surface (Table I lowers onto these).
_BINOP_OPS = frozenset({"+", "-", "*", "/", "**"})
_AUG_OPS = frozenset({"+", "*"})  # the reductions the backends implement
_CMP_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})

#: Known IR functions with their arity (``None`` = variadic).  Math
#: functions are rewritten by the passes; the rest are backend intrinsics
#: bound by the interpreter/code generator at run time.
KNOWN_FUNCS: dict[str, int | None] = {
    # math (Table I operator set)
    "pow": 2, "sqrt": 1, "exp": 1, "log": 1, "abs": 1,
    "min": 2, "max": 2,
    "cholesky": 1, "forward_sub": 2, "dot": 2, "sqnorm": 1,
    "mahalanobis": 2,
    # traversal / tree-metadata intrinsics
    "point_diff": 4, "band_lo": 2, "band_hi": 2, "node_bound": 1,
    "node_count": 1, "node_weight": 1, "node_diameter": 1,
    "point_node_center_dist": 3, "point_of": 2,
    "kernel_eval": None, "external_kernel": 4,
    # statement-level (side-effecting) intrinsics
    "sorted_insert_asc": 4, "sorted_insert_desc": 4,
    "append": 2, "append_range": 4, "store_row": 3,
}

#: Names the execution environment provides without an IR definition.
_EXTERNAL_NAMES = frozenset({"dim", "Sigma", "N1", "N2", "dynamic"})

_TEMP_RE = re.compile(r"^(cse|sr)\d+$")


def _is_external(name: str, params: tuple[str, ...]) -> bool:
    """Environment-provided names: function parameters, storage arrays and
    their companions, node-box metadata, and flattening strides."""
    return (
        "." in name
        or name in params
        or name in _EXTERNAL_NAMES
        or name.endswith("_data")
        or name.endswith("_rows")
        or name.startswith("storage")
        or name.startswith("N1_")
        or name.startswith("N2_")
    )


class _FunctionChecker:
    def __init__(self, fn: IRFunction, flattened: bool):
        self.fn = fn
        self.flattened = flattened
        self.assign_counts: dict[str, int] = {}
        self.aug_targets: set[str] = set()
        self.alloc_names: set[str] = set()

    # -- error helper -------------------------------------------------------
    def fail(self, message: str, stmt: Stmt | None = None):
        rendered = None
        if stmt is not None:
            from .printer import render_stmt

            rendered = render_stmt(stmt).strip()
        raise IRVerificationError(
            message, function=self.fn.name, stmt=rendered
        )

    # -- expressions --------------------------------------------------------
    def check_expr(self, e: Expr, defined: set[str], stmt: Stmt):
        if isinstance(e, (Var, DistVar, DimReduce, Call)):
            self.fail(
                f"frontend node {type(e).__name__} survived lowering: {e!r}",
                stmt,
            )
        if isinstance(e, Const):
            return
        if isinstance(e, SymRef):
            if e.name not in defined and not _is_external(e.name, self.fn.params):
                self.fail(f"dangling reference to undefined name {e.name!r}",
                          stmt)
            return
        if isinstance(e, LoadExpr):
            if not e.indices:
                self.fail(f"load of {e.array!r} with no index", stmt)
            if self.flattened and len(e.indices) != 1:
                self.fail(
                    f"multi-index load of {e.array!r} after flattening", stmt
                )
            if (e.array not in defined
                    and not _is_external(e.array, self.fn.params)):
                self.fail(f"load from undefined array {e.array!r}", stmt)
            for i in e.indices:
                self.check_expr(i, defined, stmt)
            return
        if isinstance(e, BinOp):
            if e.op not in _BINOP_OPS:
                self.fail(f"illegal binary operator {e.op!r}", stmt)
            self.check_expr(e.lhs, defined, stmt)
            self.check_expr(e.rhs, defined, stmt)
            return
        if isinstance(e, Neg):
            self.check_expr(e.operand, defined, stmt)
            return
        if isinstance(e, Indicator):
            if e.op not in _CMP_OPS:
                self.fail(f"illegal comparison operator {e.op!r}", stmt)
            self.check_expr(e.lhs, defined, stmt)
            self.check_expr(e.rhs, defined, stmt)
            return
        if isinstance(e, IRCall):
            if e.func not in KNOWN_FUNCS:
                self.fail(f"call of unknown IR function {e.func!r}", stmt)
            arity = KNOWN_FUNCS[e.func]
            if arity is not None and len(e.args) != arity:
                self.fail(
                    f"{e.func} expects {arity} argument(s), got {len(e.args)}",
                    stmt,
                )
            for a in e.args:
                self.check_expr(a, defined, stmt)
            return
        self.fail(f"unknown expression node {type(e).__name__}", stmt)

    # -- statements ---------------------------------------------------------
    def check_block(self, block: Block, defined: set[str]) -> set[str]:
        """Check one block; returns the names it defines (lenient: branch
        and loop definitions propagate, since lowering initialises
        accumulators before the loops that read them)."""
        for s in block.stmts:
            if isinstance(s, Comment):
                continue
            elif isinstance(s, Alloc):
                if s.name in self.alloc_names:
                    self.fail(f"duplicate allocation of {s.name!r}", s)
                self.alloc_names.add(s.name)
                for e in s.exprs():
                    self.check_expr(e, defined, s)
                defined.add(s.name)
            elif isinstance(s, Assign):
                self.check_expr(s.value, defined, s)
                self.assign_counts[s.target] = (
                    self.assign_counts.get(s.target, 0) + 1
                )
                defined.add(s.target)
            elif isinstance(s, AugAssign):
                if s.op not in _AUG_OPS:
                    self.fail(
                        f"unsupported accumulator operator {s.op!r}", s
                    )
                if (s.target not in defined
                        and not _is_external(s.target, self.fn.params)):
                    self.fail(
                        f"accumulator update of undefined target "
                        f"{s.target!r}", s,
                    )
                if s.index is not None and not s.target.startswith("storage"):
                    self.fail(
                        "indexed accumulator update must target injected "
                        f"storage, not {s.target!r}", s,
                    )
                self.aug_targets.add(s.target)
                for e in s.exprs():
                    self.check_expr(e, defined, s)
            elif isinstance(s, StoreStmt):
                if (s.array not in defined
                        and not _is_external(s.array, self.fn.params)):
                    self.fail(f"store into undefined array {s.array!r}", s)
                for e in s.exprs():
                    self.check_expr(e, defined, s)
            elif isinstance(s, CallStmt):
                if s.func not in KNOWN_FUNCS:
                    self.fail(f"call of unknown function {s.func!r}", s)
                arity = KNOWN_FUNCS[s.func]
                if arity is not None and len(s.args) != arity:
                    self.fail(
                        f"{s.func} expects {arity} argument(s), "
                        f"got {len(s.args)}", s,
                    )
                for a in s.args:
                    self.check_expr(a, defined, s)
            elif isinstance(s, ReturnStmt):
                if s.value is not None:
                    self.check_expr(s.value, defined, s)
            elif isinstance(s, For):
                self.check_expr(s.start, defined, s)
                self.check_expr(s.end, defined, s)
                inner = set(defined) | {s.var}
                self.check_block(s.body, inner)
                defined |= inner
            elif isinstance(s, IfStmt):
                self.check_expr(s.cond, defined, s)
                then_defs = set(defined)
                self.check_block(s.then, then_defs)
                else_defs = set(defined)
                if s.orelse is not None:
                    self.check_block(s.orelse, else_defs)
                defined |= then_defs | else_defs
            else:
                self.fail(f"unknown statement type {type(s).__name__}", s)
        return defined

    def check(self):
        if not isinstance(self.fn.body, Block):
            self.fail("function body is not a Block")
        self.check_block(self.fn.body, set())
        # SSA-style single definition for compiler-generated temporaries.
        for name, count in self.assign_counts.items():
            if _TEMP_RE.match(name) and count != 1:
                self.fail(
                    f"compiler temporary {name!r} assigned {count} times "
                    "(single definition required)"
                )
        for name in self.aug_targets:
            if _TEMP_RE.match(name):
                self.fail(
                    f"compiler temporary {name!r} used as an accumulator"
                )


def verify_function(fn: IRFunction, flattened: bool = False):
    """Verify one IR function; raises :class:`IRVerificationError`."""
    _FunctionChecker(fn, flattened).check()


def verify_program(program: IRProgram, pass_name: str | None = None):
    """Verify every function of *program*, attributing failures to
    *pass_name* (the pass that produced this IR)."""
    if not isinstance(program, IRProgram) or not program.functions:
        raise IRVerificationError(
            "pass did not return a non-empty IRProgram", pass_name=pass_name
        )
    flattened = bool(program.meta.get("flattened"))
    for fn in program.functions.values():
        try:
            verify_function(fn, flattened=flattened)
        except IRVerificationError as err:
            raise IRVerificationError(
                # Re-raise with the pass attached, preserving location.
                err.message,
                pass_name=pass_name, function=err.function, stmt=err.stmt,
            ) from None
