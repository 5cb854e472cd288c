"""Portal IR interpreter: the scalar reference executor.

Executes IR functions statement by statement with Python/NumPy scalars.
It is deliberately slow and simple — its job is to pin down the *semantics*
of the IR so that

* every optimisation pass can be tested for semantic preservation
  (interpreting the IR before and after a pass gives identical results),
* the vectorised backend can be validated against an independent
  execution path of the very same IR.

It also powers the ``backend='interp'`` execution mode for small inputs.
"""

from __future__ import annotations

import numpy as np

from ..dsl.errors import ExecutionError
from ..ir.nodes import (
    Alloc, Assign, AugAssign, Block, CallStmt, Comment, For, IfStmt,
    IRFunction, ReturnStmt, Stmt, StoreStmt, SymRef,
)
from ..observe import span

__all__ = ["interpret_function", "base_case_env", "LocatedExecutionError"]


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class LocatedExecutionError(ExecutionError):
    """Execution failure annotated with the IR statement that raised it.

    Interpreting an IR program that references an unbound symbol or an
    unknown function fails here with the offending statement rendered in
    the message — the runtime counterpart of the structural verifier's
    located :class:`~repro.ir.verify.IRVerificationError`.
    """

    def __init__(self, detail: str, stmt_src: str, function: str | None = None):
        self.detail = detail
        self.stmt_src = stmt_src
        self.function = function
        where = f" in function {function!r}" if function else ""
        super().__init__(
            f"interpreter: {detail}{where} at `{stmt_src}`"
        )


def _sorted_insert(vals: np.ndarray, args: np.ndarray | None,
                   v: float, a: float, ascending: bool) -> None:
    """Maintain the ordered k-array of section IV-F."""
    k = len(vals)
    worst = vals[k - 1]
    if ascending:
        if not v < worst and not np.isinf(worst):
            return
        pos = int(np.searchsorted(vals, v, side="right"))
    else:
        if not v > worst and not np.isinf(worst):
            return
        pos = int(np.searchsorted(-vals, -v, side="right"))
    if pos >= k:
        return
    vals[pos + 1:] = vals[pos:k - 1]
    vals[pos] = v
    if args is not None:
        args[pos + 1:] = args[pos:k - 1]
        args[pos] = a


def _exec_call(stmt: CallStmt, env: dict) -> None:
    name = stmt.func
    if name == "sorted_insert_asc":
        s1, s1a, kv, rv = stmt.args
        _sorted_insert(s1.evaluate(env), env.get("storage1_arg"),
                       float(kv.evaluate(env)), float(rv.evaluate(env)), True)
    elif name == "sorted_insert_desc":
        s1, s1a, kv, rv = stmt.args
        _sorted_insert(s1.evaluate(env), env.get("storage1_arg"),
                       float(kv.evaluate(env)), float(rv.evaluate(env)), False)
    elif name == "append":
        target, value = stmt.args
        target.evaluate(env).append(value.evaluate(env))
    elif name == "append_range":
        target, q, lo, hi = stmt.args
        arr = target.evaluate(env)
        arr.setdefault(int(q.evaluate(env)), []).extend(
            range(int(lo.evaluate(env)), int(hi.evaluate(env)))
        )
    elif name == "store_row":
        target, q, row = stmt.args
        assert isinstance(target, SymRef)
        rows = env.setdefault(f"{target.name}_rows", {})
        value = row.evaluate(env)
        rows[int(q.evaluate(env))] = (
            value.copy() if isinstance(value, np.ndarray) else list(value)
        )
    else:
        raise ExecutionError(f"interpreter: unknown call {name!r}")


def _exec_stmt(stmt: Stmt, env: dict) -> None:
    if isinstance(stmt, Comment):
        return
    if isinstance(stmt, Alloc):
        if stmt.size is None:
            env[stmt.name] = (
                float(stmt.init.evaluate(env)) if stmt.init is not None else 0.0
            )
        elif isinstance(stmt.size, SymRef) and stmt.size.name == "dynamic":
            env[stmt.name] = []
        else:
            n = int(stmt.size.evaluate(env))
            fill = float(stmt.init.evaluate(env)) if stmt.init is not None else 0.0
            env[stmt.name] = np.full(n, fill)
        return
    if isinstance(stmt, For):
        lo = int(stmt.start.evaluate(env))
        hi = int(stmt.end.evaluate(env))
        for i in range(lo, hi):
            env[stmt.var] = i
            _exec_block(stmt.body, env)
        return
    if isinstance(stmt, Assign):
        env[stmt.target] = stmt.value.evaluate(env)
        return
    if isinstance(stmt, AugAssign):
        v = stmt.value.evaluate(env)
        if stmt.index is not None:
            idx = int(stmt.index.evaluate(env))
            arr = env[stmt.target]
            arr[idx] = arr[idx] + v if stmt.op == "+" else arr[idx] * v
        else:
            cur = env[stmt.target]
            env[stmt.target] = cur + v if stmt.op == "+" else cur * v
        return
    if isinstance(stmt, StoreStmt):
        arr = env[stmt.array]
        idx = tuple(int(i.evaluate(env)) for i in stmt.indices)
        arr[idx if len(idx) > 1 else idx[0]] = stmt.value.evaluate(env)
        return
    if isinstance(stmt, IfStmt):
        if float(stmt.cond.evaluate(env)) != 0.0:
            _exec_block(stmt.then, env)
        elif stmt.orelse is not None:
            _exec_block(stmt.orelse, env)
        return
    if isinstance(stmt, CallStmt):
        _exec_call(stmt, env)
        return
    if isinstance(stmt, ReturnStmt):
        raise _Return(
            None if stmt.value is None else stmt.value.evaluate(env)
        )
    raise ExecutionError(f"interpreter: unknown statement {type(stmt).__name__}")


def _exec_block(block: Block, env: dict) -> None:
    for s in block.stmts:
        try:
            _exec_stmt(s, env)
        except (_Return, LocatedExecutionError):
            raise
        except (KeyError, ExecutionError) as err:
            # Locate the failure at the innermost statement; outer blocks
            # re-raise unchanged.  (KeyError: an unbound symbol or array.)
            from ..ir.printer import render_stmt

            detail = (f"unbound name {err.args[0]!r}"
                      if isinstance(err, KeyError) and err.args
                      else str(err).removeprefix("interpreter: "))
            raise LocatedExecutionError(detail, render_stmt(s)) from err


def interpret_function(fn: IRFunction, env: dict):
    """Execute an IR function.  Returns the explicit return value if the
    function returns one, else the mutated environment."""
    with span("interp.function", function=fn.name):
        try:
            _exec_block(fn.body, env)
        except _Return as r:
            return r.value
        except LocatedExecutionError as err:
            if err.function is None:
                raise LocatedExecutionError(
                    err.detail, err.stmt_src, fn.name
                ) from err.__cause__
            raise
        return env


def base_case_env(
    qname: str, rname: str, qdata: np.ndarray, rdata: np.ndarray,
    extra: dict | None = None,
) -> dict:
    """Build the interpreter environment for a BaseCase/BruteForce run on
    *flattened* IR: 1-D raveled row-major arrays plus their symbolic
    strides (paper section IV-C)."""
    nq, dim = qdata.shape
    nr = rdata.shape[0]
    env: dict = {
        f"{qname}.start": 0, f"{qname}.end": nq, f"{qname}.size": nq,
        f"{rname}.start": 0, f"{rname}.end": nr, f"{rname}.size": nr,
        "dim": dim,
    }
    for prefix, data in ((qname, qdata), (rname, rdata)):
        env[f"{prefix}_data"] = data.ravel()
        env[f"{prefix}_data.stride0"] = data.shape[1]
        env[f"{prefix}_data.stride1"] = 1
        # Row-major 2-D view for vector IR functions (point_diff).
        env[f"{prefix}_rows"] = data
    # point_diff works on the 2-D views regardless of flattening.
    from ..ir.nodes import IR_FUNCS, _register_ir_funcs

    if not IR_FUNCS:
        _register_ir_funcs()
    env["point_diff"] = lambda Q, i, R, j: Q[int(i)] - R[int(j)]
    env[f"{qname}_data_rows"] = qdata
    env[f"{rname}_data_rows"] = rdata
    if extra:
        env.update(extra)
    return env
