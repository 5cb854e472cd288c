"""Tests for IR node mechanics (expressions, statements, rewriting)."""

import numpy as np
import pytest

from repro.dsl.expr import BinOp, Const
from repro.ir.nodes import (
    Alloc, Assign, AugAssign, Block, For, IfStmt, IRCall, IRFunction,
    IRProgram, LoadExpr, ReturnStmt, StoreStmt, SymRef,
)
from repro.dsl.expr import Indicator


class TestExprLeaves:
    def test_symref_evaluates_from_env(self):
        assert SymRef("x").evaluate({"x": 4.0}) == 4.0

    def test_load_single_index(self):
        arr = np.arange(10.0)
        e = LoadExpr("a", (Const(3.0),))
        assert e.evaluate({"a": arr}) == 3.0

    def test_load_multi_index(self):
        arr = np.arange(12.0).reshape(3, 4)
        e = LoadExpr("a", (Const(1.0), Const(2.0)))
        assert e.evaluate({"a": arr}) == 6.0

    def test_ircall_builtin(self):
        e = IRCall("sqrt", (Const(9.0),))
        assert e.evaluate({}) == 3.0

    def test_ircall_pow(self):
        e = IRCall("pow", (Const(2.0), Const(5.0)))
        assert e.evaluate({}) == 32.0

    def test_ircall_fast_inverse_sqrt(self):
        # No pass emits it any more, so the interpreter has no entry.
        e = IRCall("fast_inverse_sqrt", (Const(4.0),))
        with pytest.raises(KeyError):
            e.evaluate({})

    def test_ircall_env_function(self):
        e = IRCall("mystery", (Const(2.0),))
        assert e.evaluate({"mystery": lambda x: x * 10}) == 20.0

    def test_ircall_unknown_raises(self):
        with pytest.raises(KeyError):
            IRCall("nope", ()).evaluate({})

    def test_cholesky_forward_sub(self):
        S = np.array([[4.0, 0.0], [0.0, 9.0]])
        L = IRCall("cholesky", (SymRef("S"),)).evaluate({"S": S})
        assert np.allclose(L, [[2, 0], [0, 3]])
        y = IRCall("forward_sub", (SymRef("L"), SymRef("y"))).evaluate(
            {"L": L, "y": np.array([2.0, 3.0])})
        assert np.allclose(y, [1.0, 1.0])

    def test_mahalanobis_reference(self):
        S = np.eye(2) * 4.0
        y = np.array([2.0, 0.0])
        v = IRCall("mahalanobis", (SymRef("y"), SymRef("S"))).evaluate(
            {"y": y, "S": S})
        assert v == pytest.approx(1.0)


class TestStatementRewriting:
    def _fn(self):
        body = Block([
            Alloc("t", init=Const(0.0)),
            For("d", Const(0), SymRef("dim"), Block([
                AugAssign("t", "+", IRCall("pow", (SymRef("x"), Const(2.0)))),
            ])),
            Assign("out", SymRef("t")),
            ReturnStmt(SymRef("out")),
        ])
        return IRFunction("f", (), body)

    def test_map_exprs_recurses_into_loops(self):
        fn = self._fn()
        seen = []

        def spy(e):
            seen.append(type(e).__name__)
            return e

        fn.map_exprs(spy)
        assert "IRCall" in seen

    def test_map_exprs_rewrites(self):
        fn = self._fn()
        out = fn.map_exprs(
            lambda e: Const(7.0) if isinstance(e, IRCall) else e
        )
        loop = out.body.stmts[1]
        assert isinstance(loop.body.stmts[0].value, Const)

    def test_map_stmts_drop(self):
        fn = self._fn()
        out = fn.map_stmts(lambda s: None if isinstance(s, Assign) else s)
        assert not any(isinstance(s, Assign) for s in out.body.walk())

    def test_map_stmts_splice(self):
        fn = self._fn()
        out = fn.map_stmts(
            lambda s: [s, s] if isinstance(s, Assign) else s
        )
        assert sum(isinstance(s, Assign) for s in out.body.walk()) == 2

    def test_walk_covers_nested(self):
        fn = self._fn()
        kinds = {type(s).__name__ for s in fn.body.walk()}
        assert {"Alloc", "For", "AugAssign", "Assign", "ReturnStmt"} <= kinds

    def test_if_blocks_mapped(self):
        st = IfStmt(Indicator("<", SymRef("a"), Const(1.0)),
                    Block([Assign("x", Const(1.0))]),
                    Block([Assign("x", Const(2.0))]))
        out = st.map_exprs(lambda e: e)
        assert out.orelse is not None

    def test_program_getitem(self):
        fn = self._fn()
        prog = IRProgram({"f": fn})
        assert prog["f"] is fn

    def test_store_stmt_exprs(self):
        st = StoreStmt("a", (Const(0.0),), SymRef("v"))
        assert len(st.exprs()) == 2
