"""Tests for the optimisation passes: flattening, numerical optimisation,
strength reduction, constant folding, DCE, and the pass manager."""

import numpy as np
import pytest

from repro.dsl.expr import BinOp, Const
from repro.ir.flattening import flatten
from repro.ir.nodes import (
    Alloc, Assign, Block, Comment, IRCall, IRFunction, IRProgram, LoadExpr,
    ReturnStmt, StoreStmt, SymRef,
)
from repro.ir.numerical_opt import numerical_optimize
from repro.ir.passes import PassManager, constant_fold, dead_code_eliminate
from repro.ir.strength_reduction import reduce_expr, strength_reduce


def prog_of(stmts, name="F"):
    return IRProgram({name: IRFunction(name, (), Block(stmts))})


class TestFlattening:
    def test_two_index_load_flattened(self):
        p = prog_of([Assign("x", LoadExpr("a", (SymRef("i"), SymRef("d"))))])
        out = flatten(p)
        load = next(
            e for s in out["F"].body.walk() for expr in s.exprs()
            for e in expr.walk() if isinstance(e, LoadExpr)
        )
        assert len(load.indices) == 1
        names = {n.name for n in load.indices[0].walk() if isinstance(n, SymRef)}
        assert {"a.stride0", "a.stride1", "i", "d"} <= names

    def test_single_index_untouched(self):
        p = prog_of([Assign("x", LoadExpr("a", (SymRef("i"),)))])
        out = flatten(p)
        load = next(
            e for s in out["F"].body.walk() for expr in s.exprs()
            for e in expr.walk() if isinstance(e, LoadExpr)
        )
        assert load.indices == (SymRef("i"),)

    def test_store_flattened(self):
        p = prog_of([StoreStmt("a", (SymRef("i"), SymRef("d")), Const(1.0))])
        out = flatten(p)
        st = next(s for s in out["F"].body.walk() if isinstance(s, StoreStmt))
        assert len(st.indices) == 1

    def test_flattened_semantics_preserved(self):
        # load(a, i, d) over (3,4) row-major == load(flat, i*4+d).
        arr = np.arange(12.0).reshape(3, 4)
        e2d = LoadExpr("a", (Const(2.0), Const(1.0)))
        p = prog_of([Assign("x", e2d)])
        out = flatten(p)
        load = next(
            e for s in out["F"].body.walk() for expr in s.exprs()
            for e in expr.walk() if isinstance(e, LoadExpr)
        )
        env = {"a": arr.ravel(), "a.stride0": 4, "a.stride1": 1}
        assert load.evaluate(env) == arr[2, 1]


class TestNumericalOptimization:
    def _maha_prog(self):
        return prog_of([
            Assign("y", IRCall("point_diff",
                               (SymRef("Q"), SymRef("q"), SymRef("R"),
                                SymRef("r")))),
            Assign("t", IRCall("mahalanobis", (SymRef("y"), SymRef("Sigma")))),
            ReturnStmt(SymRef("t")),
        ])

    def test_mahalanobis_rewritten(self):
        out = numerical_optimize(self._maha_prog())
        funcs = [e.func for s in out["F"].body.walk() for expr in s.exprs()
                 for e in expr.walk() if isinstance(e, IRCall)]
        assert "mahalanobis" not in funcs
        assert "cholesky" in funcs and "forward_sub" in funcs and "dot" in funcs

    def test_cholesky_hoisted_to_entry(self):
        out = numerical_optimize(self._maha_prog())
        non_comment = [s for s in out["F"].body.stmts
                       if not isinstance(s, Comment)]
        first = non_comment[0]
        assert isinstance(first, Assign) and first.target == "L_Sigma"

    def test_meta_flag_set(self):
        out = numerical_optimize(self._maha_prog())
        assert out.meta["numerical_optimized"] is True

    def test_no_mahalanobis_no_change(self):
        p = prog_of([Assign("x", Const(1.0))])
        out = numerical_optimize(p)
        assert out.meta["numerical_optimized"] is False

    def test_semantics_preserved(self):
        """Interpreting pre- and post-pass IR gives the same Mahalanobis value."""
        from repro.ir.nodes import IR_FUNCS, _register_ir_funcs

        if not IR_FUNCS:
            _register_ir_funcs()
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        Sigma = A @ A.T + np.eye(3)
        Q = rng.normal(size=(2, 3))
        R = rng.normal(size=(2, 3))
        env = {
            "Q": Q, "R": R, "q": 0, "r": 1, "Sigma": Sigma,
            "point_diff": lambda Qa, i, Ra, j: Qa[int(i)] - Ra[int(j)],
        }
        from repro.backend.interp import interpret_function

        before = interpret_function(self._maha_prog()["F"], dict(env))
        after = interpret_function(
            numerical_optimize(self._maha_prog())["F"], dict(env)
        )
        assert before == pytest.approx(after, rel=1e-10)


class TestStrengthReduction:
    def test_pow2_becomes_multiply(self):
        e = IRCall("pow", (SymRef("x"), Const(2.0)))
        out = reduce_expr(e)
        assert repr(out) == "(x * x)"

    def test_pow3_becomes_chain(self):
        out = reduce_expr(IRCall("pow", (SymRef("x"), Const(3.0))))
        assert repr(out) == "((x * x) * x)"

    def test_pow4_binary_exponentiation(self):
        out = reduce_expr(IRCall("pow", (SymRef("x"), Const(4.0))))
        assert repr(out) == "((x * x) * (x * x))"
        # The square is one shared sub-tree object, not a duplicated copy:
        # the emitter's value numbering materialises it once.
        assert out.lhs is out.rhs

    def test_pow8_two_squarings(self):
        out = reduce_expr(IRCall("pow", (SymRef("x"), Const(8.0))))
        assert out.lhs is out.rhs and out.lhs.lhs is out.lhs.rhs

    def test_pow9_kept(self):
        out = reduce_expr(IRCall("pow", (SymRef("x"), Const(9.0))))
        assert isinstance(out, IRCall) and out.func == "pow"

    def test_pow1_is_operand(self):
        out = reduce_expr(IRCall("pow", (SymRef("x"), Const(1.0))))
        assert out == SymRef("x")

    def test_statement_pass_hoists_shared_operand(self):
        # pow(load-load, 2) in statement context: the operand is
        # materialised once into an sr temporary, not duplicated.
        from repro.ir.nodes import LoadExpr

        diff = BinOp("-", LoadExpr("a", (SymRef("i"),)),
                     LoadExpr("b", (SymRef("i"),)))
        p = prog_of([Assign("storage0", IRCall("pow", (diff, Const(2.0))))])
        out = strength_reduce(p)
        stmts = out["F"].body.stmts
        assert len(stmts) == 2
        assert stmts[0].target.startswith("sr")
        assert repr(stmts[1].value).count("load") == 0

    def test_pow_dist4_node_count_pinned(self):
        # Regression: pow(dist, 4) through the full pipeline.  The square
        # is hoisted once (`sr1 = dist * dist; out = sr1 * sr1`) — the old
        # expansion duplicated the operand tree per factor.  Pinning the
        # node mass keeps the duplication from silently reappearing.
        from repro.ir.nodes import LoadExpr

        dist = Assign(
            "dist",
            IRCall("sqrt", (BinOp("-", LoadExpr("a", (SymRef("i"),)),
                                  LoadExpr("b", (SymRef("i"),))),)),
        )
        p = IRProgram({"F": IRFunction("F", ("a", "b", "i"), Block([
            dist,
            Assign("storage0", IRCall("pow", (SymRef("dist"), Const(4.0)))),
        ]))})
        pm = PassManager(verify=True)
        out = pm.run(p)
        nodes = sum(1 for s in out["F"].body.walk()
                    for ex in s.exprs() for _ in ex.walk())
        assert nodes == 12
        assert repr(out["F"].body.stmts[-1].value).count("load") == 0

    def test_pow0_is_one(self):
        assert reduce_expr(IRCall("pow", (SymRef("x"), Const(0.0)))) == Const(1.0)

    def test_fractional_exponent_kept(self):
        out = reduce_expr(IRCall("pow", (SymRef("x"), Const(2.5))))
        assert isinstance(out, IRCall)

    def test_sqrt_becomes_safe_finvsqrt_form(self):
        # The paper's sqrt -> 1/fast_inverse_sqrt rewrite is not carried
        # over (DESIGN.md S7): sqrt stays the exact call.
        out = reduce_expr(IRCall("sqrt", (SymRef("x"),)))
        assert repr(out) == "sqrt(x)"

    def test_reciprocal_sqrt_direct(self):
        e = BinOp("/", Const(1.0), IRCall("sqrt", (SymRef("x"),)))
        out = reduce_expr(e)
        assert repr(out) == "(1 / sqrt(x))"

    def test_fastmath_off_keeps_sqrt(self):
        out = reduce_expr(IRCall("sqrt", (SymRef("x"),)))
        assert isinstance(out, IRCall) and out.func == "sqrt"

    def test_pow_reduction_exact_even_without_fastmath(self):
        out = reduce_expr(IRCall("pow", (SymRef("x"), Const(2.0))))
        assert repr(out) == "(x * x)"

    def test_program_pass_sets_meta(self):
        p = prog_of([Assign("x", IRCall("sqrt", (Const(4.0),)))])
        out = strength_reduce(p)
        assert out.meta["strength_reduced"] and "fastmath" not in out.meta

    def test_value_preserved_approximately(self):
        # Every rewrite is exact: the reduced form evaluates bit-equal.
        e = IRCall("sqrt", (Const(2.0),))
        exact = e.evaluate({})
        fast = reduce_expr(e).evaluate({})
        assert fast == exact

    def test_zero_gives_zero_not_nan(self):
        out = reduce_expr(IRCall("sqrt", (Const(0.0),)))
        v = out.evaluate({})
        assert v == 0.0 and not np.isnan(v)


class TestStandardPasses:
    def test_constant_fold_arithmetic(self):
        p = prog_of([Assign("x", BinOp("+", Const(2.0), Const(3.0)))])
        out = constant_fold(p)
        assert out["F"].body.stmts[0].value == Const(5.0)

    def test_identity_mul_one(self):
        p = prog_of([Assign("x", BinOp("*", SymRef("y"), Const(1.0)))])
        assert constant_fold(p)["F"].body.stmts[0].value == SymRef("y")

    def test_identity_add_zero(self):
        p = prog_of([Assign("x", BinOp("+", Const(0.0), SymRef("y")))])
        assert constant_fold(p)["F"].body.stmts[0].value == SymRef("y")

    def test_fold_call(self):
        p = prog_of([Assign("x", IRCall("sqrt", (Const(16.0),)))])
        assert constant_fold(p)["F"].body.stmts[0].value == Const(4.0)

    def test_dce_drops_unused_assign(self):
        p = prog_of([
            Assign("unused", Const(1.0)),
            Assign("storage0", Const(2.0)),
        ])
        out = dead_code_eliminate(p)
        targets = [s.target for s in out["F"].body.stmts]
        assert targets == ["storage0"]

    def test_dce_keeps_used(self):
        p = prog_of([
            Assign("a", Const(1.0)),
            Assign("storage0", SymRef("a")),
        ])
        out = dead_code_eliminate(p)
        assert len(out["F"].body.stmts) == 2

    def test_dce_keeps_array_allocs(self):
        p = prog_of([Alloc("buf", size=Const(8.0))])
        out = dead_code_eliminate(p)
        assert len(out["F"].body.stmts) == 1


def _fold_one(e):
    return constant_fold(prog_of([Assign("x", e)]))["F"].body.stmts[0].value


class TestFoldMatchesNumPy:
    """Constants fold to what the emitted float64 NumPy code computes, and
    only to a finite real; anything else is left for runtime."""

    @pytest.mark.parametrize("e", [
        BinOp("**", Const(-8.0), Const(0.5)),
        IRCall("pow", (Const(-8.0), Const(0.5))),
        BinOp("/", Const(-1.0), Const(0.0)),
        BinOp("/", Const(1.0), Const(0.0)),
        BinOp("/", Const(0.0), Const(0.0)),
        BinOp("*", Const(1e308), Const(10.0)),
        IRCall("sqrt", (Const(-1.0),)),
        IRCall("log", (Const(0.0),)),
        IRCall("exp", (Const(1000.0),)),
    ], ids=repr)
    def test_non_finite_left_for_runtime(self, e):
        out = _fold_one(e)
        assert not isinstance(out, Const) and repr(out) == repr(e)

    @pytest.mark.parametrize("e, numpy_value", [
        (BinOp("/", Const(1.0), Const(3.0)), np.float64(1.0) / 3.0),
        (BinOp("**", Const(2.0), Const(0.5)), np.power(2.0, 0.5)),
        (IRCall("exp", (Const(1.0),)), np.exp(1.0)),
        (IRCall("log", (Const(10.0),)), np.log(10.0)),
        (IRCall("pow", (Const(-8.0), Const(3.0))), -512.0),
        (IRCall("min", (Const(2.0), Const(-3.0))), -3.0),
    ], ids=["div", "power", "exp", "log", "pow-call", "min"])
    def test_finite_folds_to_numpy_value(self, e, numpy_value):
        out = _fold_one(e)
        assert isinstance(out, Const) and type(out.value) is float
        assert out.value == float(numpy_value)

    @pytest.mark.parametrize("e", [
        BinOp("*", SymRef("x"), Const(0.0)),
        BinOp("/", Const(0.0), SymRef("x")),
        BinOp("-", SymRef("x"), SymRef("x")),
        BinOp("/", SymRef("x"), SymRef("x")),
        IRCall("exp", (IRCall("log", (SymRef("x"),)),)),
        IRCall("log", (IRCall("exp", (SymRef("x"),)),)),
        IRCall("sqrt", (IRCall("pow", (SymRef("x"), Const(2.0))),)),
        IRCall("pow", (IRCall("sqrt", (SymRef("x"),)), Const(2.0))),
    ], ids=repr)
    def test_value_changing_identities_not_applied(self, e):
        # Each would hide a NaN/Inf or change overflow behaviour.
        from repro.ir.simplify import simplify

        out = simplify(prog_of([Assign("x", e)]))["F"].body.stmts[0].value
        assert repr(out) == repr(e)


class TestPassManager:
    def test_all_stages_recorded(self):
        pm = PassManager()
        p = prog_of([Assign("storage0", IRCall("sqrt",
                                               (IRCall("pow", (SymRef("x"),
                                                               Const(2.0))),)))])
        pm.run(p)
        from repro.ir.passes import PIPELINE_STAGES

        assert set(PIPELINE_STAGES) <= set(pm.snapshots)

    def test_unknown_stage_rejected(self):
        pm = PassManager()
        pm.run(prog_of([Assign("storage0", Const(1.0))]))
        with pytest.raises(KeyError):
            pm.stage("nope")

    def test_stages_are_distinct_objects(self):
        pm = PassManager()
        pm.run(prog_of([Assign("storage0",
                               IRCall("sqrt", (SymRef("x"),)))]))
        assert pm.stage("lowered") is not pm.stage("final")
