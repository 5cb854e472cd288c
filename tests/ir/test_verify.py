"""Tests for the structural IR verifier and its pass-manager wiring,
including the "deliberately broken pass" drill: a mutated pass must be
caught immediately and attributed by name."""

import numpy as np
import pytest

from repro.dsl.expr import BinOp, Const, DimReduce, Var
from repro.ir import passes as passes_mod
from repro.ir.nodes import (
    Alloc, Assign, AugAssign, Block, CallStmt, For, IfStmt, IRCall,
    IRFunction, IRProgram, LoadExpr, ReturnStmt, StoreStmt, SymRef,
)
from repro.ir.passes import PassManager
from repro.ir.verify import (
    IRVerificationError, verify_function, verify_program,
)


def fn_of(stmts, params=(), name="F"):
    return IRFunction(name, tuple(params), Block(list(stmts)))


def prog_of(stmts, params=(), **meta):
    p = IRProgram({"F": fn_of(stmts, params)})
    p.meta.update(meta)
    return p


class TestExpressionChecks:
    def test_clean_function_passes(self):
        verify_function(fn_of([
            Alloc("t", init=Const(0.0)),
            Assign("x", BinOp("+", SymRef("t"), Const(1.0))),
            ReturnStmt(SymRef("x")),
        ]))

    def test_frontend_node_rejected(self):
        with pytest.raises(IRVerificationError, match="frontend node Var"):
            verify_function(fn_of([Assign("x", Var("q"))]))

    def test_frontend_dimreduce_rejected(self):
        e = DimReduce("+", Var("q") - Var("r"))
        with pytest.raises(IRVerificationError,
                           match="frontend node DimReduce"):
            verify_function(fn_of([Assign("x", e)]))

    def test_dangling_symref_rejected(self):
        with pytest.raises(IRVerificationError, match="dangling reference"):
            verify_function(fn_of([Assign("x", SymRef("ghost"))]))

    def test_param_reference_allowed(self):
        verify_function(fn_of([Assign("x", SymRef("p"))], params=("p",)))

    def test_external_names_allowed(self):
        verify_function(fn_of([
            Assign("x", LoadExpr("query_data", (SymRef("dim"),))),
        ]))

    def test_unknown_func_rejected(self):
        with pytest.raises(IRVerificationError, match="unknown IR function"):
            verify_function(fn_of([Assign("x", IRCall("mystery", ()))]))

    def test_wrong_arity_rejected(self):
        with pytest.raises(IRVerificationError, match="expects 1 argument"):
            verify_function(fn_of([
                Assign("x", IRCall("sqrt", (Const(1.0), Const(2.0)))),
            ]))

    def test_illegal_binop_rejected(self):
        with pytest.raises(IRVerificationError, match="illegal binary"):
            verify_function(fn_of([
                Assign("x", BinOp("%", Const(1.0), Const(2.0))),
            ]))

    def test_indexless_load_rejected(self):
        with pytest.raises(IRVerificationError, match="no index"):
            verify_function(fn_of([Assign("x", LoadExpr("a_data", ()))]))

    def test_multi_index_load_rejected_after_flattening(self):
        load = LoadExpr("a_data", (Const(0.0), Const(1.0)))
        verify_function(fn_of([Assign("x", load)]), flattened=False)
        with pytest.raises(IRVerificationError, match="after flattening"):
            verify_function(fn_of([Assign("x", load)]), flattened=True)


class TestStatementChecks:
    def test_duplicate_alloc_rejected(self):
        with pytest.raises(IRVerificationError, match="duplicate allocation"):
            verify_function(fn_of([
                Alloc("t", init=Const(0.0)),
                Alloc("t", init=Const(0.0)),
            ]))

    def test_augassign_undefined_target_rejected(self):
        with pytest.raises(IRVerificationError, match="undefined target"):
            verify_function(fn_of([AugAssign("acc", "+", Const(1.0))]))

    def test_augassign_bad_op_rejected(self):
        with pytest.raises(IRVerificationError, match="accumulator operator"):
            verify_function(fn_of([
                Alloc("acc", init=Const(0.0)),
                AugAssign("acc", "-", Const(1.0)),
            ]))

    def test_indexed_augassign_must_target_storage(self):
        with pytest.raises(IRVerificationError, match="injected storage"):
            verify_function(fn_of([
                Alloc("buf", size=Const(4.0)),
                AugAssign("buf", "+", Const(1.0), index=Const(0.0)),
            ]))

    def test_loop_var_defined_in_body(self):
        verify_function(fn_of([
            Alloc("acc", init=Const(0.0)),
            For("i", Const(0.0), SymRef("dim"), Block([
                AugAssign("acc", "+", SymRef("i")),
            ])),
        ]))

    def test_sr_temp_single_assignment(self):
        with pytest.raises(IRVerificationError, match="single definition"):
            verify_function(fn_of([
                Assign("sr1", Const(1.0)),
                Assign("sr1", Const(2.0)),
            ]))

    def test_cse_temp_never_accumulated(self):
        with pytest.raises(IRVerificationError, match="as an accumulator"):
            verify_function(fn_of([
                Assign("cse1", Const(1.0)),
                AugAssign("cse1", "+", Const(1.0)),
            ]))

    def test_callstmt_arity_checked(self):
        with pytest.raises(IRVerificationError, match="expects 2"):
            verify_function(fn_of([
                CallStmt("append", (SymRef("storage0"),)),
            ]))

    def test_store_into_undefined_array_rejected(self):
        with pytest.raises(IRVerificationError, match="undefined array"):
            verify_function(fn_of([
                StoreStmt("out", (Const(0.0),), Const(1.0)),
            ]))

    def test_branch_definitions_propagate(self):
        # Lenient union semantics: lowering initialises accumulators
        # before the branches that read them.
        verify_function(fn_of([
            Alloc("kval", init=Const(0.0)),
            IfStmt(Const(1.0), Block([Assign("x", Const(2.0))])),
            Assign("y", SymRef("x")),
        ]))


class TestVerifyProgram:
    def test_error_carries_location(self):
        with pytest.raises(IRVerificationError) as exc:
            verify_program(prog_of([Assign("x", SymRef("ghost"))]),
                           pass_name="cse")
        err = exc.value
        assert err.pass_name == "cse"
        assert err.function == "F"
        assert "ghost" in err.message
        assert "x = ghost" in err.stmt
        assert "after pass 'cse'" in str(err)

    def test_non_program_rejected(self):
        with pytest.raises(IRVerificationError, match="non-empty IRProgram"):
            verify_program(IRProgram({}), pass_name="dce")

    def test_flattened_meta_tightens_load_check(self):
        load = LoadExpr("a_data", (Const(0.0), Const(1.0)))
        verify_program(prog_of([Assign("x", load)]))
        with pytest.raises(IRVerificationError, match="after flattening"):
            verify_program(prog_of([Assign("x", load)], flattened=True))


def _kde_expr():
    from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage

    rng = np.random.default_rng(7)
    e = PortalExpr("kde")
    e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(25, 3)),
                                        name="query"))
    e.addLayer(PortalOp.SUM, Storage(rng.normal(size=(30, 3)),
                                     name="reference"),
               PortalFunc.GAUSSIAN, bandwidth=1.0)
    e.validate()
    return e


class TestBrokenPassDrill:
    """Inject a deliberately broken pass and check the verifier catches
    it immediately and attributes it to the right pass name."""

    def test_broken_cse_attributed(self, monkeypatch):
        real_cse = passes_mod.common_subexpression_eliminate

        def broken_cse(program):
            # Reference every cse temp but "forget" its definition — the
            # classic dropped-assignment footprint.
            good = real_cse(program)

            def drop_cse_defs(s):
                if isinstance(s, Assign) and s.target.startswith("cse"):
                    return None
                return s

            return IRProgram(
                {n: f.map_stmts(drop_cse_defs)
                 for n, f in good.functions.items()},
                dict(good.meta),
            )

        monkeypatch.setattr(passes_mod, "common_subexpression_eliminate",
                            broken_cse)
        pm = PassManager(verify=True)
        lowered = _lowered_kde()
        with pytest.raises(IRVerificationError) as exc:
            pm.run(lowered)
        assert exc.value.pass_name == "cse"
        assert "dangling reference" in exc.value.message

    def test_broken_strength_attributed(self, monkeypatch):
        real_strength = passes_mod.strength_reduce

        def broken_strength(program):
            bad = real_strength(program)
            # Rebuild every exp with a bogus extra argument.

            def fatten(e):
                if isinstance(e, IRCall) and e.func == "exp":
                    return IRCall("exp", e.args + (Const(0.0),))
                return e

            return bad.map_exprs(fatten)

        monkeypatch.setattr(passes_mod, "strength_reduce", broken_strength)
        pm = PassManager(verify=True)
        with pytest.raises(IRVerificationError) as exc:
            pm.run(_lowered_kde())
        assert exc.value.pass_name == "strength"
        assert "exp expects 1" in exc.value.message

    def test_broken_dce_attributed(self, monkeypatch):
        def broken_dce(program):
            # Drop *live* code: every Alloc, leaving dangling accumulators.
            def drop_allocs(s):
                if isinstance(s, Alloc):
                    return None
                return s

            return IRProgram(
                {n: f.map_stmts(drop_allocs)
                 for n, f in program.functions.items()},
                dict(program.meta),
            )

        monkeypatch.setattr(passes_mod, "dead_code_eliminate", broken_dce)
        pm = PassManager(verify=True)
        with pytest.raises(IRVerificationError) as exc:
            pm.run(_lowered_kde())
        assert exc.value.pass_name == "dce"

    def test_intact_pipeline_verifies_clean(self):
        pm = PassManager(verify=True)
        pm.run(_lowered_kde())
        assert pm.timings.get("verify", 0.0) > 0.0

    def test_verify_ir_option_end_to_end(self, monkeypatch):
        # Through the public surface: a compile never builds the IR, so
        # a broken pass cannot fail execute(); every reader of the IR —
        # ir_dump() and the interpreter backend — gets the error,
        # attributed to the pass.
        def broken_fold(program):
            return program.map_exprs(
                lambda e: BinOp("%", e, e) if isinstance(e, Const) else e
            )

        monkeypatch.setattr(passes_mod, "constant_fold", broken_fold)
        expr = _kde_expr()
        expr.execute(cache=False)
        for read in (expr.ir_dump,
                     lambda: _kde_expr().execute(backend="interp")):
            with pytest.raises(IRVerificationError) as exc:
                read()
            assert exc.value.pass_name == "fold"
            assert "illegal binary operator" in exc.value.message


def _lowered_kde():
    from repro.ir.lowering import lower
    from repro.rules import build_rules

    e = _kde_expr()
    cls, rule = build_rules(e.layers, e.layers[1].metric_kernel)
    return lower(e.layers, e.layers[1].metric_kernel, cls, rule, "kde")
