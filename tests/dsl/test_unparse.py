"""Round-trip tests: embedded programs → Portal text → parser → same
results, plus a hypothesis property over random grammar expressions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsl import (
    KernelError, PortalExpr, PortalFunc, PortalOp, Storage, Var, absval,
    dim_sum, exp, indicator, parse_program, pow, sqrt,
)
from repro.dsl.expr import Const
from repro.dsl.parser import _Parser, _tokenize
from repro.dsl.unparse import unparse_expr, unparse_program


def parse_expr(text: str, variables: dict):
    """Parse a standalone expression via the program parser internals."""
    p = _Parser(_tokenize(text), None)
    p.program.variables.update(variables)
    return p._expression()


# -- expression round-trips ---------------------------------------------------

q, r = Var("q"), Var("r")
VARS = {"q": q, "r": r}


def scalar_exprs():
    """Random grammar-expressible scalar expressions over q, r."""
    base = st.one_of(
        st.floats(0.1, 9.9).map(lambda v: Const(round(v, 2))),
        st.just(pow(q - r, 2)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
            children.map(lambda a: sqrt(absval(a) if False else a * a)),
            children.map(exp_safe),
        )

    return st.recursive(base, extend, max_leaves=6)


def exp_safe(a):
    return exp(Const(0.0) - a * Const(0.001))


class TestExprRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(e=scalar_exprs())
    def test_unparse_parse_identity(self, e):
        text = unparse_expr(e)
        back = parse_expr(text, VARS)
        assert back == e

    def test_euclidean_form(self):
        e = sqrt(pow(q - r, 2))
        assert unparse_expr(e) == "sqrt(pow((q - r), 2))"
        assert parse_expr(unparse_expr(e), VARS) == e

    def test_indicator(self):
        e = indicator(sqrt(pow(q - r, 2)) < 2.0)
        back = parse_expr(unparse_expr(e), VARS)
        assert back == e

    def test_dim_sum_has_no_spelling(self):
        with pytest.raises(KernelError):
            unparse_expr(dim_sum(absval(q - r)))

    def test_callable_kernel_rejected(self):
        e = PortalExpr("x")
        s = Storage(np.ones((5, 2)), name="d")
        e.addLayer(PortalOp.FORALL, s)
        e.addLayer(PortalOp.SUM, s, lambda Q, R: np.zeros((len(Q), len(R))))
        with pytest.raises(KernelError):
            unparse_program(e)


# -- program round-trips ---------------------------------------------------------

class TestProgramRoundTrip:
    def _knn_expr(self, Q, R):
        e = PortalExpr("knn")
        qv, rv = Var("q"), Var("r")
        e.addLayer(PortalOp.FORALL, qv, Storage(Q, name="query"))
        e.addLayer((PortalOp.KARGMIN, 3), rv, Storage(R, name="reference"),
                   sqrt(pow(qv - rv, 2)))
        return e

    def test_knn_roundtrip(self):
        rng = np.random.default_rng(0)
        Q = rng.normal(size=(60, 3))
        R = rng.normal(size=(70, 3))
        expr = self._knn_expr(Q, R)
        text = unparse_program(expr)
        assert 'Storage query("query.csv");' in text
        assert "(KARGMIN, 3)" in text

        prog = parse_program(text, bindings={"query.csv": Q,
                                             "reference.csv": R})
        res = prog.run()
        direct = expr.execute()
        assert np.allclose(res["output"].values, direct.values)

    def test_predefined_func_roundtrip(self):
        rng = np.random.default_rng(1)
        Q = rng.normal(size=(40, 3))
        e = PortalExpr("nn")
        s = Storage(Q, name="pts")
        e.addLayer(PortalOp.FORALL, s)
        e.addLayer(PortalOp.ARGMIN, s, PortalFunc.EUCLIDEAN)
        text = unparse_program(e, sources={"pts": "mydata.csv"})
        assert 'Storage pts("mydata.csv");' in text
        assert "EUCLIDEAN" in text
        prog = parse_program(text, bindings={"mydata.csv": Q})
        res = prog.run()
        direct = e.execute()
        assert np.array_equal(res["output"].indices, direct.indices)

    def test_weird_name_sanitised(self):
        e = PortalExpr("my problem!")
        s = Storage(np.ones((5, 2)) * np.arange(5)[:, None], name="d")
        e.addLayer(PortalOp.FORALL, s)
        e.addLayer(PortalOp.MIN, s, PortalFunc.EUCLIDEAN)
        text = unparse_program(e)
        assert "PortalExpr my_problem_;" in text
        parse_program(text, bindings={"d.csv": np.ones((5, 2)) *
                                      np.arange(5)[:, None]})
