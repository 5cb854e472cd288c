"""Tests for the textual Portal frontend (Appendix-VIII grammar)."""

import numpy as np
import pytest

from repro.dsl import ParseError, parse_program
from repro.baselines import brute


@pytest.fixture
def rng():
    return np.random.default_rng(4)


@pytest.fixture
def data(rng):
    return rng.normal(size=(200, 3)), rng.normal(size=(250, 3))


NN_PROGRAM = """
// paper Code 3
Storage query("qf.csv");
Storage reference("rf.csv");
Var q;
Var r;
Expr EuclidDist = sqrt(pow((q - r), 2));
PortalExpr expr;
expr.addLayer(FORALL, q, query);
expr.addLayer(ARGMIN, r, reference, EuclidDist);
expr.execute();
Storage output = expr.getOutput();
"""


class TestPrograms:
    def test_nearest_neighbor(self, data):
        Q, R = data
        prog = parse_program(NN_PROGRAM, bindings={"qf.csv": Q, "rf.csv": R})
        res = prog.run()
        db, ib = brute.brute_knn(Q, R, k=1)
        assert np.allclose(res["output"].values, db)
        assert np.array_equal(res["output"].indices, ib)

    def test_predefined_metric_name(self, data):
        Q, R = data
        src = """
        Storage query("q");
        Storage reference("r");
        PortalExpr e;
        e.addLayer(FORALL, query);
        e.addLayer(ARGMIN, reference, EUCLIDEAN);
        e.execute();
        """
        prog = parse_program(src, bindings={"q": Q, "r": R})
        res = prog.run()
        db, _ = brute.brute_knn(Q, R, k=1)
        assert np.allclose(res["e"].values, db)

    def test_multi_reduction_k(self, data):
        Q, R = data
        src = """
        Storage query("q");
        Storage reference("r");
        PortalExpr e;
        e.addLayer(FORALL, query);
        e.addLayer((KARGMIN, 3), reference, EUCLIDEAN);
        e.execute();
        """
        prog = parse_program(src, bindings={"q": Q, "r": R})
        res = prog.run()
        db, _ = brute.brute_knn(Q, R, k=3)
        assert np.allclose(res["e"].values, db)

    def test_indicator_kernel(self, data):
        Q, _ = data
        src = """
        Storage d("d");
        Var a; Var b;
        PortalExpr e;
        e.addLayer(SUM, a, d);
        e.addLayer(SUM, b, d, sqrt(pow((a - b), 2)) < 0.5);
        e.execute();
        """
        prog = parse_program(src, bindings={"d": Q})
        res = prog.run()
        assert res["e"].scalar == brute.brute_two_point(Q, 0.5)

    def test_cpp_style_qualified_names(self, data):
        """The paper's embedded snippets write PortalOp::FORALL and
        PortalFunc::EUCLIDEAN; the textual frontend accepts both."""
        Q, R = data
        src = """
        Storage query("q");
        Storage reference("r");
        PortalExpr e;
        e.addLayer(PortalOp::FORALL, query);
        e.addLayer((PortalOp::KARGMIN, 2), reference, PortalFunc::EUCLIDEAN);
        e.execute();
        """
        prog = parse_program(src, bindings={"q": Q, "r": R})
        res = prog.run()
        db, _ = brute.brute_knn(Q, R, k=2)
        assert np.allclose(res["e"].values, db)

    def test_unknown_qualified_func(self, data):
        Q, R = data
        src = """
        Storage q("q"); Storage r("r");
        PortalExpr e;
        e.addLayer(FORALL, q);
        e.addLayer(MIN, r, PortalFunc::HAMMING);
        e.execute();
        """
        with pytest.raises(ParseError, match="unknown PortalFunc"):
            parse_program(src, bindings={"q": Q, "r": R})

    def test_block_comment(self, data):
        Q, R = data
        src = "/* header */ Storage q(\"q\"); Storage r(\"r\");" \
              "PortalExpr e; e.addLayer(FORALL, q);" \
              "e.addLayer(MIN, r, EUCLIDEAN); e.execute();"
        prog = parse_program(src, bindings={"q": Q, "r": R})
        assert "e" in prog.portal_exprs


class TestErrors:
    def test_unknown_operator(self):
        with pytest.raises(ParseError, match="unknown Portal operator"):
            parse_program(
                'Storage q("q"); PortalExpr e; e.addLayer(NOPE, q);',
                bindings={"q": np.ones((3, 2))},
            )

    def test_unbound_storage(self):
        with pytest.raises(ParseError, match="neither"):
            parse_program('Storage q(data); PortalExpr e;')

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program('Var q Var r;')

    def test_no_portal_expr(self):
        with pytest.raises(ParseError, match="no PortalExpr"):
            parse_program('Var q;')

    def test_unknown_method(self):
        with pytest.raises(ParseError, match="unknown method"):
            parse_program(
                'Storage q("q"); PortalExpr e; e.frobnicate();',
                bindings={"q": np.ones((3, 2))},
            )

    def test_unknown_name_in_expression(self):
        with pytest.raises(ParseError, match="unknown name"):
            parse_program(
                'Storage q("q"); Var a; Expr e = a + zz; PortalExpr p;',
                bindings={"q": np.ones((3, 2))},
            )

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_program("Var q; $")

    def test_error_carries_location(self):
        try:
            parse_program("Var q; $")
        except ParseError as err:
            assert err.line is not None
