"""Tests for LOC counting."""

from repro.util import count_loc, count_object_loc


class TestLoc:
    def test_counts_code_lines(self):
        src = "a = 1\n\nb = 2\n"
        assert count_loc(src) == 2

    def test_skips_comments(self):
        src = "# comment\na = 1\n// c++ comment\n"
        assert count_loc(src) == 1

    def test_skips_docstrings(self):
        src = '"""\nmodule doc\n"""\nx = 1\n'
        assert count_loc(src) == 1

    def test_single_line_docstring(self):
        src = '"""one line."""\nx = 1\n'
        assert count_loc(src) == 1

    def test_object_loc(self):
        def sample():
            a = 1
            return a

        assert count_object_loc(sample) == 3

    def test_paper_knn_is_13_lines_or_fewer(self):
        """The paper reports k-NN in 13 lines of Portal; our equivalent
        textual program must not exceed that."""
        program = """
        Storage query("query_file.csv");
        Storage reference("reference_file.csv");
        Var q;
        Var r;
        Expr EuclidDist = sqrt(pow((q - r), 2));
        PortalExpr expr;
        expr.addLayer(FORALL, q, query);
        expr.addLayer((KARGMIN, 5), r, reference, EuclidDist);
        expr.execute();
        Storage output = expr.getOutput();
        """
        assert count_loc(program) <= 13
