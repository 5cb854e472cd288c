"""The emitted program's shape: one base-case skeleton, one merge.

Every base case is one instance of gather → distance → value →
self-exclusion/pads → fold, and every comparative one folds through the
one ``_merge``.  The code no program changes (the GEMM operands, the
merge, the row regime's base case) is not emitted: a program binds it
from :mod:`repro.backend.codegen` in one line each.  These tests pin
that shape on the compiled programs: a k-NN program is six functions
(no scalar prune twin of its bound key) and three bindings, each
comparative program binds exactly one merge that every base case
calls, the node-distance far edge appears only where a kernel calls
it, and no program names a second norm-expansion spelling's operands.
"""

import re

import numpy as np
import pytest

from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage, Var
from repro.dsl import indicator, pow, sqrt


def _data(d=3):
    rng = np.random.default_rng(5)
    return rng.normal(size=(40, d)), rng.normal(size=(90, d))


def _program(name, **options):
    Q, R = _data()
    expr = PortalExpr(name)
    if name == "range_count":
        q, r = Var("q"), Var("r")
        expr.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
        expr.addLayer(PortalOp.SUM, r, Storage(R, name="reference"),
                      indicator(sqrt(pow(q - r, 2)) < 1.0))
    elif name == "kde":
        expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        expr.addLayer(PortalOp.SUM, Storage(R, name="reference"),
                      PortalFunc.GAUSSIAN, bandwidth=0.5)
    else:
        outer, inner = {
            "knn": (PortalOp.FORALL, (PortalOp.KARGMIN, 5)),
            "nearest": (PortalOp.FORALL, PortalOp.MIN),
            "hausdorff": (PortalOp.MAX, PortalOp.MIN),
            "kmax": (PortalOp.FORALL, (PortalOp.KMAX, 3)),
        }[name]
        expr.addLayer(outer, Storage(Q, name="query"))
        expr.addLayer(inner, Storage(R, name="reference"),
                      PortalFunc.EUCLIDEAN)
    expr.compile(**options)
    return expr.generated_source()


def _defs(source):
    return re.findall(r"^def (\w+)\(", source, flags=re.M)


def _bindings(source):
    """The module-level names bound to a call of the fixed kernel code."""
    return re.findall(r"^(\w+) = (_\w+)\(", source, flags=re.M)


def _body(source, name):
    return source[source.index(f"def {name}("):].split("\n\n")[0]


def test_knn_program_is_six_functions_and_three_bindings():
    source = _program("knn")
    assert _defs(source) == [
        "base_case", "pair_min_base_dist", "exact_values", "bound_key_batch",
        "row_key_batch", "base_case_blocks"]
    assert _bindings(source) == [
        ("_gemm_operands", "_augmented_operands"), ("_merge", "_k_merge"),
        ("base_case_rows", "_row_base_case")]


@pytest.mark.parametrize("options", [{}, {"shards": 2}])
@pytest.mark.parametrize("name", ["knn", "nearest", "hausdorff", "kmax"])
def test_comparative_programs_have_one_merge(name, options):
    source = _program(name, **options)
    assert not [fn for fn in _defs(source) if "merge" in fn]
    merges = [b for b in _bindings(source) if "merge" in b[0]]
    assert merges == [("_merge", "_k_merge" if name in ("knn", "kmax")
                       else "_single_merge")]
    for kernel in ("base_case", "base_case_blocks"):
        assert "    _merge(" in _body(source, kernel)
    assert re.search(r"^base_case_rows = _row_base_case\(exact_values, "
                     r"_merge, ", source, flags=re.M)


@pytest.mark.parametrize("name", ["knn", "kde", "range_count", "hausdorff"])
def test_one_norm_expansion_spelling(name):
    for options in ({}, {"shards": 2}, {"backend": "brute"}):
        source = _program(name, **options)
        assert "QN2" not in source and "RN2" not in source


def test_far_edge_only_where_read():
    """k-NN reads the near edge only; a k-max's bound key reads the far
    one; a range count's classifier takes both edges from one gather of
    the boxes, so no kernel calls the far-edge function there."""
    assert "pair_max_base_dist" not in _program("knn")
    assert "= pair_max_base_dist(qis, ris)" in _program("kmax")
    assert "pair_max_base_dist" not in _program("range_count")
