"""Property tests: node distance bounds are *true* bounds.

Every prune and approximate decision is made from two bounds on the
base distance between the points of two tree nodes, computed from
their boxes alone.  The traversal reads them from the emitted
``pair_min_base_dist`` / ``pair_max_base_dist``
(:func:`repro.backend.codegen._node_distance_source`), one spelling per
base metric; these tests bind those functions over boxes drawn around
random point clouds.  A point is a zero-width box.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.backend.codegen import CodegenSpec, _node_distance_source
from repro.dsl import PortalOp
from repro.dsl.errors import KernelError
from repro.dsl.funcs import BASE_METRICS, MetricKernel
from repro.ir.nodes import SymRef

BASES = ("sqeuclidean", "manhattan", "chebyshev")


def _dist(base, a, b):
    d = np.abs(a - b)
    if base == "sqeuclidean":
        return float((d * d).sum())
    if base == "manhattan":
        return float(d.sum())
    return float(d.max())


def cloud(n=6, d=3):
    return hnp.arrays(
        np.float64, (n, d),
        elements=st.floats(-50, 50, allow_nan=False, width=64),
    )


def _bounds(base, alo, ahi, blo, bhi):
    """``(min, max)`` base distance between box A (query side) and box
    B (reference side), as the emitted code computes them."""
    spec = CodegenSpec(dim=len(alo), base=base, g_ir=SymRef("t"),
                       monotone="increasing", outer_op=PortalOp.FORALL,
                       inner_op=PortalOp.SUM)
    ns = {"np": np, "qlo": np.atleast_2d(alo), "qhi": np.atleast_2d(ahi),
          "rlo": np.atleast_2d(blo), "rhi": np.atleast_2d(bhi)}
    for edge in ("min", "max"):
        exec(_node_distance_source(spec, edge), ns)
    return (float(ns["pair_min_base_dist"](0, 0)),
            float(ns["pair_max_base_dist"](0, 0)))


@settings(max_examples=60, deadline=None)
@given(A=cloud(), B=cloud())
@pytest.mark.parametrize("base", BASES)
def test_box_bounds_are_true_bounds(base, A, B):
    mn, mx = _bounds(base, A.min(axis=0), A.max(axis=0),
                     B.min(axis=0), B.max(axis=0))
    for a in A:
        for b in B:
            d = _dist(base, a, b)
            assert mn <= d + 1e-9
            assert d <= mx + 1e-9


@settings(max_examples=60, deadline=None)
@given(A=cloud(), x=hnp.arrays(np.float64, (3,),
                               elements=st.floats(-50, 50, allow_nan=False,
                                                  width=64)))
@pytest.mark.parametrize("base", BASES)
def test_point_box_bounds(base, A, x):
    mn, mx = _bounds(base, x, x, A.min(axis=0), A.max(axis=0))
    for a in A:
        d = _dist(base, x, a)
        assert mn <= d + 1e-9
        assert d <= mx + 1e-9


def test_overlapping_boxes_min_zero():
    lo = np.zeros(3)
    hi = np.ones(3)
    assert _bounds("sqeuclidean", lo, hi, lo + 0.5, hi + 0.5)[0] == 0.0


def test_touching_boxes_min_zero():
    lo = np.zeros(2)
    hi = np.ones(2)
    assert _bounds("manhattan", lo, hi, hi, hi + 1)[0] == 0.0


def test_unknown_base_rejected():
    """Bounds are emitted for the three base metrics above and no
    other: a kernel over any other base is refused where it is made,
    before code generation sees it."""
    assert BASE_METRICS == BASES
    with pytest.raises(KernelError, match="unknown base metric 'hamming'"):
        MetricKernel("hamming", SymRef("t"))
