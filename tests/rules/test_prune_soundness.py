"""Property tests: generated prune/approximate conditions are *sound*.

Pruning is only correct if a pruned node pair can never contain a value
the reduction would keep, and an approximated pair's replacement stays
within the analytic band.  These properties are verified directly against
randomly generated point sets, independent of the traversal machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.trees import build_kdtree

pytestmark = pytest.mark.slow


def clouds(max_n=40, d=3):
    return hnp.arrays(
        np.float64, st.tuples(st.integers(8, max_n), st.just(d)),
        elements=st.floats(-20, 20, allow_nan=False, width=64),
    )


@settings(max_examples=25, deadline=None)
@given(Q=clouds(), R=clouds())
def test_bound_min_prune_never_hides_a_winner(Q, R):
    """For every node pair the generated kNN prune discards, no point of
    the reference node improves any query point's current best."""
    e = PortalExpr()
    e.addLayer(PortalOp.FORALL, Storage(Q, name="q"))
    e.addLayer(PortalOp.ARGMIN, Storage(R, name="r"), PortalFunc.EUCLIDEAN)
    prog = e.compile(leaf_size=4)
    prog.run()

    ns = prog.kernels.namespace
    qtree, rtree = prog.qtree, prog.rtree
    # With monotone-map deferral the accumulators hold *base* (squared)
    # distances.  A pair prunes as the engines decide it: its
    # bound_key_batch key exceeds the max signed bound over the query
    # node's slice.
    best, qbound = ns["best"], ns["qbound"]
    key = prog.kernels.bound_key_batch

    for qi in qtree.leaves()[:6]:
        for ri in rtree.leaves()[:6]:
            qs, qe = qtree.slice(int(qi))
            if key(np.array([qi]), np.array([ri]))[0] > qbound[qs:qe].max():
                rs, re = rtree.slice(int(ri))
                d2 = (
                    (qtree.points[qs:qe, None, :] -
                     rtree.points[None, rs:re, :]) ** 2
                ).sum(-1)
                # No pair in the pruned product beats the node's bound.
                assert (d2.min(axis=1) >= best[qs:qe] - 1e-9).all()


@settings(max_examples=20, deadline=None)
@given(X=clouds(max_n=60))
def test_indicator_prune_partitions_exactly(X):
    """Range-count pruning: all-outside pairs contain no qualifying pair,
    all-inside pairs contain only qualifying pairs."""
    h = 3.0
    tree = build_kdtree(X, leaf_size=4)
    lo, hi = tree.lo, tree.hi
    h2 = h * h

    def node_min2(a, b):
        g = np.maximum(0.0, np.maximum(lo[b] - hi[a], lo[a] - hi[b]))
        return float(g @ g)

    def node_max2(a, b):
        s = np.maximum(0.0, np.maximum(hi[b] - lo[a], hi[a] - lo[b]))
        return float(s @ s)

    leaves = tree.leaves()
    for a in leaves[:5]:
        for b in leaves[:5]:
            sa, ea = tree.slice(int(a))
            sb, eb = tree.slice(int(b))
            d2 = ((tree.points[sa:ea, None, :] -
                   tree.points[None, sb:eb, :]) ** 2).sum(-1)
            if node_min2(a, b) >= h2:
                assert (d2 >= h2 - 1e-9).all()
            if node_max2(a, b) < h2:
                assert (d2 < h2 + 1e-9).all()


@settings(max_examples=15, deadline=None)
@given(X=clouds(max_n=50))
def test_kde_band_bounds_node_contributions(X):
    """The band condition's g-bounds bracket every actual kernel value in
    the node pair (the soundness behind the τ·N error bound)."""
    bw = 2.0
    c = -1.0 / (2.0 * bw * bw)
    tree = build_kdtree(X, leaf_size=4)
    lo, hi = tree.lo, tree.hi
    leaves = tree.leaves()
    for a in leaves[:4]:
        for b in leaves[:4]:
            g = np.maximum(0.0, np.maximum(lo[b] - hi[a], lo[a] - hi[b]))
            tmin = float(g @ g)
            s = np.maximum(0.0, np.maximum(hi[b] - lo[a], hi[a] - lo[b]))
            tmax = float(s @ s)
            k_hi, k_lo = np.exp(c * tmin), np.exp(c * tmax)
            sa, ea = tree.slice(int(a))
            sb, eb = tree.slice(int(b))
            d2 = ((tree.points[sa:ea, None, :] -
                   tree.points[None, sb:eb, :]) ** 2).sum(-1)
            kv = np.exp(c * d2)
            assert (kv <= k_hi + 1e-12).all()
            assert (kv >= k_lo - 1e-12).all()
