"""Pin tests for the vectorised ArrayTree per-node statistics.

``ArrayTree.__init__`` computes centroids, weight sums and weighted
centroids with reduceat sweeps (leaf partition + bottom-up level plan)
instead of a per-node Python loop.  These tests pin the vectorised
results against the straightforward reference loop over node slices, on
weighted and unweighted trees of both tree kinds, and pin the
``levels()`` / ``depth()`` machinery against recursive references.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from repro.trees import build_kdtree, build_octree, build_tree
from repro.trees.node import level_propagation, tree_levels

from tests.conftest import REMOVED_TREE, assert_tree_refused

BUILDERS = {
    "kd": build_kdtree,
    "octree": build_octree,
}


def _build(kind, pts, **kw):
    """The tree of ``kind``; for the deleted kind the build is refused
    and the result is None."""
    if kind == REMOVED_TREE:
        assert_tree_refused(build_tree, kind, pts, **kw)
        return None
    return BUILDERS[kind](pts, **kw)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(20260806)
    pts = rng.uniform(-3.0, 3.0, size=(257, 3))  # odd n: uneven slices
    w = rng.uniform(0.0, 2.0, size=257)
    w[rng.choice(257, size=20, replace=False)] = 0.0  # zero-weight points
    return pts, w


def _reference_stats(tree):
    """The pre-vectorisation per-node loop, verbatim semantics."""
    n_nodes = tree.n_nodes
    d = tree.dim
    centroid = np.empty((n_nodes, d))
    wsum = np.empty(n_nodes)
    wcentroid = np.empty((n_nodes, d))
    for i in range(n_nodes):
        s, e = int(tree.start[i]), int(tree.end[i])
        pts = tree.points[s:e]
        centroid[i] = pts.mean(axis=0)
        if tree.weights is not None:
            wi = tree.weights[s:e]
            wsum[i] = wi.sum()
            if wsum[i] > 0:
                wcentroid[i] = (wi[:, None] * pts).sum(axis=0) / wsum[i]
            else:
                wcentroid[i] = centroid[i]
    return centroid, wsum, wcentroid


def _reference_depth(tree, i=0):
    kids = tree.children(i)
    if len(kids) == 0:
        return 0
    return 1 + max(_reference_depth(tree, int(c)) for c in kids)


@pytest.mark.parametrize("kind", [*BUILDERS, REMOVED_TREE])
class TestVectorisedStats:
    def test_unweighted_centroids(self, data, kind):
        pts, _ = data
        tree = _build(kind, pts, leaf_size=8)
        if tree is None:
            return
        ref_centroid, _, _ = _reference_stats(tree)
        assert_allclose(tree.centroid, ref_centroid, rtol=1e-12, atol=1e-12)

    def test_weighted_stats(self, data, kind):
        pts, w = data
        tree = _build(kind, pts, leaf_size=8, weights=w)
        if tree is None:
            return
        ref_centroid, ref_wsum, ref_wcentroid = _reference_stats(tree)
        assert_allclose(tree.centroid, ref_centroid, rtol=1e-12, atol=1e-12)
        assert_allclose(tree.wsum, ref_wsum, rtol=1e-12, atol=1e-12)
        assert_allclose(tree.wcentroid, ref_wcentroid, rtol=1e-12, atol=1e-12)

    def test_all_zero_weights_fall_back_to_centroid(self, data, kind):
        pts, _ = data
        tree = _build(kind, pts, leaf_size=8, weights=np.zeros(len(pts)))
        if tree is None:
            return
        assert_allclose(tree.wcentroid, tree.centroid, rtol=1e-12)
        assert np.all(tree.wsum == 0.0)

    def test_depth_matches_recursive_reference(self, data, kind):
        pts, _ = data
        tree = _build(kind, pts, leaf_size=8)
        if tree is None:
            return
        assert tree.depth() == _reference_depth(tree)

    def test_levels_consistent_with_children(self, data, kind):
        pts, _ = data
        tree = _build(kind, pts, leaf_size=8)
        if tree is None:
            return
        level = tree.levels()
        assert level[0] == 0
        for i in range(tree.n_nodes):
            for c in tree.children(i):
                assert level[int(c)] == level[i] + 1
        assert int(level.max()) == tree.depth()


class TestLevelMachinery:
    def test_tree_levels_single_node(self):
        level = tree_levels(np.array([0, 0]), np.empty(0, dtype=np.int64))
        assert level.tolist() == [0]

    def test_level_propagation_reduces_bottom_up(self, data):
        """Summing per-point ones through the plan must reproduce each
        node's point count — the invariant _node_sums relies on."""
        pts, _ = data
        tree = build_kdtree(pts, leaf_size=8)
        plan = level_propagation(tree.child_offset, tree.child_list,
                                 tree.levels())
        out = np.zeros(tree.n_nodes)
        leaves = np.flatnonzero(tree.is_leaf_arr)
        out[leaves] = (tree.end - tree.start)[leaves]
        for ids, kids, seg in plan:
            out[ids] = np.add.reduceat(out[kids], seg)
        assert np.array_equal(out, (tree.end - tree.start).astype(float))

    def test_leaf_only_tree_has_empty_plan(self):
        tree = build_kdtree(np.zeros((5, 2)), leaf_size=8)
        assert tree.n_nodes == 1
        plan = level_propagation(tree.child_offset, tree.child_list,
                                 tree.levels())
        assert plan == []
