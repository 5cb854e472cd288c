"""The level-synchronous kd-tree builder against the recursive one.

``_recursive_build`` is the node-by-node formulation of section II-A
(one stack entry per node, one gather and one box reduction per node).
``build_kdtree`` must reproduce it bitwise: the same ``perm``, the same
node ids, the same boxes, centroids and mass data, dtype and layout
included.  Every partial rebuild of a live tree runs the builder, so
this module sits in ``make test-mutation``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trees import build_kdtree, build_octree
from repro.trees.kdtree import KDTree
from repro.trees.node import children_csr


def _recursive_build(points, leaf_size, weights, split):
    """Reference: depth-first, one ``new_node`` per node; a split node's
    children get the next two ids and the left subtree is split first."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    perm = np.arange(n)
    lo_l, hi_l, st_l, en_l, ch_l = [], [], [], [], []

    def new_node(s, e):
        pts = points[perm[s:e]]
        lo_l.append(pts.min(axis=0))
        hi_l.append(pts.max(axis=0))
        st_l.append(s)
        en_l.append(e)
        ch_l.append([])
        return len(st_l) - 1

    stack = [new_node(0, n)]
    while stack:
        i = stack.pop()
        s, e = st_l[i], en_l[i]
        if e - s <= leaf_size:
            continue
        widths = hi_l[i] - lo_l[i]
        split_dim = int(np.argmax(widths))
        if widths[split_dim] <= 0.0:
            continue
        seg = perm[s:e]
        coords = points[seg, split_dim]
        if split == "median":
            m = (s + e) // 2
            order = np.argpartition(coords, m - s)
        else:
            cut = 0.5 * (lo_l[i][split_dim] + hi_l[i][split_dim])
            left_mask = coords < cut
            n_left = int(left_mask.sum())
            if n_left == 0 or n_left == e - s:
                m = max(s + 1, min(e - 1, s + n_left))
                order = np.argsort(coords, kind="stable")
            else:
                m = s + n_left
                order = np.argsort(~left_mask, kind="stable")
        perm[s:e] = seg[order]
        left, right = new_node(s, m), new_node(m, e)
        ch_l[i] = [left, right]
        stack.append(right)
        stack.append(left)

    child_offset, child_list = children_csr(ch_l)
    return KDTree(points=points[perm], perm=perm, lo=np.asarray(lo_l),
                  hi=np.asarray(hi_l), start=np.asarray(st_l, dtype=np.int64),
                  end=np.asarray(en_l, dtype=np.int64),
                  child_offset=child_offset, child_list=child_list,
                  weights=weights, leaf_size=leaf_size)


#: Every array a tree carries after construction.
_ARRAYS = ("points", "points_col", "perm", "lo", "hi", "start", "end",
           "child_offset", "child_list", "is_leaf_arr", "center",
           "diameter", "centroid", "weights", "wsum", "wcentroid")


def assert_bitwise_same(got, want):
    assert got.n_nodes == want.n_nodes
    for name in _ARRAYS:
        a, b = getattr(got, name, None), getattr(want, name, None)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.c_contiguous == b.flags.c_contiguous, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def build_inputs(draw):
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["normal", "grid", "repeated"]))
    if shape == "normal":
        X = rng.normal(size=(n, d))
    elif shape == "grid":  # few distinct values per column: ties
        X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    else:  # duplicate rows
        base = rng.normal(size=(max(1, n // 7), d))
        X = base[rng.integers(0, base.shape[0], size=n)]
    const = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    X[:, np.asarray(const)] = 2.5
    weights = rng.uniform(0.0, 2.0, size=n) if draw(st.booleans()) else None
    leaf_size = draw(st.integers(1, 70))
    split = draw(st.sampled_from(["median", "midpoint"]))
    return X, leaf_size, weights, split


@settings(max_examples=150, deadline=None)
@given(args=build_inputs())
def test_builder_is_bitwise_the_recursive_build(args):
    X, leaf_size, weights, split = args
    got = build_kdtree(X, leaf_size=leaf_size, weights=weights, split=split)
    assert_bitwise_same(got, _recursive_build(X, leaf_size, weights, split))
    got.validate()


@pytest.mark.parametrize("split", ["median", "midpoint"])
@pytest.mark.parametrize("n,d,leaf_size", [(1001, 4, 3), (5000, 9, 64),
                                           (4097, 3, 1)])
def test_builder_matches_on_larger_inputs(rng, n, d, leaf_size, split):
    X = rng.normal(size=(n, d))
    X[: n // 5] = X[0]  # a block of coincident points
    w = rng.uniform(size=n)
    got = build_kdtree(X, leaf_size=leaf_size, weights=w, split=split)
    assert_bitwise_same(got, _recursive_build(X, leaf_size, w, split))


def test_root_split_keeps_argpartitions_order():
    """Two leaves under the root keep the root's partition order in
    ``perm``.  On this input NumPy orders ``argpartition`` at kth and at
    kth - 1 differently (on most inputs the two agree), so a builder
    partitioning around another kth shows here."""
    X = np.random.default_rng(151).normal(size=(1000, 2))
    x = X[:, np.argmax(np.ptp(X, axis=0))]
    assert not np.array_equal(np.argpartition(x, 500),
                              np.argpartition(x, 499))
    got = build_kdtree(X, leaf_size=500)
    assert got.n_nodes == 3
    assert_bitwise_same(got, _recursive_build(X, 500, None, "median"))


class TestNonFiniteInputsRaise:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_build_kdtree_points(self, rng, bad):
        X = rng.normal(size=(500, 3))
        X[123, 1] = bad
        with pytest.raises(ValueError, match="build_kdtree points"):
            build_kdtree(X)

    def test_build_kdtree_weights(self, rng):
        w = np.ones(50)
        w[7] = np.nan
        with pytest.raises(ValueError, match="build_kdtree weights"):
            build_kdtree(rng.normal(size=(50, 3)), weights=w)

    def test_build_octree(self, rng):
        X = rng.normal(size=(501, 3))
        X[500] = np.nan
        with pytest.raises(ValueError, match="build_octree points"):
            build_octree(X)
        w = np.ones(501)
        w[0] = np.inf
        with pytest.raises(ValueError, match="build_octree weights"):
            build_octree(rng.normal(size=(501, 3)), weights=w)

    def test_update_batch(self, rng):
        t = build_kdtree(rng.normal(size=(500, 3)), leaf_size=16,
                         weights=np.ones(500))
        lo, version = t.lo, t.version
        with pytest.raises(ValueError, match="update_batch points"):
            t.update_batch([3], [[np.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match="update_batch weights"):
            t.update_batch([3], weights=[np.inf])
        assert t.lo is lo and t.version == version
        t.validate()

    def test_insert_batch_weights(self, rng):
        t = build_kdtree(rng.normal(size=(100, 2)), weights=np.ones(100))
        with pytest.raises(ValueError, match="insert_batch weights"):
            t.insert_batch([[0.0, 0.0]], weights=[np.nan])


class TestValidateCatches:
    @pytest.fixture
    def tree(self, rng):
        return build_kdtree(rng.normal(size=(300, 3)), leaf_size=8)

    def test_loose_box(self, tree):
        tree.lo = tree.lo.copy()
        tree.lo[5] -= 1e-13
        with pytest.raises(AssertionError, match="slice minimum"):
            tree.validate()

    def test_child_id_below_parent(self, tree):
        # Swap node 1 (the root's left child) with the left child of a
        # deeper node: every slice stays the same, the ids do not.
        kid = int(tree.children(1)[0])
        cl = tree.child_list.copy()
        a, b = np.flatnonzero(cl == 1)[0], np.flatnonzero(cl == kid)[0]
        cl[a], cl[b] = kid, 1
        tree.child_list = cl
        with pytest.raises(AssertionError, match="above its parent"):
            tree.validate()

    def test_shared_child(self, tree):
        cl = tree.child_list.copy()
        cl[-1] = cl[-2]
        tree.child_list = cl
        with pytest.raises(AssertionError, match="exactly one parent"):
            tree.validate()
