"""Unit and property tests for the kd-tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.trees import build_kdtree


def points_strategy(max_n=80, max_d=5):
    return hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, max_n), st.integers(1, max_d)),
        elements=st.floats(-100, 100, allow_nan=False, width=64),
    )


class TestConstruction:
    def test_basic(self, rng):
        t = build_kdtree(rng.normal(size=(100, 3)), leaf_size=10)
        assert t.n == 100 and t.dim == 3
        t.validate()

    def test_leaf_size_respected(self, rng):
        t = build_kdtree(rng.normal(size=(128, 2)), leaf_size=8)
        for leaf in t.leaves():
            assert t.count(leaf) <= 8

    def test_single_point(self):
        t = build_kdtree(np.array([[1.0, 2.0]]))
        assert t.n_nodes == 1 and t.is_leaf(0)

    def test_duplicate_points_terminate(self):
        pts = np.ones((50, 3))
        t = build_kdtree(pts, leaf_size=4)
        # All coincident: must not split forever; single oversized leaf is OK.
        assert t.is_leaf(0)
        t.validate()

    def test_duplicate_coords_along_split_dim(self, rng):
        """Duplicates along the widest dimension: the median cut lands
        between the two duplicate groups, and once a subtree's widest
        dimension collapses to zero width the next-widest takes over."""
        n = 64
        X = np.column_stack([
            np.repeat([0.0, 1.0], n // 2),
            rng.uniform(0.0, 0.05, size=n),
        ])
        t = build_kdtree(X, leaf_size=4)
        t.validate()
        kids = [int(c) for c in t.children(0)]
        assert sorted(t.count(c) for c in kids) == [n // 2, n // 2]
        for c in kids:
            assert t.lo[c, 0] == t.hi[c, 0]
            assert not t.is_leaf(c)

    def test_one_ulp_wide_box_splits(self):
        """A box one ulp wide still splits at the median; a half whose
        every width is zero stays a (possibly oversized) leaf."""
        eps = 2.0 ** -52
        X = np.array([[1.0]] * 6 + [[1.0 + eps]] * 2)
        t = build_kdtree(X, leaf_size=2)
        t.validate()
        kids = [int(c) for c in t.children(0)]
        assert [t.count(c) for c in kids] == [4, 4]
        assert t.is_leaf(kids[0]) and not t.is_leaf(kids[1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_kdtree(np.empty((0, 3)))

    def test_bad_leaf_size_rejected(self, rng):
        with pytest.raises(ValueError):
            build_kdtree(rng.normal(size=(5, 2)), leaf_size=0)

    def test_perm_is_permutation(self, rng):
        t = build_kdtree(rng.normal(size=(60, 2)), leaf_size=5)
        assert sorted(t.perm.tolist()) == list(range(60))

    def test_points_match_perm(self, rng):
        X = rng.normal(size=(60, 2))
        t = build_kdtree(X, leaf_size=5)
        assert np.array_equal(t.points, X[t.perm])

    def test_median_split_balance(self, rng):
        t = build_kdtree(rng.normal(size=(256, 3)), leaf_size=2)
        # Median splits keep sibling sizes within 1 of each other.
        for i in range(t.n_nodes):
            kids = t.children(i)
            if len(kids) == 2:
                a, b = (t.count(int(k)) for k in kids)
                assert abs(a - b) <= 1

    def test_depth_logarithmic(self, rng):
        t = build_kdtree(rng.normal(size=(1024, 3)), leaf_size=1)
        assert t.depth() <= 14  # ~log2(1024) + slack

    def test_weights_propagate(self, rng):
        X = rng.normal(size=(40, 2))
        w = rng.uniform(1, 2, size=40)
        t = build_kdtree(X, leaf_size=8, weights=w)
        assert np.isclose(t.wsum[0], w.sum())
        expect = (w[:, None] * X).sum(0) / w.sum()
        assert np.allclose(t.wcentroid[0], expect)

    @settings(max_examples=30, deadline=None)
    @given(pts=points_strategy())
    def test_invariants_property(self, pts):
        t = build_kdtree(pts, leaf_size=4)
        t.validate()

    @settings(max_examples=30, deadline=None)
    @given(pts=points_strategy(max_n=40))
    def test_boxes_tight(self, pts):
        t = build_kdtree(pts, leaf_size=4)
        for i in range(t.n_nodes):
            s, e = t.slice(i)
            assert np.allclose(t.lo[i], t.points[s:e].min(axis=0))
            assert np.allclose(t.hi[i], t.points[s:e].max(axis=0))


class TestSlidingMidpoint:
    """Termination cases first written for the sliding-midpoint split.
    That split is gone; the cases keep their names and now run against
    the median split, which must stop on zero-width boxes the same way."""

    def test_duplicates_terminate(self):
        t = build_kdtree(np.ones((40, 2)), leaf_size=4)
        t.validate()
        assert t.n_nodes == 1 and t.is_leaf(0)

    def test_all_coincident_is_single_leaf(self):
        """Every width is zero: the root must stay a (possibly
        oversized) leaf instead of recursing forever."""
        t = build_kdtree(np.full((50, 3), 2.5), leaf_size=4)
        t.validate()
        assert t.n_nodes == 1
        assert t.is_leaf(0)


class TestNodeAPI:
    def test_node_view(self, rng):
        X = rng.normal(size=(30, 2))
        t = build_kdtree(X, leaf_size=4)
        root = t.node(0)
        assert root.count == 30
        assert not root.is_leaf
        assert len(root.children()) == 2
        assert root.points.shape == (30, 2)
        assert sorted(root.indices.tolist()) == list(range(30))

    def test_centroid(self, rng):
        X = rng.normal(size=(30, 2))
        t = build_kdtree(X, leaf_size=4)
        assert np.allclose(t.node(0).centroid, X.mean(axis=0))

    def test_diameter_is_widest_span(self, rng):
        X = rng.normal(size=(30, 2))
        t = build_kdtree(X, leaf_size=4)
        assert np.isclose(t.node(0).diameter,
                          (X.max(axis=0) - X.min(axis=0)).max())


@pytest.fixture
def rng():
    return np.random.default_rng(5)
