"""Tests for the single-tree traversal scheme."""

import numpy as np
import pytest

from repro.baselines import brute
from repro.traversal import single_tree_knn, single_tree_traversal
from repro.trees import build_kdtree


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestWalk:
    def test_no_prune_visits_every_leaf(self, rng):
        R = rng.normal(size=(64, 2))
        tree = build_kdtree(R, leaf_size=8)
        seen = []
        stats = single_tree_traversal(
            tree, R[0], None, lambda s, e: seen.append((s, e))
        )
        assert stats.base_cases == len(tree.leaves())
        assert stats.base_case_pairs == 64

    def test_prune_respected(self, rng):
        R = rng.normal(size=(64, 2))
        tree = build_kdtree(R, leaf_size=8)
        stats = single_tree_traversal(
            tree, R[0], lambda node: 1,
            lambda s, e: pytest.fail("pruned node ran"),
        )
        assert stats.pruned == 1

    def test_nearest_first_ordering_used(self, rng):
        R = rng.normal(size=(64, 2))
        tree = build_kdtree(R, leaf_size=8)
        calls = []
        single_tree_traversal(
            tree, R[0], None, lambda s, e: None,
            point_min_dist=lambda n: calls.append(n) or 0.0,
        )
        assert calls


class TestSingleTreeKnn:
    def test_matches_brute(self, rng):
        Q = rng.normal(size=(60, 3))
        R = rng.normal(size=(80, 3))
        tree = build_kdtree(R, leaf_size=8)
        d, i = single_tree_knn(Q, tree, k=4)
        db, ib = brute.brute_knn(Q, R, k=4)
        assert np.allclose(d, db)
        assert np.array_equal(tree.perm[i], ib)

    def test_matches_dual_tree_engine(self, rng):
        from repro.problems import knn

        Q = rng.normal(size=(70, 5))
        R = rng.normal(size=(90, 5))
        tree = build_kdtree(R, leaf_size=8)
        d_single, _ = single_tree_knn(Q, tree, k=2)
        d_dual, _ = knn(Q, R, k=2)
        assert np.allclose(d_single, d_dual)

    def test_self_exclusion(self, rng):
        X = rng.normal(size=(50, 3))
        tree = build_kdtree(X, leaf_size=8)
        # exclude_index names each query's own permuted position.
        inv = np.empty(50, dtype=np.int64)
        inv[tree.perm] = np.arange(50)
        d, i = single_tree_knn(X, tree, k=1, exclude_index=inv)
        assert np.all(tree.perm[i[:, 0]] != np.arange(50))
        db, _ = brute.brute_knn(X, X, k=1, exclude_self=True)
        assert np.allclose(d[:, 0], db)

    def test_pruning_actually_prunes(self, rng):
        # Clustered data: walks from one cluster should skip the other.
        A = rng.normal(size=(100, 2)) * 0.1
        B = rng.normal(size=(100, 2)) * 0.1 + 50.0
        tree = build_kdtree(np.concatenate([A, B]), leaf_size=8)
        stats_total = []

        x = A[0]
        best = np.full(1, np.inf)

        def point_min(node):
            g = np.maximum(0.0, np.maximum(tree.lo[node] - x,
                                           x - tree.hi[node]))
            return float(g @ g)

        def prune(node):
            return 1 if point_min(node) > best[0] else 0

        def base_case(s, e):
            d = tree.points[s:e] - x
            best[0] = min(best[0], float(np.einsum("ij,ij->i", d, d).min()))

        st = single_tree_traversal(tree, x, prune, base_case,
                                   point_min_dist=point_min)
        assert st.pruned > 0
        assert st.base_case_pairs < 200
