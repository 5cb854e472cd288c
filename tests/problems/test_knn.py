"""Tests for k-nearest neighbors against the brute-force reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines import brute
from repro.problems import knn

from tests.conftest import REMOVED_TREE, assert_tree_refused


@pytest.fixture
def rng():
    return np.random.default_rng(15)


class TestCorrectness:
    def test_k1_distances_and_indices(self, small_qr):
        Q, R = small_qr
        d, i = knn(Q, R, k=1)
        db, ib = brute.brute_knn(Q, R, k=1)
        assert np.allclose(d, db)
        assert np.array_equal(i, ib)

    def test_k5(self, small_qr):
        Q, R = small_qr
        d, i = knn(Q, R, k=5)
        db, ib = brute.brute_knn(Q, R, k=5)
        assert np.allclose(d, db)

    def test_high_dimensional(self, small_highdim):
        Q, R = small_highdim
        d, _ = knn(Q, R, k=3)
        db, _ = brute.brute_knn(Q, R, k=3)
        assert np.allclose(d, db)

    def test_self_query_excludes_self(self, rng):
        X = rng.normal(size=(100, 3))
        d, i = knn(X, k=1)
        assert np.all(i != np.arange(100))
        db, ib = brute.brute_knn(X, X, k=1, exclude_self=True)
        assert np.allclose(d, db)

    def test_fastmath_error_small(self, small_qr):
        # Default options take the exact sqrt: no approximate-sqrt error.
        Q, R = small_qr
        d, _ = knn(Q, R, k=1)
        db, _ = brute.brute_knn(Q, R, k=1)
        assert np.allclose(d, db, rtol=1e-12, atol=0)

    def test_sorted_output(self, small_qr):
        Q, R = small_qr
        d, _ = knn(Q, R, k=4)
        assert np.all(np.diff(d, axis=1) >= -1e-12)

    def test_ball_tree(self, small_qr):
        """``tree='ball'`` is refused; the kd-tree it duplicated is
        exact."""
        Q, R = small_qr
        assert_tree_refused(knn, Q, R, k=2, tree=REMOVED_TREE)
        d, _ = knn(Q, R, k=2, tree="kd")
        db, _ = brute.brute_knn(Q, R, k=2)
        assert np.allclose(d, db)

    def test_k_equals_n(self, rng):
        Q = rng.normal(size=(10, 2))
        R = rng.normal(size=(6, 2))
        d, _ = knn(Q, R, k=6)
        db, _ = brute.brute_knn(Q, R, k=6)
        assert np.allclose(d, db)

    def test_duplicate_points(self, rng):
        R = np.repeat(rng.normal(size=(5, 2)), 4, axis=0)
        Q = rng.normal(size=(8, 2))
        d, _ = knn(Q, R, k=3)
        db, _ = brute.brute_knn(Q, R, k=3)
        assert np.allclose(d, db)

    @settings(max_examples=20, deadline=None)
    @given(
        pts=hnp.arrays(
            np.float64, st.tuples(st.integers(5, 60), st.integers(1, 6)),
            elements=st.floats(-100, 100, allow_nan=False, width=64),
        ),
        k=st.integers(1, 4),
    )
    def test_property_vs_brute(self, pts, k):
        n = pts.shape[0]
        Q, R = pts[: n // 2 + 1], pts
        d, _ = knn(Q, R, k=k)
        db, _ = brute.brute_knn(Q, R, k=k)
        # The generated base case uses the GEMM norm-expansion, whose
        # cancellation error near zero distance is ~|x|·√ε — the same
        # trade-off expert code makes.
        assert np.allclose(d, db, atol=1e-4, rtol=1e-7)
