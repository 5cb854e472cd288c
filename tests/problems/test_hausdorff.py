"""Tests for Hausdorff distance against scipy's reference implementation."""

import numpy as np
import pytest
from scipy.spatial.distance import directed_hausdorff as scipy_dh

from repro.problems import directed_hausdorff, hausdorff


@pytest.fixture
def rng():
    return np.random.default_rng(18)


class TestDirected:
    def test_matches_scipy(self, rng):
        A = rng.normal(size=(150, 3))
        B = rng.normal(size=(180, 3))
        got = directed_hausdorff(A, B)
        assert got == pytest.approx(scipy_dh(A, B)[0], rel=1e-12)

    def test_not_symmetric_in_general(self, rng):
        A = rng.normal(size=(50, 2))
        B = np.concatenate([A, rng.normal(size=(50, 2)) + 10.0])
        # A ⊆ B so h(A,B)=0 but h(B,A) is large.
        assert directed_hausdorff(A, B) == pytest.approx(0.0)
        assert directed_hausdorff(B, A) > 1.0

    def test_identical_sets_zero(self, rng):
        A = rng.normal(size=(60, 3))
        assert directed_hausdorff(A, A.copy()) == pytest.approx(0.0)

    def test_high_dim(self, rng):
        A = rng.normal(size=(60, 10))
        B = rng.normal(size=(70, 10))
        got = directed_hausdorff(A, B)
        assert got == pytest.approx(scipy_dh(A, B)[0], rel=1e-12)


class TestSymmetric:
    def test_max_of_directed(self, rng):
        A = rng.normal(size=(80, 3))
        B = rng.normal(size=(90, 3))
        expected = max(scipy_dh(A, B)[0], scipy_dh(B, A)[0])
        assert hausdorff(A, B) == pytest.approx(expected)

    def test_symmetric(self, rng):
        A = rng.normal(size=(40, 2))
        B = rng.normal(size=(45, 2))
        assert hausdorff(A, B) == pytest.approx(
            hausdorff(B, A))
