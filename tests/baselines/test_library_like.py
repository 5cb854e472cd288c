"""Tests: the library-style comparators (sklearn/MLPACK/FDPS shapes) give
correct answers — the benchmarks then measure their slowness honestly."""

import numpy as np
import pytest

from repro.baselines import (
    MlpackLikeNBC, brute, fdps_like_forces, sklearn_like_two_point,
)


@pytest.fixture
def rng():
    return np.random.default_rng(25)


class TestSklearnLike2PC:
    def test_correct_count(self, rng):
        X = rng.normal(size=(200, 3))
        assert sklearn_like_two_point(X, 0.6) == brute.brute_two_point(X, 0.6)

    def test_matches_portal(self, rng):
        from repro.problems import two_point_correlation

        X = rng.normal(size=(250, 3))
        assert sklearn_like_two_point(X, 0.5) == two_point_correlation(X, 0.5)


class TestMlpackLikeNBC:
    def test_correct_on_separable(self, rng):
        X = np.concatenate([rng.normal(-4, 1, (80, 3)),
                            rng.normal(4, 1, (80, 3))])
        y = np.array([0] * 80 + [1] * 80)
        clf = MlpackLikeNBC().fit(X, y)
        assert clf.score(X, y) > 0.98

    def test_agrees_with_portal(self, rng):
        from repro.problems import naive_bayes_fit

        X = np.concatenate([rng.normal(-2, 1, (100, 4)),
                            rng.normal(2, 1, (100, 4))])
        y = np.array([0] * 100 + [1] * 100)
        ours = naive_bayes_fit(X, y).predict(X)
        ref = MlpackLikeNBC().fit(X, y).predict(X)
        assert np.mean(ours == ref) > 0.99


class TestFdpsLikeBH:
    def test_theta_zero_exact(self, rng):
        pos = rng.normal(size=(150, 3))
        mass = rng.uniform(0.5, 2.0, 150)
        a = fdps_like_forces(pos, mass, theta=0.0)
        assert np.allclose(a, brute.brute_forces(pos, mass), rtol=1e-9)

    def test_matches_portal_bh_accuracy(self, rng):
        from repro.baselines.expert import (
            expert_barnes_hut as barnes_hut_acceleration,
        )

        pos = rng.normal(size=(300, 3))
        mass = np.ones(300)
        exact = brute.brute_forces(pos, mass)
        a_f = fdps_like_forces(pos, mass, theta=0.4)
        a_p = barnes_hut_acceleration(pos, mass, theta=0.4)
        err_f = np.linalg.norm(a_f - exact) / np.linalg.norm(exact)
        err_p = np.linalg.norm(a_p - exact) / np.linalg.norm(exact)
        assert err_f < 0.05 and err_p < 0.05


class TestBruteInternals:
    def test_pairwise_sqdist_nonnegative(self, rng):
        Q = rng.normal(size=(50, 4)) * 100
        d2 = brute.pairwise_sqdist(Q, Q)
        assert (d2 >= 0).all()
        assert np.allclose(np.diag(d2), 0.0, atol=1e-8)

    def test_knn_recomputed_distances_exact(self):
        # Identical far-away points: cancellation-prone for the dot trick.
        X = np.full((6, 5), 18.374040649374773)
        d, _ = brute.brute_knn(X[:3], X, k=1)
        assert np.all(d == 0.0)

    def test_potential_matches_direct(self, rng):
        pos = rng.normal(size=(60, 3))
        mass = rng.uniform(1, 2, 60)
        phi = brute.brute_potential(pos, mass, eps=1e-3)
        diff = pos[:, None, :] - pos[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", diff, diff) + 1e-6
        k = mass[None, :] / np.sqrt(r2)
        np.fill_diagonal(k, 0.0)
        assert np.allclose(phi, k.sum(axis=1))
