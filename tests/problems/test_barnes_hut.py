"""Tests for Barnes-Hut: force accuracy vs θ, potentials, integration."""

import numpy as np
import pytest

from repro.baselines import brute
from repro.baselines.expert import (
    expert_barnes_hut as barnes_hut_acceleration, leapfrog_step,
)
from repro.problems import barnes_hut_potential


@pytest.fixture
def rng():
    return np.random.default_rng(23)


@pytest.fixture
def system(rng):
    pos = rng.normal(size=(400, 3))
    mass = rng.uniform(0.5, 2.0, size=400)
    return pos, mass


def rel_force_err(approx, exact):
    return np.linalg.norm(approx - exact) / np.linalg.norm(exact)


class TestAcceleration:
    def test_theta_zero_is_exact(self, system):
        pos, mass = system
        a = barnes_hut_acceleration(pos, mass, theta=0.0)
        assert np.allclose(a, brute.brute_forces(pos, mass), rtol=1e-10)

    def test_error_small_at_half_theta(self, system):
        pos, mass = system
        a = barnes_hut_acceleration(pos, mass, theta=0.5)
        assert rel_force_err(a, brute.brute_forces(pos, mass)) < 0.02

    def test_error_decreases_with_theta(self, system):
        pos, mass = system
        exact = brute.brute_forces(pos, mass)
        errs = [
            rel_force_err(barnes_hut_acceleration(pos, mass, theta=t), exact)
            for t in (1.0, 0.5, 0.2)
        ]
        assert errs[0] >= errs[1] >= errs[2]

    def test_approximation_actually_used(self, system):
        pos, mass = system
        _, stats = barnes_hut_acceleration(pos, mass, theta=0.7,
                                           return_stats=True)
        assert stats.approximated > 0

    def test_momentum_conserved_with_equal_masses(self, rng):
        # With exact pairwise forces (θ=0) total momentum change is 0.
        pos = rng.normal(size=(100, 3))
        mass = np.ones(100)
        a = barnes_hut_acceleration(pos, mass, theta=0.0)
        assert np.allclose((mass[:, None] * a).sum(axis=0), 0.0, atol=1e-8)

    def test_2d_systems(self, rng):
        pos = rng.normal(size=(150, 2))
        mass = np.ones(150)
        a = barnes_hut_acceleration(pos, mass, theta=0.3)
        exact = brute.brute_forces(pos, mass)
        assert rel_force_err(a, exact) < 0.02

    def test_dim_guard(self, rng):
        with pytest.raises(ValueError, match="d <= 3"):
            barnes_hut_acceleration(rng.normal(size=(10, 4)), np.ones(10))

    def test_mass_length_guard(self, rng):
        with pytest.raises(ValueError, match="length"):
            barnes_hut_acceleration(rng.normal(size=(10, 3)), np.ones(9))

    def test_quadrupole_reduces_error(self, system):
        pos, mass = system
        exact = brute.brute_forces(pos, mass)
        e1 = rel_force_err(
            barnes_hut_acceleration(pos, mass, theta=0.7, order=1), exact)
        e2 = rel_force_err(
            barnes_hut_acceleration(pos, mass, theta=0.7, order=2), exact)
        assert e2 < e1

    def test_quadrupole_exact_at_theta_zero(self, system):
        pos, mass = system
        a = barnes_hut_acceleration(pos, mass, theta=0.0, order=2)
        assert np.allclose(a, brute.brute_forces(pos, mass), rtol=1e-10)

    def test_quadrupole_of_symmetric_node_small(self, rng):
        # A node whose mass distribution is spherically symmetric has a
        # (numerically) tiny traceless quadrupole.
        from repro.baselines.expert.barnes_hut import _node_quadrupoles
        from repro.trees import build_octree

        v = rng.normal(size=(5000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        tree = build_octree(v, leaf_size=5000, weights=np.ones(5000))
        Q = _node_quadrupoles(tree)[0]
        assert np.abs(Q).max() / 5000 < 0.05
        assert abs(np.trace(Q)) / 5000 < 0.05   # traceless by construction

    def test_bad_order_rejected(self, system):
        pos, mass = system
        with pytest.raises(ValueError, match="order"):
            barnes_hut_acceleration(pos, mass, order=3)


class TestPotentialDSL:
    def test_matches_brute(self, system):
        pos, mass = system
        phi = barnes_hut_potential(pos, mass, theta=0.3)
        exact = brute.brute_potential(pos, mass)
        assert np.abs(phi - exact).max() / exact.max() < 0.01

    def test_uses_octree_and_mac(self, system):
        from repro.dsl import PortalExpr

        pos, mass = system
        phi = barnes_hut_potential(pos, mass, theta=0.5)
        assert phi.shape == (400,)


class TestIntegration:
    def test_leapfrog_two_body_orbit(self):
        # Circular two-body orbit: radius should stay bounded.
        pos = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        mass = np.array([1.0, 1.0])
        # v for circular orbit: a = G m / (2r)^2, v = sqrt(a r).
        v = np.sqrt(1.0 / 4.0)
        vel = np.array([[0.0, v, 0.0], [0.0, -v, 0.0]])
        p, w = pos.copy(), vel.copy()
        for _ in range(200):
            p, w = leapfrog_step(p, w, mass, dt=0.05, theta=0.0, eps=1e-6)
        r = np.linalg.norm(p[0] - p[1])
        assert 1.0 < r < 3.0  # stays in a bounded orbit
