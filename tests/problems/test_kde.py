"""Tests for kernel density estimation: accuracy under the τ knob."""

import math

import numpy as np
import pytest

from repro.baselines import brute
from repro.problems import kde


@pytest.fixture
def rng():
    return np.random.default_rng(16)


class TestCorrectness:
    def test_tau_zero_is_exact(self, small_qr):
        Q, R = small_qr
        out = kde(Q, R, bandwidth=1.0, tau=0.0)
        assert np.allclose(out, brute.brute_kde(Q, R, 1.0))

    def test_error_bounded_by_tau_times_n(self, small_qr):
        Q, R = small_qr
        tau = 1e-3
        out = kde(Q, R, bandwidth=1.0, tau=tau)
        exact = brute.brute_kde(Q, R, 1.0)
        assert np.abs(out - exact).max() <= tau * len(R) + 1e-9

    def test_larger_tau_less_exact_work(self, rng):
        X = rng.uniform(0, 10, size=(800, 3))
        from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage

        stats = {}
        for tau in (1e-6, 1e-2):
            e = PortalExpr()
            s = Storage(X)
            e.addLayer(PortalOp.FORALL, s)
            e.addLayer(PortalOp.SUM, s, PortalFunc.GAUSSIAN, bandwidth=0.5)
            e.execute(tau=tau, leaf_size=16, exclude_self=False)
            stats[tau] = e.program.stats
        assert stats[1e-2].base_case_pairs < stats[1e-6].base_case_pairs
        assert stats[1e-6].approximated > 0

    def test_weighted(self, small_qr):
        Q, R = small_qr
        w = np.random.default_rng(0).uniform(0.5, 2.0, len(R))
        out = kde(Q, R, bandwidth=1.0, tau=0.0, weights=w)
        assert np.allclose(out, brute.brute_kde(Q, R, 1.0, weights=w))

    def test_normalized_integrates_sensibly(self, rng):
        X = rng.normal(size=(500, 2))
        dens = kde(X, bandwidth=0.5, tau=0.0, normalize=True)
        # Density should be positive and of plausible magnitude for N(0, I).
        assert (dens > 0).all()
        peak = 1.0 / (2 * math.pi)  # true density at origin ~0.159
        assert dens.max() < 3 * peak

    def test_high_dim_row_major(self, small_highdim):
        Q, R = small_highdim
        out = kde(Q, R, bandwidth=2.0, tau=0.0)
        assert np.allclose(out, brute.brute_kde(Q, R, 2.0))

    def test_self_density_includes_self(self, rng):
        X = rng.normal(size=(100, 2))
        out = kde(X, bandwidth=1.0, tau=0.0)
        # exclude_self defaults to False for KDE: each point contributes
        # K(0)=1 to itself.
        assert (out >= 1.0 - 1e-9).all()
