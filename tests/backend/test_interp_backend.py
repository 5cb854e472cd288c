"""Tests for ``backend='interp'``: the IR interpreter as a real backend."""

import numpy as np
import pytest

from repro.dsl import (
    CompileError, PortalExpr, PortalFunc, PortalOp, Storage, Var, indicator,
    pow, sqrt,
)
from repro.baselines import brute


@pytest.fixture
def rng():
    return np.random.default_rng(35)


def build(rng, inner_op, func=PortalFunc.EUCLIDEAN, outer_op=PortalOp.FORALL,
          nq=12, nr=15, **params):
    Q = rng.normal(size=(nq, 3))
    R = rng.normal(size=(nr, 3))
    e = PortalExpr()
    e.addLayer(outer_op, Storage(Q, name="query"))
    e.addLayer(inner_op, Storage(R, name="reference"), func, **params)
    return Q, R, e


class TestInterpBackend:
    def test_argmin(self, rng):
        Q, R, e = build(rng, PortalOp.ARGMIN)
        out = e.execute(backend="interp")
        _, ib = brute.brute_knn(Q, R, k=1)
        assert np.array_equal(out.indices, ib)
        assert e.program.mode == "interp"

    def test_min_values(self, rng):
        Q, R, e = build(rng, PortalOp.MIN)
        out = e.execute(backend="interp")
        db, _ = brute.brute_knn(Q, R, k=1)
        assert np.allclose(out.values, db)

    def test_sum_gaussian(self, rng):
        Q, R, e = build(rng, PortalOp.SUM, PortalFunc.GAUSSIAN, bandwidth=1.2)
        out = e.execute(backend="interp")
        assert np.allclose(out.values, brute.brute_kde(Q, R, 1.2))

    def test_kargmin_matrix(self, rng):
        Q, R, e = build(rng, (PortalOp.KARGMIN, 3))
        out = e.execute(backend="interp")
        _, ib = brute.brute_knn(Q, R, k=3)
        assert np.array_equal(np.asarray(out.indices), ib)

    def test_outer_max_scalar(self, rng):
        Q, R, e = build(rng, PortalOp.MIN, outer_op=PortalOp.MAX)
        out = e.execute(backend="interp")
        assert out.scalar == pytest.approx(brute.brute_hausdorff(Q, R))

    def test_unionarg_lists(self, rng):
        Q = rng.normal(size=(10, 3))
        R = rng.normal(size=(12, 3))
        q, r = Var("q"), Var("r")
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
        e.addLayer(PortalOp.UNIONARG, r, Storage(R, name="reference"),
                   indicator(sqrt(pow(q - r, 2)) < 1.2))
        out = e.execute(backend="interp")
        expected = brute.brute_range_search(Q, R, 1.2)
        for got, exp in zip(out.indices, expected):
            assert np.array_equal(got, np.sort(exp))

    def test_agrees_with_vectorized(self, rng):
        Q, R, e = build(rng, PortalOp.SUM, PortalFunc.GAUSSIAN, bandwidth=0.9)
        interp = e.execute(backend="interp").values
        e2 = PortalExpr()
        e2.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        e2.addLayer(PortalOp.SUM, Storage(R, name="reference"),
                    PortalFunc.GAUSSIAN, bandwidth=0.9)
        fast = e2.execute(backend="vectorized", tau=0.0,
                          exclude_self=False).values
        assert np.allclose(interp, fast)

    def test_mahalanobis_through_numopt_ir(self, rng):
        cov = np.diag([1.0, 2.0, 4.0])
        Q, R, e = build(rng, PortalOp.MIN, PortalFunc.MAHALANOBIS,
                        covariance=cov)
        out = e.execute(backend="interp")
        diff = Q[:, None, :] - R[None, :, :]
        maha = np.einsum("ijk,kl,ijl->ij", diff, np.linalg.inv(cov), diff)
        assert np.allclose(out.values, maha.min(axis=1))

    def test_external_kernel_rejected(self, rng):
        Q = Storage(rng.normal(size=(8, 2)))
        R = Storage(rng.normal(size=(8, 2)))
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Q)
        e.addLayer(PortalOp.SUM, R, lambda A, B: np.ones((len(A), len(B))))
        with pytest.raises(CompileError, match="interpreter backend"):
            e.execute(backend="interp")
