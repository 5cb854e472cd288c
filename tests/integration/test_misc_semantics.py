"""Integration coverage for the less-travelled operator paths and
execution configurations."""

import numpy as np
import pytest

from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, Storage, Var, indicator, pow, sqrt,
)


@pytest.fixture
def rng():
    return np.random.default_rng(28)


class TestUnionValues:
    def test_union_collects_passing_values(self, rng):
        # UNION with an indicator kernel collects the kernel values (1.0)
        # of passing pairs — its length equals the range count.
        Q = rng.normal(size=(40, 3))
        R = rng.normal(size=(50, 3))
        q, r = Var("q"), Var("r")
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, q, Storage(Q))
        e.addLayer(PortalOp.UNION, r, Storage(R),
                   indicator(sqrt(pow(q - r, 2)) < 1.0))
        out = e.execute()
        d = np.sqrt(((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1))
        for i, vals in enumerate(out.values):
            assert len(vals) == int((d[i] < 1.0).sum())
            assert all(v == 1.0 for v in np.atleast_1d(vals)) or len(vals) == 0


class TestKMaxFamilies:
    def test_kmax_keeps_largest_sorted_desc(self, rng):
        Q = rng.normal(size=(25, 3))
        R = rng.normal(size=(30, 3))
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(Q))
        e.addLayer((PortalOp.KMAX, 4), Storage(R), PortalFunc.EUCLIDEAN)
        out = e.execute()
        d = np.sqrt(((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1))
        expected = np.sort(d, axis=1)[:, ::-1][:, :4]
        assert np.allclose(out.values, expected)
        assert np.all(np.diff(out.values, axis=1) <= 1e-12)

    def test_kargmax_indices(self, rng):
        Q = rng.normal(size=(20, 3))
        R = rng.normal(size=(25, 3))
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(Q))
        e.addLayer((PortalOp.KARGMAX, 3), Storage(R), PortalFunc.EUCLIDEAN)
        out = e.execute()
        d = np.sqrt(((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1))
        expected_vals = np.sort(d, axis=1)[:, ::-1][:, :3]
        got_vals = np.take_along_axis(d, np.asarray(out.indices), axis=1)
        assert np.allclose(got_vals, expected_vals)

    def test_kmin_equals_kargmin_values(self, rng):
        Q = rng.normal(size=(20, 3))
        R = rng.normal(size=(25, 3))

        def run(op):
            e = PortalExpr()
            e.addLayer(PortalOp.FORALL, Storage(Q))
            e.addLayer((op, 3), Storage(R), PortalFunc.EUCLIDEAN)
            return e.execute().values

        assert np.allclose(run(PortalOp.KMIN), run(PortalOp.KARGMIN))


class TestOtherMetricsEndToEnd:
    @pytest.mark.parametrize("func,reduce_fn", [
        (PortalFunc.MANHATTAN, lambda D: np.abs(D).sum(-1)),
        (PortalFunc.CHEBYSHEV, lambda D: np.abs(D).max(-1)),
    ])
    def test_min_distance(self, rng, func, reduce_fn):
        Q = rng.normal(size=(40, 3))
        R = rng.normal(size=(50, 3))
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(Q))
        e.addLayer(PortalOp.MIN, Storage(R), func)
        out = e.execute()
        D = Q[:, None, :] - R[None, :, :]
        assert np.allclose(out.values, reduce_fn(D).min(axis=1))

    def test_manhattan_high_dim(self, rng):
        Q = rng.normal(size=(30, 7))
        R = rng.normal(size=(35, 7))
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(Q))
        e.addLayer(PortalOp.MIN, Storage(R), PortalFunc.MANHATTAN)
        out = e.execute()
        D = np.abs(Q[:, None, :] - R[None, :, :]).sum(-1)
        assert np.allclose(out.values, D.min(axis=1))


class TestOctreeThroughDSL:
    def test_knn_on_octree(self, rng):
        X = rng.normal(size=(200, 3))
        e = PortalExpr()
        s = Storage(X)
        e.addLayer(PortalOp.FORALL, s)
        e.addLayer(PortalOp.ARGMIN, s, PortalFunc.EUCLIDEAN)
        out = e.execute(tree="octree")
        d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        assert np.allclose(out.values, d.min(axis=1))


class TestProdOperator:
    def test_prod_of_kernel_values(self, rng):
        # Π over a kernel bounded in (0, 1]: product of Gaussians.
        Q = rng.normal(size=(10, 3))
        R = rng.normal(size=(12, 3))
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(Q))
        e.addLayer(PortalOp.PROD, Storage(R), PortalFunc.GAUSSIAN,
                   bandwidth=2.0)
        out = e.execute(exclude_self=False)
        d2 = ((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1)
        expected = np.exp(-d2 / 8.0).prod(axis=1)
        assert np.allclose(out.values, expected, rtol=1e-6)


class TestIrStagesAccessor:
    def test_ir_stages_renders_all(self, rng):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(20, 3))))
        e.addLayer(PortalOp.ARGMIN, Storage(rng.normal(size=(20, 3))),
                   PortalFunc.EUCLIDEAN)
        prog = e.compile()
        text = prog.ir_stages("BaseCase")
        for stage in ("lowered", "flattened", "numopt", "strength", "final"):
            assert f"stage: {stage}" in text
