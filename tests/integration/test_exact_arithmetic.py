"""One arithmetic on every backend: the emitted code, the brute-force path
and the IR interpreter compute what float64 NumPy computes — no
approximate square root, and constants that fold to NaN or a complex
number left for runtime rather than crashing the compile."""

import numpy as np
import pytest

from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage, Var, pow, sqrt

BACKENDS = ("vectorized", "brute", "interp")


@pytest.fixture
def qr():
    rng = np.random.default_rng(26)
    return rng.normal(size=(40, 3)), rng.normal(size=(50, 3))


@pytest.mark.parametrize("backend", BACKENDS)
def test_sum_of_distances_is_exact(qr, backend):
    # SUM is not order-based, so sqrt stays in the hot path (no monotone
    # deferral): every pair's distance goes through the emitted sqrt.
    Q, R = qr
    e = PortalExpr("sum-dist")
    e.addLayer(PortalOp.FORALL, Storage(Q, name="q"))
    e.addLayer(PortalOp.SUM, Storage(R, name="r"), PortalFunc.EUCLIDEAN)
    got = np.asarray(e.execute(backend=backend).values)
    want = np.sqrt(((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1)).sum(1)
    assert np.max(np.abs(got - want) / want) <= 1e-12


@pytest.mark.parametrize("backend", BACKENDS)
def test_constant_negative_power_is_nan_everywhere(qr, backend):
    # pow(-8, 0.5) is NaN in float64 NumPy; folding it used to make a
    # complex constant and crash every backend's compile.
    Q, R = qr
    q, r = Var("q"), Var("r")
    e = PortalExpr("neg-pow")
    e.addLayer(PortalOp.FORALL, q, Storage(Q, name="q"))
    e.addLayer(PortalOp.SUM, r, Storage(R, name="r"),
               sqrt(pow(q - r, 2)) + pow(-8.0, 0.5))
    with np.errstate(invalid="ignore"):
        out = np.asarray(e.execute(backend=backend).values)
    assert out.shape == (len(Q),) and np.all(np.isnan(out))
