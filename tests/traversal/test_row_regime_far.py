"""The row regime far from the origin.

The row regime selects its candidates in the difference form
(``exact_values``), each coordinate's difference taken before it is
squared, so the neighbours it chooses do not depend on where the data
sits.  A norm expansion about the origin, ‖q‖² + ‖r‖² − 2q·r, loses
the distances to cancellation once ‖q‖² dwarfs them: at an offset of
1e6 its chosen squared distances were 1.4e-3 off the true k best, at
1e7 0.14.  These tests hold the chosen neighbours' exact squared
distances to brute force's k best in the difference form, bit for bit.
"""

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage

K = 5


def _dimension_order(Q, R):
    """Every squared distance ``|q − r|²`` summed in dimension order."""
    diff = Q[:, None, :] - R[None, :, :]
    t = diff[..., 0] * diff[..., 0]
    for c in range(1, Q.shape[1]):
        t += diff[..., c] * diff[..., c]
    return t


@pytest.mark.parametrize("d, offset", [(3, 0.0), (3, 1e4), (3, 1e6),
                                       (3, 1e7), (9, 1e7)])
def test_row_regime_picks_the_true_k_best(d, offset):
    rng = np.random.default_rng(17)
    R = rng.standard_normal((20_000, d)) + offset
    Q = rng.standard_normal((32, d)) + offset
    clear_caches()
    expr = PortalExpr("far-rows")
    expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    expr.addLayer((PortalOp.KARGMIN, K), Storage(R, name="reference"),
                  PortalFunc.EUCLIDEAN)
    out = expr.execute()
    assert expr.stats()["bounded"]["regime"] == "row"
    full = _dimension_order(Q, R)
    ids = np.asarray(out.indices)
    chosen = np.take_along_axis(full, ids, axis=1)
    assert np.array_equal(chosen, np.sort(full, axis=1)[:, :K])
    # the winners' values are those exact distances
    assert np.array_equal(np.asarray(out.values), np.sqrt(chosen))
