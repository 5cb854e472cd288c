"""Exact winners: every comparative reduction's values are the
difference form's, whatever arithmetic selected them.

The block kernels select with the augmented GEMM at every d (squared
Euclidean, not an indicator), whose rounding depends on the block
shape.  ``State.finalize`` then re-evaluates each kept (query, id) pair
once in the difference form, summed in dimension order
(:func:`repro.backend.state.exact_winners`).  So a duplicate's distance
is exactly 0 at every d and far from the origin, and comparative values
are bitwise equal across engines, executors, shards, leaf sizes and
brute force.
"""

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.backend.state import exact_winners
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.problems import directed_hausdorff, knn

from tests.contract import assert_ranked_equal

DIMS = [1, 2, 3, 4, 5, 9]
OFFSETS = [0.0, 1e4]


def _points(n, dim, seed, offset=0.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)) + offset


def _nearest(Q, R, **options):
    """The ``nearest`` program: each query row's MIN distance."""
    expr = PortalExpr("nearest")
    expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    expr.addLayer(PortalOp.MIN, Storage(R, name="reference"),
                  PortalFunc.EUCLIDEAN)
    out = expr.execute(**options)
    assert out.indices is None   # MIN keeps ids in state, not in its output
    return np.asarray(out.values)


def _dimension_order(Q, R):
    """``|q − r|`` for every pair, squared and summed in dimension order."""
    diff = Q[:, None, :] - R[None, :, :]
    t = diff[..., 0] * diff[..., 0]
    for c in range(1, Q.shape[1]):
        t += diff[..., c] * diff[..., c]
    return np.sqrt(t)


# -- duplicates and identical sets --------------------------------------------

@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("dim", DIMS)
def test_identical_sets_give_exact_zero(dim, offset):
    """Each row of A is in A: its nearest distance is exactly 0 for
    k-NN (first column), the ``nearest`` program and the directed
    Hausdorff distance — never the GEMM's rounding of 0."""
    A = _points(400, dim, 1, offset)
    d, i = knn(A, A, k=2)
    assert (d[:, 0] == 0.0).all()
    assert np.array_equal(i[:, 0], np.arange(len(A)))
    assert (_nearest(A, A) == 0.0).all()
    assert directed_hausdorff(A, A) == 0.0


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("dim", [3, 9])
def test_duplicates_give_exact_zero_and_unfilled_slots_stay_empty(dim,
                                                                  offset):
    """A self-join over a set holding every point twice: each row's
    nearest other point is its duplicate, at exactly 0.  At k = n the
    K-array is wider than the n − 1 references a row may take, and its
    unfilled slot stays ``inf`` / −1 through the re-evaluation."""
    B = _points(150, dim, 2, offset)
    D = np.concatenate([B, B])
    n = len(D)
    twin = np.concatenate([np.arange(150, n), np.arange(150)])
    d, i = knn(D, k=1)
    assert (d == 0.0).all() and np.array_equal(i, twin)
    d, i = knn(D, k=n)
    assert (d[:, 0] == 0.0).all()
    assert np.isinf(d[:, -1]).all() and (i[:, -1] == -1).all()
    assert np.isfinite(d[:, :-1]).all() and (i[:, :-1] >= 0).all()
    assert (np.diff(d, axis=1) >= 0).all()


# -- bitwise across every plan ------------------------------------------------

PLANS = {
    "stack": {"traversal": "stack"},
    "thread": {"parallel": True, "workers": 2, "executor": "thread"},
    "process": {"parallel": True, "workers": 2, "executor": "process"},
    "shards2": {"shards": 2},
    "leaf16": {"leaf_size": 16},
    "brute": {"backend": "brute"},
}
#: name → (outer, inner, its values from every pair's distance)
PROGRAMS = {
    "knn": (PortalOp.FORALL, (PortalOp.KARGMIN, 4),
            lambda full: np.sort(full, axis=1)[:, :4]),
    "kmax": (PortalOp.FORALL, (PortalOp.KMAX, 3),
             lambda full: np.sort(full, axis=1)[:, ::-1][:, :3]),
    "argmax": (PortalOp.FORALL, PortalOp.ARGMAX,
               lambda full: full.max(axis=1)),
    "nearest": (PortalOp.FORALL, PortalOp.MIN,
                lambda full: full.min(axis=1)),
    "hausdorff": (PortalOp.MAX, PortalOp.MIN,
                  lambda full: full.min(axis=1).max()),
}


def _run(name, Q, R, **options):
    outer, inner, _ = PROGRAMS[name]
    clear_caches()
    expr = PortalExpr(name)
    expr.addLayer(outer, Storage(Q, name="query"))
    expr.addLayer(inner, Storage(R, name="reference"), PortalFunc.EUCLIDEAN)
    out = expr.execute(**options)
    return out.scalar if out.scalar is not None else out


@pytest.mark.parametrize("dim", [3, 9])
@pytest.mark.parametrize("name", PROGRAMS)
def test_values_bitwise_across_plans(name, dim):
    """Every plan's values are, bit for bit, the difference form's over
    every pair summed in dimension order; ids agree up to exact ties."""
    Q, R = _points(240, dim, 3, 50.0), _points(300, dim, 4, 50.0)
    want = PROGRAMS[name][2](_dimension_order(Q, R))
    default = _run(name, Q, R)
    for plan in (None, *PLANS.values()):
        got = default if plan is None else _run(name, Q, R, **plan)
        if np.ndim(want) == 0:
            assert got == want
            continue
        assert np.array_equal(np.asarray(got.values), want)
        if got.indices is not None:
            assert_ranked_equal(got.values, default.values, got.indices,
                                default.indices)


# -- the re-evaluation itself -------------------------------------------------

def test_exact_winners_skips_unfilled_slots_and_resorts_stably():
    """Kept values are replaced by ``exact(ids)``; −1 slots keep their
    identity; each k-array is re-sorted stably, descending for the max
    forms, its ids carried along."""
    best = np.array([[1.0, 2.0, 3.0, np.inf], [1.0, 1.0, np.inf, np.inf]])
    ids = np.array([[10, 11, 12, -1], [20, 21, -1, -1]])
    exact = {10: 2.5, 11: 2.0, 12: 2.5, 20: 7.0, 21: 7.0}

    def fake(refs):
        return np.vectorize(lambda r: exact.get(r, np.nan))(refs)

    vals, got = exact_winners(best, ids, fake, descending=False)
    assert vals.tolist() == [[2.0, 2.5, 2.5, np.inf],
                             [7.0, 7.0, np.inf, np.inf]]
    assert got.tolist() == [[11, 10, 12, -1], [20, 21, -1, -1]]
    assert best[0, 0] == 1.0   # the state's own arrays are left alone

    top = np.array([[3.0, 2.0, -np.inf]])
    vals, got = exact_winners(top, np.array([[10, 11, -1]]), fake,
                              descending=True)
    assert vals.tolist() == [[2.5, 2.0, -np.inf]]
    assert got.tolist() == [[10, 11, -1]]

    one = np.array([1.0, np.inf])
    vals, got = exact_winners(one, np.array([20, -1]), fake,
                              descending=False)
    assert vals.tolist() == [7.0, np.inf] and got.tolist() == [20, -1]
