"""Compiler fuzzing: random 2-layer Portal programs must produce
identical results through the tree path and the dense path.

This is the strongest whole-compiler property we can state: for *any*
supported (operator, metric, dimensionality, self-join) combination,
pruning and approximation decisions never change the answer (pruning
problems) or violate the τ bound (approximation problems).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage

pytestmark = pytest.mark.slow

REDUCTIONS = [
    PortalOp.ARGMIN, PortalOp.ARGMAX, PortalOp.MIN, PortalOp.MAX,
    PortalOp.SUM,
]
METRICS = [
    PortalFunc.EUCLIDEAN, PortalFunc.SQREUCDIST, PortalFunc.MANHATTAN,
    PortalFunc.CHEBYSHEV,
]


def run_program(Q, R, op, metric, k, self_join, backend, leaf_size):
    qs = Storage(Q, name="q")
    rs = qs if self_join else Storage(R, name="r")
    e = PortalExpr()
    e.addLayer(PortalOp.FORALL, qs)
    spec = (op, k) if k is not None else op
    e.addLayer(spec, rs, metric)
    out = e.execute(backend=backend, leaf_size=leaf_size)
    return out


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nq=st.integers(5, 50),
    nr=st.integers(5, 50),
    dim=st.integers(1, 7),
    op_i=st.integers(0, len(REDUCTIONS) - 1),
    metric_i=st.integers(0, len(METRICS) - 1),
    use_k=st.booleans(),
    self_join=st.booleans(),
    leaf=st.sampled_from([2, 4, 8, 16]),
)
def test_tree_equals_brute_on_random_programs(
    seed, nq, nr, dim, op_i, metric_i, use_k, self_join, leaf
):
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(nq, dim)) * rng.uniform(0.1, 10)
    R = Q if self_join else rng.normal(size=(nr, dim)) * rng.uniform(0.1, 10)

    op = REDUCTIONS[op_i]
    metric = METRICS[metric_i]
    k = None
    if use_k and op in (PortalOp.ARGMIN, PortalOp.ARGMAX):
        op = PortalOp.KARGMIN if op is PortalOp.ARGMIN else PortalOp.KARGMAX
        k = min(3, (nq if self_join else nr) - 1)
        if k < 1:
            k = 1

    tree = run_program(Q, R, op, metric, k, self_join, "vectorized", leaf)
    brute = run_program(Q, R, op, metric, k, self_join, "brute", leaf)

    tv = np.asarray(tree.values, dtype=float)
    bv = np.asarray(brute.values, dtype=float)
    # Values must agree to numerical noise (the two paths may use
    # different but equally-exact arithmetic orders).
    assert np.allclose(tv, bv, rtol=1e-8, atol=1e-8), (
        f"op={op} metric={metric} self_join={self_join}"
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(20, 80),
    dim=st.integers(1, 5),
    tau=st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]),
)
def test_kde_tau_bound_on_random_programs(seed, n, dim, tau):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim)) * rng.uniform(0.1, 5)
    bw = float(X.std()) + 0.1
    s = Storage(X)

    def run(backend):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, s)
        e.addLayer(PortalOp.SUM, s, PortalFunc.GAUSSIAN, bandwidth=bw)
        return e.execute(backend=backend, tau=tau,
                         leaf_size=4, exclude_self=False).values

    tree = run("vectorized")
    dense = run("brute")
    assert np.abs(tree - dense).max() <= tau * n + 1e-9


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(10, 60),
    dim=st.integers(1, 5),
    h=st.floats(0.1, 5.0),
)
def test_counting_is_exact_on_random_programs(seed, n, dim, h):
    from repro.baselines import brute
    from repro.problems import two_point_correlation

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    assert two_point_correlation(X, h, leaf_size=4) == \
        brute.brute_two_point(X, h)
