"""The IR interpreter as reference semantics: interpreting the *final*
(optimised) BaseCase IR over full datasets must match an independent
NumPy brute-force computation — proving the pass pipeline preserves the
program's meaning end-to-end."""

import numpy as np
import pytest

from repro.backend.interp import base_case_env, interpret_function
from repro.baselines import brute
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage


@pytest.fixture
def rng():
    return np.random.default_rng(9)


def compiled(rng, inner_op, nq=15, nr=18, d=3, func=PortalFunc.EUCLIDEAN,
             **params):
    Q = rng.normal(size=(nq, d))
    R = rng.normal(size=(nr, d))
    e = PortalExpr("t")
    e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    e.addLayer(inner_op, Storage(R, name="reference"), func, **params)
    prog = e.compile()
    return Q, R, prog


def run_base_case(prog, Q, R, extra=None):
    env = base_case_env("query", "reference", Q, R,
                        "column" if Q.shape[1] <= 4 else "row",
                        "column" if R.shape[1] <= 4 else "row",
                        extra=extra)
    fn = prog.ir().stage("final")["BaseCase"]
    return interpret_function(fn, env)


class TestInterpreterVsBrute:
    def test_argmin_euclidean(self, rng):
        Q, R, prog = compiled(rng, PortalOp.ARGMIN)
        env = run_base_case(prog, Q, R)
        db, ib = brute.brute_knn(Q, R, k=1)
        assert np.array_equal(env["storage0"], ib.astype(float))

    def test_min_values(self, rng):
        Q, R, prog = compiled(rng, PortalOp.MIN)
        env = run_base_case(prog, Q, R)
        db, _ = brute.brute_knn(Q, R, k=1)
        assert np.allclose(env["storage0"], db)

    def test_sum_gaussian(self, rng):
        Q, R, prog = compiled(rng, PortalOp.SUM, func=PortalFunc.GAUSSIAN,
                              bandwidth=1.3)
        env = run_base_case(prog, Q, R)
        expected = brute.brute_kde(Q, R, bandwidth=1.3)
        assert np.allclose(env["storage0"], expected)

    def test_manhattan_min(self, rng):
        Q, R, prog = compiled(rng, PortalOp.MIN, func=PortalFunc.MANHATTAN)
        env = run_base_case(prog, Q, R)
        expected = np.abs(Q[:, None, :] - R[None, :, :]).sum(-1).min(1)
        assert np.allclose(env["storage0"], expected)

    def test_chebyshev_min(self, rng):
        Q, R, prog = compiled(rng, PortalOp.MIN, func=PortalFunc.CHEBYSHEV)
        env = run_base_case(prog, Q, R)
        expected = np.abs(Q[:, None, :] - R[None, :, :]).max(-1).min(1)
        assert np.allclose(env["storage0"], expected)

    def test_kargmin_rows(self, rng):
        Q, R, prog = compiled(rng, (PortalOp.KARGMIN, 3))
        env = run_base_case(prog, Q, R)
        db, ib = brute.brute_knn(Q, R, k=3)
        rows = env["storage0_rows"]
        got = np.array([rows[i] for i in range(len(Q))])
        assert np.array_equal(got, ib.astype(float))

    def test_row_major_highdim(self, rng):
        Q, R, prog = compiled(rng, PortalOp.ARGMIN, d=8)
        env = run_base_case(prog, Q, R)
        _, ib = brute.brute_knn(Q, R, k=1)
        assert np.array_equal(env["storage0"], ib.astype(float))

    def test_fastmath_ir_approximates(self, rng):
        # The final IR keeps the exact sqrt: no fast_inverse_sqrt call,
        # and the interpreted minima match brute force to rounding.
        Q, R, prog = compiled(rng, PortalOp.MIN)
        assert "fast_inverse_sqrt" not in prog.ir_dump("final")
        env = run_base_case(prog, Q, R)
        db, _ = brute.brute_knn(Q, R, k=1)
        assert np.allclose(env["storage0"], db, rtol=1e-12, atol=0)

    def test_mahalanobis_final_ir(self, rng):
        cov = np.eye(3) * 2.0
        Q, R, prog = compiled(rng, PortalOp.MIN, func=PortalFunc.MAHALANOBIS,
                              covariance=cov)
        env = run_base_case(prog, Q, R, extra={"Sigma": cov})
        diff = Q[:, None, :] - R[None, :, :]
        maha = np.einsum("ijk,kl,ijl->ij", diff, np.linalg.inv(cov), diff)
        assert np.allclose(env["storage0"], maha.min(1))

    def test_lowered_equals_final(self, rng):
        """Semantic preservation across the whole pipeline."""
        Q, R, prog = compiled(rng, PortalOp.MIN)
        env_low = base_case_env("query", "reference", Q, R, "column", "column")
        # The lowered stage has un-flattened 2-D loads: bind 2-D arrays.
        env_low["query_data"] = Q
        env_low["reference_data"] = R
        low = interpret_function(
            prog.ir().stage("lowered")["BaseCase"], env_low
        )["storage0"]
        final = run_base_case(prog, Q, R)["storage0"]
        assert np.allclose(low, final)


class TestInterpreterStatements:
    def test_union_dynamic_storage(self, rng):
        Q = rng.normal(size=(15, 3))
        R = rng.normal(size=(18, 3))
        from repro.dsl import Var, indicator, pow, sqrt

        q, r = Var("q"), Var("r")
        e = PortalExpr("u")
        e.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
        e.addLayer(PortalOp.UNIONARG, r, Storage(R, name="reference"),
                   indicator(sqrt(pow(q - r, 2)) < 1.0))
        prog = e.compile()
        env = run_base_case(prog, Q, R)
        rows = env["storage0_rows"]
        expected = brute.brute_range_search(Q, R, 1.0)
        for i in range(len(Q)):
            assert sorted(rows.get(i, [])) == sorted(expected[i].tolist())
