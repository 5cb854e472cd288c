"""Integration: the compiler pipeline end-to-end — IR stage dumps carry
the expected transformations for the paper's two worked examples (nearest
neighbor, Fig. 2; KDE, Fig. 3), and the generated artifacts agree with
the IR interpreter on the same inputs."""

import numpy as np
import pytest

from repro.backend.interp import base_case_env, interpret_function
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage


@pytest.fixture
def rng():
    return np.random.default_rng(26)


def nn_program(rng, n=30):
    Q = rng.normal(size=(n, 3))
    R = rng.normal(size=(n + 5, 3))
    e = PortalExpr("nearest-neighbor")
    e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    e.addLayer(PortalOp.ARGMIN, Storage(R, name="reference"),
               PortalFunc.EUCLIDEAN)
    return Q, R, e


def kde_program(rng, n=30):
    Q = rng.normal(size=(n, 3))
    R = rng.normal(size=(n + 5, 3))
    e = PortalExpr("kernel-density-estimation")
    e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    e.addLayer(PortalOp.SUM, Storage(R, name="reference"),
               PortalFunc.GAUSSIAN, bandwidth=1.0)
    return Q, R, e


class TestFig2NearestNeighbor:
    def test_stage_progression(self, rng):
        _, _, e = nn_program(rng)
        e.compile()
        lowered = e.ir_dump("lowered")
        final = e.ir_dump("final")
        # Lowered: pow calls and 2-D loads (blue boxes of Fig. 2).
        assert "pow(" in lowered
        # Final: flattened strided loads + strength-reduced forms (yellow
        # and green boxes of Fig. 2); sqrt stays exact (DESIGN.md S7).
        assert "stride" in final
        assert "sqrt(" in final and "fast_inverse_sqrt" not in final
        assert "pow(" not in final

    def test_prune_problem_has_no_approximation(self, rng):
        _, _, e = nn_program(rng)
        e.compile()
        assert e.program.classification.is_pruning
        assert "no approximation" in e.ir_dump("final")

    def test_no_numerical_optimisation_for_nn(self, rng):
        """Fig. 2 note: NN doesn't use Mahalanobis, so the numerical
        optimisation pass must not fire."""
        _, _, e = nn_program(rng)
        e.compile()
        pm = e.program.ir()
        assert pm.stage("numopt").meta["numerical_optimized"] is False


class TestFig3KDE:
    def test_gaussian_in_ir(self, rng):
        _, _, e = kde_program(rng)
        e.compile()
        assert "exp(" in e.ir_dump("lowered")

    def test_approximation_machinery_present(self, rng):
        _, _, e = kde_program(rng)
        e.compile(tau=1e-3)
        final = e.ir_dump("final")
        assert "band_hi" in final or "band_lo" in final
        assert "node_weight" in final

    def test_mahalanobis_numopt_fires_for_mahalanobis_kde(self, rng):
        Q = rng.normal(size=(20, 3))
        e = PortalExpr("kde-mahalanobis")
        e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        e.addLayer(PortalOp.MIN, Storage(Q.copy(), name="reference"),
                   PortalFunc.MAHALANOBIS, covariance=np.eye(3))
        e.compile()
        pm = e.program.ir()
        assert pm.stage("numopt").meta["numerical_optimized"] is True
        assert "cholesky" in e.ir_dump("numopt")


class TestInterpreterAgreement:
    def test_nn_interpreter_matches_vectorized(self, rng):
        Q, R, e = nn_program(rng, n=20)
        out = e.execute()
        env = base_case_env("query", "reference", Q, R, "column", "column")
        interpret_function(
            e.program.ir().stage("final")["BaseCase"], env
        )
        # Interpreter stores argmin indices in reference order.
        d = np.sqrt(((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1))
        assert np.array_equal(env["storage0"].astype(int), out.indices)

    def test_kde_interpreter_matches_vectorized(self, rng):
        Q, R, e = kde_program(rng, n=20)
        out = e.execute(tau=0.0, exclude_self=False)
        env = base_case_env("query", "reference", Q, R, "column", "column")
        interpret_function(
            e.program.ir().stage("final")["BaseCase"], env
        )
        assert np.allclose(env["storage0"], out.values)
