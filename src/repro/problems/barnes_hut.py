"""Barnes-Hut N-body simulation (paper Table III, validated against FDPS).

Portal specification: ``∀_q Σ_r f`` with the gravitational kernel
``f = G·M_q·M_r / (‖x_q − x_r‖² + ε²)`` and the multipole acceptance
approximation ``diameter(N_r)/dist ≤ θ``, replacing a far node's points
by its center of mass.

:func:`barnes_hut_potential` is the scalar form expressed through the
Portal DSL (a weighted FORALL/SUM with the ``mac`` criterion), proving
the physics problem fits the same language as the ML problems.  The
vector-valued forces used for time integration are hand-written code
outside the scalar DSL: :func:`repro.baselines.expert.expert_barnes_hut`
and its ``leapfrog_step``.
"""

from __future__ import annotations

import numpy as np

from ..dsl import Const, MetricKernel, PortalExpr, PortalOp, Storage, sqrt
from ..dsl.expr import BinOp, DistVar

__all__ = ["barnes_hut_potential"]


def gravity_kernel(G: float = 1.0, eps: float = 1e-3) -> MetricKernel:
    """Softened point-mass potential kernel ``g(t) = G / sqrt(t + ε²)``
    over squared Euclidean distance ``t`` (monotone decreasing, so the
    approximation machinery applies)."""
    t = DistVar("t")
    g = BinOp("/", Const(G), sqrt(BinOp("+", t, Const(eps * eps))))
    return MetricKernel("sqeuclidean", g)


def barnes_hut_potential(
    positions,
    masses,
    theta: float = 0.5,
    G: float = 1.0,
    eps: float = 1e-3,
    **options,
) -> np.ndarray:
    """Gravitational potential magnitude at every particle via the DSL.

    ``Φ_q = Σ_{r≠q} G·m_r / sqrt(‖x_q − x_r‖² + ε²)``
    """
    store = Storage(positions, weights=np.asarray(masses, dtype=np.float64),
                    name="particles")
    expr = PortalExpr("barnes-hut-potential")
    expr.addLayer(PortalOp.FORALL, store)
    expr.addLayer(PortalOp.SUM, store, gravity_kernel(G, eps))
    options.setdefault("criterion", "mac")
    options.setdefault("theta", theta)
    if store.dim <= 3:
        options.setdefault("tree", "octree")
    out = expr.execute(**options)
    return np.asarray(out.values)
