"""Hand-written vector Barnes–Hut forces — an expert code, not Portal.

The gravitational acceleration of every particle over one octree:
Python closures drive the scalar :func:`dual_tree_traversal`, far node
pairs take the reference node's multipole expansion (acceptance
``diam/dist ≤ θ``) and near leaf pairs the exact softened pairwise
forces, vectorised per leaf batch.  Vector kernels are outside the
scalar DSL (whose kernels read only the squared distance), so no
compiled program computes these forces; the DSL's Barnes–Hut is the
scalar potential, :func:`repro.problems.barnes_hut_potential`.  Table
V's Barnes–Hut row and the θ / expansion-order ablation time this code
against the FDPS-like baseline.
"""

from __future__ import annotations

import numpy as np

from ...traversal import dual_tree_traversal
from ...trees import build_octree

__all__ = ["expert_barnes_hut", "leapfrog_step"]


def _node_quadrupoles(tree) -> np.ndarray:
    """Traceless quadrupole tensor per node about its center of mass:
    ``Q_ij = Σ_k m_k (3 r_i r_j − ‖r‖² δ_ij)`` with ``r = x_k − com``."""
    d = tree.dim
    eye = np.eye(d)
    Q = np.zeros((tree.n_nodes, d, d))
    for i in range(tree.n_nodes):
        s, e = tree.slice(i)
        r = tree.points[s:e] - tree.wcentroid[i]
        m = tree.weights[s:e]
        outer = np.einsum("k,ki,kj->ij", m, r, r)
        Q[i] = 3.0 * outer - (m * np.einsum("ki,ki->k", r, r)).sum() * eye
    return Q


def expert_barnes_hut(
    positions,
    masses,
    theta: float = 0.5,
    G: float = 1.0,
    eps: float = 1e-3,
    leaf_size: int = 64,
    return_stats: bool = False,
    order: int = 1,
):
    """Gravitational acceleration of every particle (vector Barnes-Hut).

    Dual-tree traversal over one octree: far node pairs use the reference
    node's multipole expansion (acceptance ``diam/dist ≤ θ``), near leaf
    pairs evaluate exact softened pairwise forces, vectorised per leaf
    batch.

    ``order`` selects the expansion: 1 = monopole (the paper's center of
    mass), 2 = monopole + traceless quadrupole correction (the dipole
    vanishes about the center of mass), which cuts the far-field error at
    a given θ — the first step toward the FMM the paper's background
    discusses.
    """
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    masses = np.ascontiguousarray(masses, dtype=np.float64)
    if positions.shape[1] > 3:
        raise ValueError("Barnes-Hut is limited to d <= 3 (paper Table V)")
    if len(masses) != len(positions):
        raise ValueError("masses and positions length mismatch")

    if order not in (1, 2):
        raise ValueError("order must be 1 (monopole) or 2 (+quadrupole)")

    tree = build_octree(positions, leaf_size=leaf_size, weights=masses)
    pts = tree.points
    m = tree.weights
    lo, hi = tree.lo, tree.hi
    start, end = tree.start, tree.end
    com, M = tree.wcentroid, tree.wsum
    diam2 = tree.diameter ** 2
    theta2 = theta * theta
    eps2 = eps * eps
    quad = _node_quadrupoles(tree) if order >= 2 else None

    acc = np.zeros_like(pts)

    def prune_or_approx(qi: int, ri: int) -> int:
        gaps = np.maximum(0.0, np.maximum(lo[ri] - hi[qi], lo[qi] - hi[ri]))
        tmin = float(gaps @ gaps)
        if tmin > 0.0 and diam2[ri] <= theta2 * tmin:
            s, e = start[qi], end[qi]
            d = com[ri] - pts[s:e]
            r2 = np.einsum("ij,ij->i", d, d) + eps2
            acc[s:e] += (G * M[ri]) * d * (r2 ** -1.5)[:, None]
            if quad is not None:
                # Quadrupole field gradient (d points q → com, so the
                # standard n̂ = (x_q − com)/r is −d̂):
                #   a_i = G [ Q_ij n_j / r⁴ − 5/2 (nᵀQn) n_i / r⁴ ] · 1/r
                # expressed below with d directly (odd powers flip sign).
                r2c = np.maximum(r2, eps2)
                inv_r5 = r2c ** -2.5
                Qd = d @ quad[ri]                       # (nq, dim)
                dQd = np.einsum("ij,ij->i", Qd, d)      # dᵀ Q d
                acc[s:e] += G * (
                    -Qd * inv_r5[:, None]
                    + 2.5 * (dQd * inv_r5 / r2c)[:, None] * d
                )
            return 2
        return 0

    def base_case(qs: int, qe: int, rs: int, re: int) -> None:
        d = pts[None, rs:re, :] - pts[qs:qe, None, :]
        r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
        w = m[rs:re] * r2 ** -1.5
        if qs == rs:
            np.fill_diagonal(w, 0.0)
        acc[qs:qe] += G * np.einsum("ijk,ij->ik", d, w)

    stats = dual_tree_traversal(tree, tree, prune_or_approx, base_case)

    inv = np.empty_like(tree.perm)
    inv[tree.perm] = np.arange(len(tree.perm))
    result = acc[inv]
    if return_stats:
        return result, stats
    return result


def leapfrog_step(
    positions, velocities, masses, dt: float,
    theta: float = 0.5, G: float = 1.0, eps: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """One kick-drift-kick leapfrog step using Barnes-Hut forces."""
    a0 = expert_barnes_hut(positions, masses, theta=theta, G=G, eps=eps)
    v_half = velocities + 0.5 * dt * a0
    new_pos = positions + dt * v_half
    a1 = expert_barnes_hut(new_pos, masses, theta=theta, G=G, eps=eps)
    new_vel = v_half + 0.5 * dt * a1
    return new_pos, new_vel
