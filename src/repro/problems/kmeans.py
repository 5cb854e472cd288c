"""k-means clustering over Portal assignment steps.

Like EM, k-means is an iterative algorithm whose inner loop is an N-body
sub-problem: the assignment step is ``∀_n argmin_k ‖x_n − μ_k‖`` — a
FORALL/ARGMIN Portal program over the point set and the (small) centroid
set — while the update step is native arithmetic.  Lloyd's algorithm with
k-means++ seeding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dsl import PortalExpr, PortalFunc, PortalOp, Storage

__all__ = ["kmeans", "KMeansResult"]


@dataclass
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    inertia_history: list[float] = field(default_factory=list)


def _plusplus_init(X: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeding."""
    n = len(X)
    centroids = [X[rng.integers(0, n)]]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        probs = d2 / max(d2.sum(), 1e-300)
        centroids.append(X[rng.choice(n, p=probs)])
        d2 = np.minimum(d2, ((X - centroids[-1]) ** 2).sum(axis=1))
    return np.asarray(centroids)


def _assign(data: Storage, centroids: np.ndarray):
    """The Portal assignment sub-problem: nearest centroid per point."""
    expr = PortalExpr("kmeans-assignment")
    expr.addLayer(PortalOp.FORALL, data)
    expr.addLayer(PortalOp.ARGMIN, Storage(centroids, name="centroids"),
                  PortalFunc.SQREUCDIST)
    out = expr.execute(exclude_self=False)
    return np.asarray(out.indices), np.asarray(out.values)


def kmeans(
    data,
    k: int,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
) -> KMeansResult:
    """Cluster ``data`` into ``k`` groups with Lloyd's algorithm."""
    data = data if isinstance(data, Storage) else Storage(data, name="data")
    X = data.data
    n = len(X)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    rng = np.random.default_rng(seed)
    centroids = _plusplus_init(X, k, rng)

    history: list[float] = []
    labels = np.zeros(n, dtype=np.int64)
    for it in range(max_iter):
        labels, d2 = _assign(data, centroids)          # Portal sub-problem
        inertia = float(d2.sum())
        history.append(inertia)
        new_centroids = centroids.copy()
        for j in range(k):
            members = X[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift < tol:
            break
    labels, d2 = _assign(data, centroids)
    return KMeansResult(
        centroids=centroids, labels=labels, inertia=float(d2.sum()),
        iterations=len(history), inertia_history=history,
    )
