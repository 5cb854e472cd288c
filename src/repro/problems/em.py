"""Expectation–Maximization for Gaussian mixtures (paper Table III, EM*).

The paper decomposes EM into two N-body sub-problems expressed in Portal
— the E-step (``∀_n ∀_k r_nk``) and the log-likelihood
(``Σ_n log Σ_k π_k N(x_n|μ_k, Σ_k)``) — plus native iteration logic (the
M-step), and notes that EM shows the largest deviation from expert code
(8–9 %) *because of external function calls*: the Gaussian component
kernel needs per-component covariances, so it is linked as an external
function rather than lowered.  This module mirrors that structure
exactly: both sub-problems run through ``PortalExpr`` with an external
kernel; the M-step is plain NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dsl import PortalExpr, PortalOp, Storage

__all__ = ["GaussianMixtureEM", "em_fit"]

_LOG2PI = float(np.log(2.0 * np.pi))


def _log_gaussian(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """log N(x | mean, cov) for every row of X (Cholesky-based — the same
    numerical optimisation the compiler applies to Mahalanobis forms)."""
    from scipy.linalg import cholesky

    d = X.shape[1]
    L = cholesky(cov + 1e-9 * np.eye(d), lower=True)
    return _log_gaussian_chol(X, mean, L)


def _log_gaussian_chol(X: np.ndarray, mean: np.ndarray, L: np.ndarray) -> np.ndarray:
    """log N(x | mean, LLᵀ) given the precomputed Cholesky factor."""
    from scipy.linalg import solve_triangular

    d = X.shape[1]
    z = solve_triangular(L, (X - mean).T, lower=True)
    maha = np.einsum("ij,ij->j", z, z)
    logdet = 2.0 * np.log(np.diag(L)).sum()
    return -0.5 * (maha + logdet + d * _LOG2PI)


def _component_kernel(means, covs, weights):
    """Build the external Portal kernel evaluating π_k N(x | μ_k, Σ_k).

    The per-component Cholesky factors are computed once per E-step call
    (loop-invariant — the same hoisting the compiler's numerical
    optimisation pass performs on internal Mahalanobis kernels)."""
    from scipy.linalg import cholesky

    d = means.shape[1]
    chols = [cholesky(c + 1e-9 * np.eye(d), lower=True) for c in covs]

    def kernel(Q, R, qs, rs):
        out = np.empty((Q.shape[0], R.shape[0]))
        for j in range(R.shape[0]):
            k = rs + j
            out[:, j] = np.exp(
                _log_gaussian_chol(Q, means[k], chols[k])
            ) * weights[k]
        return out

    kernel.__name__ = "gaussian_component_kernel"
    return kernel


@dataclass
class GaussianMixtureEM:
    """Gaussian mixture model fitted with EM over Portal sub-problems."""

    n_components: int
    max_iter: int = 50
    tol: float = 1e-5
    seed: int = 0

    means_: np.ndarray | None = None
    covariances_: np.ndarray | None = None
    weights_: np.ndarray | None = None
    log_likelihoods_: list[float] = field(default_factory=list)
    n_iter_: int = 0

    # -- Portal sub-problem: E-step (∀_n ∀_k) -----------------------------------
    def _estep_responsibilities(self, data: Storage) -> np.ndarray:
        comp_storage = Storage(self.means_, name="components")
        # External kernel (paper section III-C): π_k N(x | μ_k, Σ_k) for
        # the component block — the reason EM shows the largest Portal vs
        # expert deviation in the paper.
        component_kernel = _component_kernel(
            self.means_, self.covariances_, self.weights_
        )

        expr = PortalExpr("em-e-step")
        expr.addLayer(PortalOp.FORALL, data)
        expr.addLayer(PortalOp.FORALL, comp_storage, component_kernel)
        out = expr.execute()
        dense = np.asarray(out.values)
        total = dense.sum(axis=1, keepdims=True)
        total[total == 0.0] = 1.0
        return dense / total

    # -- Portal sub-problem: log-likelihood (Σ_n log Σ_k) -----------------------
    def log_likelihood(self, data) -> float:
        data = data if isinstance(data, Storage) else Storage(data, name="data")
        comp_storage = Storage(self.means_, name="components")
        component_kernel = _component_kernel(
            self.means_, self.covariances_, self.weights_
        )

        expr = PortalExpr("em-log-likelihood")
        expr.addLayer(PortalOp.SUM, data, np.log)   # log is the modifier
        expr.addLayer(PortalOp.SUM, comp_storage, component_kernel)
        out = expr.execute(exclude_self=False)
        return float(out.scalar)

    # -- native iteration logic (the paper's "native C++" part) ----------------
    def fit(self, data) -> "GaussianMixtureEM":
        data = data if isinstance(data, Storage) else Storage(data, name="data")
        X = data.data
        n, d = X.shape
        K = self.n_components
        if K < 1 or K > n:
            raise ValueError(f"n_components must be in [1, {n}]")

        rng = np.random.default_rng(self.seed)
        self.means_ = X[rng.choice(n, size=K, replace=False)].copy()
        # Hard-assign each point to its nearest initial mean and run one
        # M-step (k-means-style init avoids the uniform-responsibility
        # saddle a shared wide covariance would create).
        d2 = ((X[:, None, :] - self.means_[None, :, :]) ** 2).sum(-1)
        assign = d2.argmin(axis=1)
        resp0 = np.zeros((n, K))
        resp0[np.arange(n), assign] = 1.0
        self.covariances_ = np.empty((K, d, d))
        self.weights_ = np.empty(K)
        nk = resp0.sum(axis=0) + 1e-12
        self.weights_ = nk / n
        self.means_ = (resp0.T @ X) / nk[:, None]
        for k in range(K):
            diff = X - self.means_[k]
            self.covariances_[k] = (
                (resp0[:, k][:, None] * diff).T @ diff
            ) / nk[k] + 1e-6 * np.eye(d)

        prev_ll = -np.inf
        for it in range(self.max_iter):
            resp = self._estep_responsibilities(data)       # Portal E-step
            # M-step (native).
            nk = resp.sum(axis=0) + 1e-12
            self.weights_ = nk / n
            self.means_ = (resp.T @ X) / nk[:, None]
            for k in range(K):
                diff = X - self.means_[k]
                self.covariances_[k] = (
                    (resp[:, k][:, None] * diff).T @ diff
                ) / nk[k] + 1e-6 * np.eye(d)
            ll = self.log_likelihood(data)                  # Portal log-lik
            self.log_likelihoods_.append(ll)
            self.n_iter_ = it + 1
            if abs(ll - prev_ll) < self.tol * max(1.0, abs(prev_ll)):
                break
            prev_ll = ll
        return self

    def predict_proba(self, data) -> np.ndarray:
        data = data if isinstance(data, Storage) else Storage(data, name="data")
        return self._estep_responsibilities(data)

    def predict(self, data) -> np.ndarray:
        return self.predict_proba(data).argmax(axis=1)


def em_fit(data, n_components: int, max_iter: int = 50,
           tol: float = 1e-5, seed: int = 0) -> GaussianMixtureEM:
    """Convenience wrapper: fit a Gaussian mixture with EM."""
    return GaussianMixtureEM(
        n_components=n_components, max_iter=max_iter, tol=tol, seed=seed
    ).fit(data)
