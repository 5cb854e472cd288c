"""Naive Bayes classifier (paper Table III, validated against MLPACK).

Portal specification: ``∀_n argmin_k`` of the per-class Gaussian score
``N(x_n | μ_k, Σ_k)`` — i.e. classify every point to the class whose
Gaussian maximises the likelihood.  The per-class kernel is a Mahalanobis
form, so the compiler's numerical-optimisation pass applies: each class's
covariance is Cholesky-factorised once and the distance evaluation runs in
the whitened space (paper section IV-D).  Each class score is computed by
one 2-layer Portal program (FORALL over the test set, MIN over the
singleton class-mean reference with the MAHALANOBIS kernel) and the final
argmin over classes adds the log-prior and log-determinant corrections
natively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsl import PortalExpr, PortalFunc, PortalOp, Storage

__all__ = ["NaiveBayesClassifier", "naive_bayes_fit"]


@dataclass
class NaiveBayesClassifier:
    """Gaussian (quadratic) Bayes classifier over Portal programs."""

    #: Regularisation added to each class covariance diagonal.
    reg: float = 1e-6

    classes_: np.ndarray | None = None
    means_: np.ndarray | None = None
    covariances_: np.ndarray | None = None
    priors_: np.ndarray | None = None
    logdets_: np.ndarray | None = None

    def fit(self, X, y) -> "NaiveBayesClassifier":
        from scipy.linalg import cholesky

        X = X.data if isinstance(X, Storage) else np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        self.classes_ = np.unique(y)
        d = X.shape[1]
        K = len(self.classes_)
        self.means_ = np.empty((K, d))
        self.covariances_ = np.empty((K, d, d))
        self.priors_ = np.empty(K)
        self.logdets_ = np.empty(K)
        for k, c in enumerate(self.classes_):
            Xc = X[y == c]
            if len(Xc) < 2:
                raise ValueError(f"class {c!r} needs at least 2 samples")
            self.means_[k] = Xc.mean(axis=0)
            cov = np.cov(Xc.T) + self.reg * np.eye(d)
            self.covariances_[k] = cov
            L = cholesky(cov, lower=True)
            self.logdets_[k] = 2.0 * np.log(np.diag(L)).sum()
            self.priors_[k] = len(Xc) / len(X)
        return self

    def _class_mahalanobis(self, test: Storage, k: int, **options) -> np.ndarray:
        """One Portal program per class: squared Mahalanobis distance of
        every test point to the class mean under the class covariance."""
        mean_storage = Storage(self.means_[k][None, :], name=f"class{k}-mean")
        expr = PortalExpr(f"nbc-class-{k}")
        expr.addLayer(PortalOp.FORALL, test)
        expr.addLayer(
            PortalOp.MIN, mean_storage, PortalFunc.MAHALANOBIS,
            covariance=self.covariances_[k],
        )
        out = expr.execute(exclude_self=False, **options)
        return np.asarray(out.values)

    def decision_scores(self, X, **options) -> np.ndarray:
        """Log-scores (n, K): log π_k − ½(maha + logdet)."""
        if self.classes_ is None:
            raise ValueError("classifier is not fitted")
        test = X if isinstance(X, Storage) else Storage(X, name="test")
        K = len(self.classes_)
        scores = np.empty((test.n, K))
        for k in range(K):
            maha = self._class_mahalanobis(test, k, **options)
            scores[:, k] = (
                np.log(self.priors_[k]) - 0.5 * (maha + self.logdets_[k])
            )
        return scores

    def predict(self, X, **options) -> np.ndarray:
        scores = self.decision_scores(X, **options)
        return self.classes_[scores.argmax(axis=1)]

    def score(self, X, y, **options) -> float:
        """Mean accuracy on the given test data."""
        return float(np.mean(self.predict(X, **options) == np.asarray(y)))


def naive_bayes_fit(X, y, reg: float = 1e-6) -> NaiveBayesClassifier:
    """Convenience wrapper: fit the classifier."""
    return NaiveBayesClassifier(reg=reg).fit(X, y)
