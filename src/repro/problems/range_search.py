"""Range search (paper Table III row 2).

Portal specification: ``∀_q ∪arg_r I(h_min < ‖x_q − x_r‖ < h_max)`` — a
FORALL outer layer and a UNIONARG inner layer whose comparative kernel
makes this a pruning problem: node pairs entirely outside the annulus are
discarded, pairs entirely inside are appended wholesale without touching
points.
"""

from __future__ import annotations

import numpy as np

from ..dsl import PortalExpr, PortalOp, Storage, Var, indicator, pow, sqrt

__all__ = ["range_search", "range_count"]


def _search_lt(query: Storage, reference: Storage, h: float, options) -> list:
    q, r = Var("q"), Var("r")
    expr = PortalExpr("range-search")
    expr.addLayer(PortalOp.FORALL, q, query)
    expr.addLayer(PortalOp.UNIONARG, r, reference,
                  indicator(sqrt(pow(q - r, 2)) < h))
    out = expr.execute(**options)
    return out.indices


def range_search(
    query,
    reference=None,
    h: float = 1.0,
    h_min: float = 0.0,
    **options,
) -> list[np.ndarray]:
    """Indices of all reference points within ``(h_min, h)`` of each query.

    The annulus form composes two one-sided searches, mirroring how the
    prune generator derives a *pipeline* of pruning opportunities from the
    two comparative sub-kernels (paper section II-C).
    """
    query = query if isinstance(query, Storage) else Storage(query, name="query")
    if reference is None:
        reference = query
    elif not isinstance(reference, Storage):
        reference = Storage(reference, name="reference")
    if h <= 0:
        raise ValueError("h must be positive")
    if not 0 <= h_min < h:
        raise ValueError("require 0 <= h_min < h")

    outer = _search_lt(query, reference, h, options)
    if h_min == 0.0:
        return outer
    inner = _search_lt(query, reference, h_min, options)
    return [np.setdiff1d(o, i, assume_unique=True)
            for o, i in zip(outer, inner)]


def range_count(query, reference=None, h: float = 1.0, **options) -> np.ndarray:
    """Number of reference points within ``h`` of each query point
    (``∀_q Σ_r I(‖x_q − x_r‖ < h)`` — the counting variant)."""
    query = query if isinstance(query, Storage) else Storage(query, name="query")
    if reference is None:
        reference = query
    elif not isinstance(reference, Storage):
        reference = Storage(reference, name="reference")
    q, r = Var("q"), Var("r")
    expr = PortalExpr("range-count")
    expr.addLayer(PortalOp.FORALL, q, query)
    expr.addLayer(PortalOp.SUM, r, reference,
                  indicator(sqrt(pow(q - r, 2)) < h))
    out = expr.execute(**options)
    return np.asarray(out.values)
