"""k-nearest neighbors (paper Table III row 1, Code 1).

Portal specification: ``∀_q argmin^k_r ‖x_q − x_r‖`` — a FORALL outer
layer over the query set and a KARGMIN (ARGMIN for k = 1) inner layer
over the reference set with the Euclidean kernel.  A pruning problem: a
node pair is pruned when its minimum distance exceeds the node's worst
current k-th best.
"""

from __future__ import annotations

import numpy as np

from ..dsl import PortalExpr, PortalFunc, PortalOp, Storage

__all__ = ["knn"]


def knn(
    query,
    reference=None,
    k: int = 1,
    **options,
) -> tuple[np.ndarray, np.ndarray]:
    """Find the ``k`` nearest reference points of every query point.

    Parameters
    ----------
    query, reference:
        ``(n, d)`` arrays or :class:`~repro.dsl.Storage`.  When
        ``reference`` is omitted the query set is searched against itself
        with self-neighbors excluded.
    k:
        Number of neighbors.
    options:
        Forwarded to ``PortalExpr.execute`` (``leaf_size``, ``parallel``,
        ``tree``, ...).

    Returns
    -------
    (distances, indices):
        Arrays of shape ``(n, k)`` (``(n,)`` for ``k=1``), sorted
        nearest-first.
    """
    query = query if isinstance(query, Storage) else Storage(query, name="query")
    if reference is None:
        reference = query
    elif not isinstance(reference, Storage):
        reference = Storage(reference, name="reference")

    expr = PortalExpr("k-nearest-neighbors")
    expr.addLayer(PortalOp.FORALL, query)
    op = PortalOp.ARGMIN if k == 1 else (PortalOp.KARGMIN, k)
    expr.addLayer(op, reference, PortalFunc.EUCLIDEAN)
    out = expr.execute(**options)
    return np.asarray(out.values), np.asarray(out.indices)
