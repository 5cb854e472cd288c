"""Hand-optimised k-NN — the PASCAL "expert" baseline (paper section V-B).

Same kd-tree (median split on the widest dimension) and the same
multi-tree traversal template as the compiler-generated code; the base
case and prune condition are *hand-written* with the tricks a performance
programmer applies manually:

* the dot-product expansion ``‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b`` (one GEMM per
  leaf pair instead of a broadcast difference tensor),
* precomputed per-point squared norms,
* a k-way merge that skips every query row whose candidates are all
  strictly worse than its k-th best, then, per merged row,
  ``argpartition`` instead of a full sort, with the winners' ids read
  from the old k-array or the leaf's index range rather than from a
  concatenated id block.
"""

from __future__ import annotations

import numpy as np

from ...traversal import dual_tree_traversal
from ...trees import build_kdtree

__all__ = ["expert_knn"]


def expert_knn(query, reference=None, k: int = 1, leaf_size: int = 64):
    """Hand-optimised k nearest neighbors; returns (dist, idx) sorted."""
    Q = np.ascontiguousarray(query, dtype=np.float64)
    self_join = reference is None
    R = Q if self_join else np.ascontiguousarray(reference, dtype=np.float64)

    qtree = build_kdtree(Q, leaf_size=leaf_size)
    rtree = qtree if self_join else build_kdtree(R, leaf_size=leaf_size)
    qp, rp = qtree.points, rtree.points
    qn2 = np.einsum("ij,ij->i", qp, qp)
    rn2 = np.einsum("ij,ij->i", rp, rp)
    qlo, qhi, rlo, rhi = qtree.lo, qtree.hi, rtree.lo, rtree.hi
    qstart, qend = qtree.start, qtree.end

    nq = len(Q)
    best = np.full((nq, k), np.inf)
    best_idx = np.full((nq, k), -1, dtype=np.int64)

    def pair_min(qi, ri):
        gaps = np.maximum(0.0, np.maximum(rlo[ri] - qhi[qi], qlo[qi] - rhi[ri]))
        return float(gaps @ gaps)

    def prune(qi, ri):
        return 1 if pair_min(qi, ri) > best[qstart[qi]:qend[qi], k - 1].max() else 0

    def base_case(qs, qe, rs, re):
        d2 = qn2[qs:qe, None] + rn2[None, rs:re] - 2.0 * (qp[qs:qe] @ rp[rs:re].T)
        np.maximum(d2, 0.0, out=d2)
        if self_join and qs == rs:
            np.fill_diagonal(d2, np.inf)
        # only rows with a candidate at or inside their k-th best merge
        rows = np.flatnonzero((d2 <= best[qs:qe, k - 1, None]).any(axis=1))
        if not rows.size:
            return
        qr = qs + rows
        rr = np.arange(rows.size)[:, None]
        cand_v = np.concatenate([best[qr], d2[rows]], axis=1)
        sel = np.argpartition(cand_v, k - 1, axis=1)[:, :k]
        vals = cand_v[rr, sel]
        order = np.argsort(vals, axis=1, kind="stable")
        sel = sel[rr, order]
        old = best_idx[qr][rr, np.minimum(sel, k - 1)]
        best_idx[qr] = np.where(sel < k, old, rs + np.maximum(sel - k, 0))
        best[qr] = vals[rr, order]

    dual_tree_traversal(qtree, rtree, prune, base_case, pair_min_dist=pair_min)

    inv = np.empty(nq, dtype=np.int64)
    inv[qtree.perm] = np.arange(nq)
    dist = np.sqrt(best[inv])
    idx = rtree.perm[best_idx[inv]]
    if k == 1:
        return dist[:, 0], idx[:, 0]
    return dist, idx
