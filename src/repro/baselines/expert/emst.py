"""Hand-optimised Euclidean MST — the PASCAL "expert" baseline.

Dual-tree Borůvka with the manual tunings a performance programmer adds:
the dot-product distance expansion in the base case, per-round cached
component labels on node slices, and an in-round tightened bound.  Each
accepted edge is weighed once in the difference form.
"""

from __future__ import annotations

import numpy as np

from ...traversal import dual_tree_traversal
from ...trees import build_kdtree

__all__ = ["expert_emst"]


def expert_emst(points, leaf_size: int = 32):
    """Returns (edges (n-1,2) original indices, weights, total_weight)."""
    X = np.ascontiguousarray(points, dtype=np.float64)
    n = len(X)
    tree = build_kdtree(X, leaf_size=leaf_size)
    pts = tree.points
    pn2 = np.einsum("ij,ij->i", pts, pts)
    lo, hi = tree.lo, tree.hi
    start, end = tree.start, tree.end
    n_nodes = tree.n_nodes

    parent = np.arange(n)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    comp = np.arange(n)
    edges: list[tuple[int, int]] = []
    wts: list[float] = []

    while len(edges) < n - 1:
        best_d = np.full(n, np.inf)
        best_pair = np.full((n, 2), -1, dtype=np.int64)
        cmin = np.empty(n_nodes, dtype=np.int64)
        cmax = np.empty(n_nodes, dtype=np.int64)
        for i in range(n_nodes):
            seg = comp[start[i]:end[i]]
            cmin[i] = seg.min()
            cmax[i] = seg.max()

        def prune(qi, ri):
            if cmin[qi] == cmax[qi] == cmin[ri] == cmax[ri]:
                return 1
            gaps = np.maximum(0.0, np.maximum(lo[ri] - hi[qi], lo[qi] - hi[ri]))
            return 1 if float(gaps @ gaps) > best_d[comp[start[qi]:end[qi]]].max() else 0

        def base_case(qs, qe, rs, re):
            d2 = pn2[qs:qe, None] + pn2[None, rs:re] - 2.0 * (pts[qs:qe] @ pts[rs:re].T)
            np.maximum(d2, 0.0, out=d2)
            cq, cr = comp[qs:qe], comp[rs:re]
            d2[cq[:, None] == cr[None, :]] = np.inf
            j = d2.argmin(axis=1)
            vals = d2[np.arange(d2.shape[0]), j]
            for i in np.flatnonzero(np.isfinite(vals)):
                c = cq[i]
                if vals[i] < best_d[c]:
                    best_d[c] = vals[i]
                    best_pair[c] = (qs + i, rs + j[i])

        dual_tree_traversal(tree, tree, prune, base_case)

        for c in np.unique(comp):
            a, b = best_pair[c]
            if a >= 0:
                ra, rb = find(int(a)), find(int(b))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
                    edges.append((int(tree.perm[a]), int(tree.perm[b])))
                    # selection took the norm expansion; the weight is the
                    # difference form, so a zero-length edge weighs 0.0
                    diff = pts[a] - pts[b]
                    wts.append(float(np.sqrt(diff @ diff)))
        comp = np.fromiter((find(i) for i in range(n)), dtype=np.int64, count=n)

    order = np.argsort(wts)
    e = np.asarray(edges, dtype=np.int64)[order]
    w = np.asarray(wts)[order]
    return e, w, float(w.sum())
