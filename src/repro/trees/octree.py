"""Quadtree / octree construction (paper section II-A).

Low-dimensional spatial trees used by the physics problems: quadtrees in
2-D and octrees in 3-D (any d ≤ 3 is accepted; d = 1 degenerates to a
binary interval tree).  Cells split at their geometric center into up to
``2^d`` children; empty children are dropped.  Stored node bounds are the
*tight* boxes of the contained points (better pruning than the cell), but
the split point is always the cell center, as in classic Barnes-Hut.
"""

from __future__ import annotations

import numpy as np

from .node import ArrayTree, children_csr, require_finite

__all__ = ["Octree", "build_octree"]

_MAX_DEPTH = 64


class Octree(ArrayTree):
    kind = "octree"


def build_octree(
    points: np.ndarray,
    leaf_size: int = 16,
    weights: np.ndarray | None = None,
) -> Octree:
    """Build an :class:`Octree` over ``points`` of shape ``(n, d)``, d ≤ 3."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    n, d = points.shape
    if d > 3:
        raise ValueError(
            f"octrees handle at most 3 dimensions, got {d}; use a kd-tree"
        )
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    require_finite("build_octree", points, weights)
    perm = np.arange(n)

    lo_l: list[np.ndarray] = []
    hi_l: list[np.ndarray] = []
    st_l: list[int] = []
    en_l: list[int] = []
    ch_l: list[list[int]] = []

    def new_node(s: int, e: int) -> int:
        idx = len(st_l)
        pts = points[perm[s:e]]
        lo_l.append(pts.min(axis=0))
        hi_l.append(pts.max(axis=0))
        st_l.append(s)
        en_l.append(e)
        ch_l.append([])
        return idx

    # Root cell: the (cubified) bounding box of all points.
    root = new_node(0, n)
    root_lo = lo_l[0].copy()
    side = float((hi_l[0] - lo_l[0]).max())
    root_hi = root_lo + max(side, 1e-300)

    # Stack entries: (node_id, cell_lo, cell_hi, depth).
    stack: list[tuple[int, np.ndarray, np.ndarray, int]] = [
        (root, root_lo, root_hi, 0)
    ]
    while stack:
        i, cell_lo, cell_hi, depth = stack.pop()
        s, e = st_l[i], en_l[i]
        if e - s <= leaf_size or depth >= _MAX_DEPTH:
            continue
        if float((hi_l[i] - lo_l[i]).max()) <= 0.0:
            continue  # coincident points
        mid = 0.5 * (cell_lo + cell_hi)
        seg = perm[s:e]
        # Quadrant code of each point: bit k set if coordinate k >= mid_k.
        codes = np.zeros(e - s, dtype=np.int64)
        for k in range(d):
            codes |= (points[seg, k] >= mid[k]).astype(np.int64) << k
        order = np.argsort(codes, kind="stable")
        perm[s:e] = seg[order]
        codes = codes[order]
        # Contiguous runs of equal code become children.
        boundaries = np.flatnonzero(np.diff(codes)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [e - s]])
        if len(starts) == 1:
            continue  # all points in one quadrant of a degenerate cell
        kids = []
        for a, b, code in zip(starts, ends, codes[starts]):
            child = new_node(s + int(a), s + int(b))
            kids.append(child)
            c_lo = cell_lo.copy()
            c_hi = mid.copy()
            for k in range(d):
                if code >> k & 1:
                    c_lo[k] = mid[k]
                    c_hi[k] = cell_hi[k]
            stack.append((child, c_lo, c_hi, depth + 1))
        ch_l[i] = kids

    child_offset, child_list = children_csr(ch_l)
    return Octree(
        points=points[perm],
        perm=perm,
        lo=np.asarray(lo_l),
        hi=np.asarray(hi_l),
        start=np.asarray(st_l, dtype=np.int64),
        end=np.asarray(en_l, dtype=np.int64),
        child_offset=child_offset,
        child_list=child_list,
        weights=weights,
        leaf_size=leaf_size,
    )
