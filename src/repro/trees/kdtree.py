"""kd-tree construction (paper section II-A).

Binary space-partitioning tree built with the paper's strategy: recursive
*median* split along the *widest* bounding-box dimension, stopping when a
node holds no more than ``leaf_size`` points.  ``np.argpartition`` gives
the O(n) median step, so the build is O(n log n).

Construction is level-synchronous over a column-layout ``(d, n)`` working
copy kept in the current permuted order: each level takes every node's
box from one ``np.minimum.reduceat`` / ``np.maximum.reduceat`` pass,
decides split dimensions and leaves in one vectorised step, and
partitions each split node's contiguous slice.  Node ids are then
renumbered to the depth-first order of the recursive formulation (a
split node's two children get consecutive ids, left subtree first), so
every tree array is the same as a node-by-node recursive build.

A second splitting strategy, ``sliding-midpoint``, is provided for the
plug-and-play ablation: split at the geometric center of the widest
dimension (better-shaped cells on non-uniform data), sliding to the
nearest point when one side would be empty.
"""

from __future__ import annotations

import numpy as np

from .node import ArrayTree, require_finite

__all__ = ["KDTree", "build_kdtree", "SPLIT_STRATEGIES"]

SPLIT_STRATEGIES = ("median", "midpoint")


class KDTree(ArrayTree):
    kind = "kd"


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[a0, b0, a1, b1, ...]``."""
    out = np.empty(2 * a.size, dtype=np.int64)
    out[0::2] = a
    out[1::2] = b
    return out


def _level_boxes(col: np.ndarray, s: np.ndarray, e: np.ndarray):
    """``(lo, hi)`` of shape ``(m, d)`` for the nodes ``[s, e)`` of one
    level, each one reduction over the column layout ``col`` (d, n).

    Once a node has stopped as a leaf the level's nodes no longer tile
    ``[0, n)``, so the reduction runs over interleaved ``[start, end)``
    bounds and keeps the even segments (a trailing end equal to ``n`` is
    dropped: the last segment runs to the end anyway)."""
    bounds = _interleave(s, e)
    if bounds[-1] == col.shape[1]:
        bounds = bounds[:-1]
    lo = np.minimum.reduceat(col, bounds, axis=1)[:, 0::2].T
    hi = np.maximum.reduceat(col, bounds, axis=1)[:, 0::2].T
    return lo, hi


def build_kdtree(
    points: np.ndarray,
    leaf_size: int = 32,
    weights: np.ndarray | None = None,
    split: str = "median",
) -> KDTree:
    """Build a :class:`KDTree` over ``points`` of shape ``(n, d)``.

    ``split`` selects the strategy: ``"median"`` (the paper's — balanced
    sibling sizes) or ``"midpoint"`` (sliding midpoint — tighter cells).
    Points with identical coordinates along every dimension collapse into
    a single (possibly oversized) leaf rather than recursing forever.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    if split not in SPLIT_STRATEGIES:
        raise ValueError(
            f"unknown split strategy {split!r}; choose from {SPLIT_STRATEGIES}"
        )
    require_finite("build_kdtree", points, weights)
    n = points.shape[0]
    perm = np.arange(n)
    if n <= leaf_size:  # the root is a leaf: the common small query side
        return KDTree(points=points.copy(), perm=perm,
                      lo=points.min(axis=0)[None], hi=points.max(axis=0)[None],
                      start=np.zeros(1, dtype=np.int64),
                      end=np.full(1, n, dtype=np.int64),
                      child_offset=np.zeros(2, dtype=np.int64),
                      child_list=np.zeros(0, dtype=np.int64),
                      weights=weights, leaf_size=leaf_size)
    col = np.ascontiguousarray(points.T)  # (d, n) in the current perm order

    # Per level, in breadth-first (= start) order: bounds, boxes and
    # which nodes split.  A split node's children are consecutive on the
    # next level, left first.
    starts, ends, los, his, splits = [], [], [], [], []
    s = np.zeros(1, dtype=np.int64)
    e = np.full(1, n, dtype=np.int64)
    while s.size:
        lo, hi = _level_boxes(col, s, e)
        widths = hi - lo
        dim = widths.argmax(axis=1)
        is_split = (e - s > leaf_size) & (widths.max(axis=1) > 0.0)
        starts.append(s)
        ends.append(e)
        los.append(lo)
        his.append(hi)
        splits.append(is_split)
        sel = np.flatnonzero(is_split)
        if sel.size == 0:
            break
        ss, es = s[sel], e[sel]
        loc = np.arange(n)  # this level's local permutation
        if split == "median":
            mid = (ss + es) // 2
            for a, b, m, k in zip(ss.tolist(), es.tolist(), mid.tolist(),
                                  dim[sel].tolist()):
                np.add(col[k, a:b].argpartition(m - a), a, out=loc[a:b])
        else:  # sliding midpoint
            mid = np.empty(sel.size, dtype=np.int64)
            ks = dim[sel]
            cuts = 0.5 * (lo[sel, ks] + hi[sel, ks])
            for j, (a, b, k, cut) in enumerate(zip(
                    ss.tolist(), es.tolist(), ks.tolist(), cuts)):
                coords = col[k, a:b]
                left_mask = coords < cut
                n_left = int(left_mask.sum())
                if n_left == 0 or n_left == b - a:
                    # Slide the cut to isolate at least one point per side.
                    mid[j] = max(a + 1, min(b - 1, a + n_left))
                    order = np.argsort(coords, kind="stable")
                else:
                    mid[j] = a + n_left
                    order = np.argsort(~left_mask, kind="stable")
                np.add(order, a, out=loc[a:b])
        perm = np.take(perm, loc)
        col = np.take(col, loc, axis=1)  # frees the previous level's copy
        s = _interleave(ss, mid)
        e = _interleave(mid, es)
    del col

    start = np.concatenate(starts)
    is_split = np.concatenate(splits)
    # Breadth-first, the i-th split node's children are nodes 2i + 1 and
    # 2i + 2.  The recursive build numbers them otherwise: the k-th split
    # node in left-first preorder gets ids 2k + 1 (left) and 2k + 2.  The
    # levels run in depth order, so a stable sort of the split nodes by
    # start is that preorder.
    inner = np.flatnonzero(is_split)
    left = np.empty(inner.size, dtype=np.int64)
    left[np.argsort(start[inner], kind="stable")] = (
        2 * np.arange(inner.size) + 1)
    new_id = np.zeros(start.size, dtype=np.int64)
    new_id[1::2] = left
    new_id[2::2] = left + 1
    bfs = np.empty_like(new_id)  # new id -> breadth-first id
    bfs[new_id] = np.arange(start.size)
    left = left[np.argsort(new_id[inner])]  # in the parents' new-id order

    return KDTree(
        points=points[perm],
        perm=perm,
        lo=np.concatenate(los)[bfs],
        hi=np.concatenate(his)[bfs],
        start=start[bfs],
        end=np.concatenate(ends)[bfs],
        child_offset=np.concatenate([[0], 2 * np.cumsum(is_split[bfs])]),
        child_list=_interleave(left, left + 1),
        weights=weights,
        leaf_size=leaf_size,
    )
