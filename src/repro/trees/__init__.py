"""Space-partitioning trees: kd-tree and quadtree/octree.

The algorithmic substrate of paper section II-A.  All trees share the
array-backed :class:`~repro.trees.node.ArrayTree` storage whose boxes
the multi-tree traversal bounds distances with.
"""

from __future__ import annotations

import numpy as np

from .kdtree import KDTree, build_kdtree
from .node import ArrayTree, TreeNode
from .octree import Octree, build_octree

__all__ = [
    "ArrayTree", "TreeNode", "KDTree", "Octree",
    "build_kdtree", "build_octree", "build_tree",
    "build_subset_tree",
]

_BUILDERS = {
    "kd": build_kdtree,
    "octree": build_octree,
}


def build_tree(
    kind: str,
    points: np.ndarray,
    leaf_size: int = 32,
    weights: np.ndarray | None = None,
) -> ArrayTree:
    """Build a tree of the requested kind ('kd' or 'octree')."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown tree kind {kind!r}; choose from {sorted(_BUILDERS)}"
        ) from None
    return builder(points, leaf_size=leaf_size, weights=weights)


def build_subset_tree(
    kind: str,
    points: np.ndarray,
    idx: np.ndarray,
    leaf_size: int = 32,
    weights: np.ndarray | None = None,
) -> ArrayTree:
    """Build a tree over ``points[idx]`` — the shard-local build of the
    sharded reference layout (:mod:`repro.parallel.shard`).

    Only the selected rows are ever materialised (one gather of the
    subset, never a reordered copy of the full dataset), which is what
    keeps the P-shard build path out-of-core with respect to the full
    reference set.  The returned tree's ``perm`` indexes *within the
    subset*; callers map back to original ids via ``idx[tree.perm]``.
    """
    idx = np.asarray(idx, dtype=np.int64)
    sub = np.ascontiguousarray(points[idx])
    wsub = None if weights is None else np.ascontiguousarray(weights[idx])
    return build_tree(kind, sub, leaf_size=leaf_size, weights=wsub)
