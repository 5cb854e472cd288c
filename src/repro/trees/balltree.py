"""Ball tree: the plug-and-play alternative tree type (paper section II-C).

PASCAL "abstracts the tree type which gives us the freedom to plug and
play with different trees"; the ball tree demonstrates that freedom.  It
shares the array-backed storage and splitting strategy of the kd-tree but
bounds each node with a hypersphere (centroid + radius), overriding the
distance-bound queries.  Sphere bounds are exact for the Euclidean family
only, which the compiler enforces when a ball tree is requested.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .kdtree import build_kdtree
from .node import ArrayTree

__all__ = ["BallTree", "build_balltree"]


class BallTree(ArrayTree):
    kind = "ball"

    #: Per-node bounding-sphere radius, filled by :func:`build_balltree`.
    radius: np.ndarray

    #: Refit and the partial-rebuild graft carry the radius along.
    _extra_node_arrays = ("radius",)

    def _refit_extra(self, dirty_ids):
        """Repair bounding-sphere radii for the dirty nodes, deepest
        first: leaves exactly from their point slices, internal nodes
        conservatively as ``max(dist(centroid, child centroid) + child
        radius)`` — an over-estimate keeps every bound valid without
        touching the (clean) descendant slices."""
        radius = self.radius.copy()
        order = dirty_ids[np.argsort(self.levels()[dirty_ids],
                                     kind="stable")][::-1]
        for i in order:
            i = int(i)
            kids = self.children(i)
            if len(kids) == 0:
                s, e = self.slice(i)
                if e > s:
                    diff = self.points[s:e] - self.centroid[i]
                    radius[i] = float(
                        np.sqrt((diff * diff).sum(axis=1).max()))
                else:
                    radius[i] = 0.0
            else:
                r = 0.0
                for c in kids:
                    c = int(c)
                    dc = float(np.sqrt(
                        ((self.centroid[i] - self.centroid[c]) ** 2).sum()))
                    r = max(r, dc + float(radius[c]))
                radius[i] = r
        self.radius = radius

    def min_dist(self, base, i, other, j):
        if isinstance(other, BallTree):
            return geometry.sphere_min_dist(
                base, self.centroid[i], self.radius[i],
                other.centroid[j], other.radius[j],
            )
        return super().min_dist(base, i, other, j)

    def max_dist(self, base, i, other, j):
        if isinstance(other, BallTree):
            return geometry.sphere_max_dist(
                base, self.centroid[i], self.radius[i],
                other.centroid[j], other.radius[j],
            )
        return super().max_dist(base, i, other, j)

    def point_min_dist(self, base, x, i):
        if base != "sqeuclidean":
            return super().point_min_dist(base, x, i)
        d = np.sqrt(np.dot(x - self.centroid[i], x - self.centroid[i]))
        gap = max(0.0, d - self.radius[i])
        return gap * gap

    def point_max_dist(self, base, x, i):
        if base != "sqeuclidean":
            return super().point_max_dist(base, x, i)
        d = np.sqrt(np.dot(x - self.centroid[i], x - self.centroid[i]))
        span = d + self.radius[i]
        return span * span


def build_balltree(
    points: np.ndarray,
    leaf_size: int = 32,
    weights: np.ndarray | None = None,
) -> BallTree:
    """Build a :class:`BallTree` (kd-style splits, sphere bounds)."""
    kd = build_kdtree(points, leaf_size=leaf_size, weights=weights)
    tree = BallTree(
        points=kd.points,
        perm=kd.perm,
        lo=kd.lo,
        hi=kd.hi,
        start=kd.start,
        end=kd.end,
        child_offset=kd.child_offset,
        child_list=kd.child_list,
        weights=None if weights is None else weights,
        leaf_size=leaf_size,
    )
    # Bounding-sphere radii around the node centroids.
    radius = np.empty(tree.n_nodes)
    for i in range(tree.n_nodes):
        s, e = tree.slice(i)
        diff = tree.points[s:e] - tree.centroid[i]
        radius[i] = float(np.sqrt((diff * diff).sum(axis=1).max()))
    tree.radius = radius
    return tree
