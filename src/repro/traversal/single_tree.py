"""Single-tree traversal: one query point walking the reference tree.

The classical alternative to the dual-tree scheme (and what several of
the paper's comparison libraries implement — MLPACK's default k-NN,
scikit-learn's KDTree queries, FDPS's per-particle interaction lists):
the dual-tree amortises node examinations over whole query *nodes*, the
single-tree pays one walk per query *point* but enjoys simpler, tighter
per-point bounds.  Compiled programs take this walk, vectorised across
rows, as the bounded engine's row regime
(:mod:`repro.traversal.bounded_batched`) when the query set is small
against the reference set; this scalar form is that regime's test
reference and the algorithm ablation's single-tree row.

The walk is best-first (children pushed nearest-first) with a per-point
prune rule, matching Algorithm 1's structure restricted to a leaf query.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..trees.node import ArrayTree
from .multitree import TraversalStats

__all__ = ["single_tree_traversal", "single_tree_knn"]


def single_tree_traversal(
    tree: ArrayTree,
    x: np.ndarray,
    prune: Callable[[int], int] | None,
    base_case: Callable[[int, int], None],
    point_min_dist: Callable[[int], float] | None = None,
    stats: TraversalStats | None = None,
) -> TraversalStats:
    """Walk ``tree`` for a single query point ``x``.

    ``prune(node) -> int`` (0 recurse, nonzero skip), ``base_case(s, e)``
    receives leaf slices, ``point_min_dist(node)`` orders children
    nearest-first.
    """
    owns_stats = stats is None
    stats = stats or TraversalStats()
    stack = [0]
    while stack:
        node = stack.pop()
        stats.visited += 1
        if prune is not None and prune(node):
            stats.pruned += 1
            continue
        kids = tree.children(node)
        if len(kids) == 0:
            s, e = tree.slice(node)
            stats.base_cases += 1
            stats.base_case_pairs += e - s
            base_case(s, e)
            continue
        stats.recursions += 1
        order = list(int(c) for c in kids)
        if point_min_dist is not None and len(order) > 1:
            order.sort(key=point_min_dist, reverse=True)  # nearest popped first
        stack.extend(order)
    if owns_stats:
        stats.contribute()
    return stats


def single_tree_knn(
    query: np.ndarray,
    tree: ArrayTree,
    k: int = 1,
    exclude_index: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """k-NN via one single-tree walk per query point.

    ``exclude_index[i]`` optionally names a permuted reference position to
    skip for query ``i`` (self-exclusion on self-joins).  Returns
    distances and *permuted* reference positions; callers map through
    ``tree.perm``.
    """
    Q = np.ascontiguousarray(query, dtype=np.float64)
    pts = tree.points
    lo, hi = tree.lo, tree.hi
    nq = len(Q)
    dist = np.empty((nq, k))
    idx = np.empty((nq, k), dtype=np.int64)

    for i in range(nq):
        x = Q[i]
        best = np.full(k, np.inf)
        bidx = np.full(k, -1, dtype=np.int64)
        skip = -1 if exclude_index is None else int(exclude_index[i])

        def point_min(node: int) -> float:
            g = np.maximum(0.0, np.maximum(lo[node] - x, x - hi[node]))
            return float(g @ g)

        def prune(node: int) -> int:
            return 1 if point_min(node) > best[k - 1] else 0

        def base_case(s: int, e: int) -> None:
            d = pts[s:e] - x
            d2 = np.einsum("ij,ij->i", d, d)
            if s <= skip < e:
                d2[skip - s] = np.inf
            cand_v = np.concatenate([best, d2])
            cand_i = np.concatenate([bidx, np.arange(s, e)])
            part = np.argpartition(cand_v, k - 1)[:k]
            order = np.argsort(cand_v[part], kind="stable")
            best[:] = cand_v[part][order]
            bidx[:] = cand_i[part][order]

        single_tree_traversal(tree, x, prune, base_case,
                              point_min_dist=point_min)
        dist[i] = np.sqrt(best)
        idx[i] = bidx
    return dist, idx
