"""Batched frontier dual-tree traversal.

The stack engine (:mod:`repro.traversal.dualtree`) makes one scalar
``prune_or_approx`` call per visited node pair, so for problems whose
rules prune or approximate millions of pairs the Python call overhead —
not the algorithm — dominates wall-clock.  This engine removes that
overhead for *stateless* rules (indicator and approximation rules, whose
decisions depend only on node geometry and fixed thresholds, never on
mutable best-value bounds):

1. **Classify** — the traversal keeps a *frontier*: parallel arrays of
   (query-node, reference-node) ids, one level of the recursion at a
   time.  A single ``classify_batch`` kernel call labels the whole
   frontier (0: recurse, 1: prune, 2: approximate), boolean masks
   partition it into pruned / approximated / base-case / expand groups,
   and children of the expand group are produced with array indexing
   over the trees' expansion CSR (:meth:`ArrayTree.expansion_children`).
   Counters are tallied per level with ``count_nonzero``, so
   ``TraversalStats`` match the stack engine's exactly.

2. **Apply** — each level's approximation and inside actions are
   applied in frontier order as it is classified, and the base-case leaf
   pairs are collected.  Once the frontier is empty, one grouped call per
   query leaf evaluates that leaf against the gathered points of all its
   reference leaves, sorted by ``rstart``.  No decision record is kept,
   and nothing reproduces the stack engine's order: outputs fall under
   the output contract (DESIGN.md §8) — sums and products within
   rounding of the stack engine's, comparative reductions exact up to
   ties, lists equal.

Comparative reductions whose bounds tighten mid-traversal (k-NN,
Hausdorff — the ``bound-min``/``bound-max`` rules) cannot be classified
statelessly; the compiler routes them to the epoch-based bound-aware
engine (:mod:`repro.traversal.bounded_batched`) instead, with
``CompileOptions.traversal = "stack"`` as the scalar escape hatch.

Memory: phase 1 reports its peak frontier width as the
``traversal.frontier_peak`` counter (summed over tasks under parallel
execution).  Beside the frontier, the engine holds only the base-case
pairs and one query leaf's gathered index array at a time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..observe import contribute
from ..trees.node import ArrayTree
from .multitree import TraversalStats

__all__ = ["batched_dual_tree_traversal"]


def _children(eq, er, qoff, qflat, roff, rflat):
    """Children combos of the expanded pairs ``(eq, er)``, q-major per
    pair like the stack engine's ``for a in qs for b in rs``, via array
    indexing."""
    qn = qoff[eq + 1] - qoff[eq]
    rn = roff[er + 1] - roff[er]
    combos = qn * rn
    parent = np.repeat(np.arange(eq.size), combos)
    within = np.arange(parent.size) - (np.cumsum(combos) - combos)[parent]
    rrep = rn[parent]
    return (qflat[qoff[eq][parent] + within // rrep],
            rflat[roff[er][parent] + within % rrep])


def _grouped_base_cases(bq, br, qstart, qend, rstart, rend,
                        base_case_group) -> None:
    """One ``base_case_group`` call per query leaf of the base-case leaf
    pairs ``(bq, br)``, over the gathered points of that leaf's
    reference leaves in ``rstart`` order."""
    order = np.lexsort((rstart[br], bq))
    bq, br = bq[order], br[order]
    rs = rstart[br]
    rlen = rend[br] - rs
    uq, first = np.unique(bq, return_index=True)
    edges = np.append(first, bq.size).tolist()
    for g, qi in enumerate(uq.tolist()):
        a, b = edges[g], edges[g + 1]
        lens = rlen[a:b]
        seg = np.cumsum(lens) - lens
        ridx = (np.arange(int(lens.sum()), dtype=np.int64)
                + np.repeat(rs[a:b] - seg, lens))
        base_case_group(int(qstart[qi]), int(qend[qi]), ridx)


def batched_dual_tree_traversal(
    qtree: ArrayTree,
    rtree: ArrayTree,
    classify_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
    apply_action: Callable[[int, int], None] | None,
    base_case_group: Callable[[int, int, np.ndarray], None],
    q_root: int = 0,
    r_root: int = 0,
    stats: TraversalStats | None = None,
) -> TraversalStats:
    """Traverse the (query, reference) tree pair with batched decisions.

    ``classify_batch(qis, ris)`` labels arrays of node-id pairs (may be
    ``None`` when the problem has no rule); ``apply_action(qi, ri)``
    applies the code-2 side effect for one pair;
    ``base_case_group(qs, qe, ridx)`` evaluates query slice ``[qs, qe)``
    against the gathered reference positions ``ridx``.
    """
    owns_stats = stats is None
    stats = stats or TraversalStats()
    qstart, qend = qtree.start, qtree.end
    rstart, rend = rtree.start, rtree.end
    q_leaf_arr = qtree.is_leaf_arr
    r_leaf_arr = rtree.is_leaf_arr
    qoff, qflat = qtree.expansion_children()
    roff, rflat = rtree.expansion_children()

    # ---- phase 1: level-synchronous batched classification --------------
    base_q: list[np.ndarray] = []
    base_r: list[np.ndarray] = []
    frontier_peak = 0
    q = np.array([q_root], dtype=np.int64)
    r = np.array([r_root], dtype=np.int64)
    while q.size:
        n = q.size
        frontier_peak = max(frontier_peak, int(n))
        if classify_batch is not None:
            codes = np.asarray(classify_batch(q, r), dtype=np.int8)
        else:
            codes = np.zeros(n, dtype=np.int8)
        both_leaf = q_leaf_arr[q] & r_leaf_arr[r]
        recurse = codes == 0
        base = recurse & both_leaf
        expand = recurse & ~both_leaf
        act = codes == 2

        stats.visited += n
        stats.pruned += int(np.count_nonzero(codes == 1))
        stats.approximated += int(np.count_nonzero(act))
        nbase = int(np.count_nonzero(base))
        stats.base_cases += nbase
        if nbase:
            stats.base_case_pairs += int(
                ((qend[q] - qstart[q]) * (rend[r] - rstart[r]))[base].sum()
            )
            base_q.append(q[base])
            base_r.append(r[base])
        stats.recursions += int(np.count_nonzero(expand))

        for qi, ri in zip(q[act].tolist(), r[act].tolist()):
            apply_action(qi, ri)
        q, r = _children(q[expand], r[expand], qoff, qflat, roff, rflat)

    # ---- phase 2: one grouped base case per query leaf -------------------
    if base_q:
        _grouped_base_cases(np.concatenate(base_q), np.concatenate(base_r),
                            qstart, qend, rstart, rend, base_case_group)

    contribute({"traversal.frontier_peak": frontier_peak})
    if owns_stats:
        stats.contribute()
    return stats
