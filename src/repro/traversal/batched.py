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

2. **Apply** — how side effects land depends on the output:

   * **SUM programs** (``base_case_group`` given) add into ``acc``, where
     order moves only rounding.  Phase 1 applies each level's
     approximation actions in frontier order as it classifies and
     collects the base-case leaf pairs; once the frontier is empty, one
     grouped call per query leaf evaluates that leaf against the
     gathered points of all its reference leaves, sorted by ``rstart``.
     No decision record is kept.  Outputs fall under the output contract
     (DESIGN.md §8): within ``n·ε·Σ|term|`` of the stack engine.
   * **Order-dependent outputs** (``UNION*`` lists, ``PROD``, dense
     ``FORALL``) replay the recorded decision tree in the *exact order
     the stack engine would have used*: depth-first, children
     nearest-first (sorted per parent with one batched
     ``pair_min_dist_batch`` call + a stable ``lexsort`` instead of
     per-pair scalar distance calls).  Because decisions are stateless
     and the applied action sequence is identical, these outputs are
     bit-identical to the stack engine.

Comparative reductions whose bounds tighten mid-traversal (k-NN,
Hausdorff — the ``bound-min``/``bound-max`` rules) cannot be classified
statelessly; the compiler routes them to the epoch-based bound-aware
engine (:mod:`repro.traversal.bounded_batched`) instead, with
``CompileOptions.traversal = "stack"`` as the scalar escape hatch.

Memory: phase 1 reports its peak frontier width as the
``traversal.frontier_peak`` counter (summed over tasks under parallel
execution).  The replay's recorded levels grow geometrically with depth,
so phase 2 frees each level's lists as soon as it has popped every entry
recorded for it; the grouped path holds only the base-case pairs and one
query leaf's gathered index array at a time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..observe import contribute
from ..trees.node import ArrayTree
from .multitree import TraversalStats

__all__ = ["batched_dual_tree_traversal"]

# Replay opcodes: 0 expands (matches classify code 0 on non-leaf pairs).
_EXPAND, _PRUNED, _ACTION, _BASE = 0, 1, 2, 3


def _children(eq, er, qoff, qflat, roff, rflat):
    """Children combos of the expanded pairs ``(eq, er)``, q-major per
    pair like the stack engine's ``for a in qs for b in rs``, via array
    indexing; plus each pair's offset into them and each child's
    parent."""
    qn = qoff[eq + 1] - qoff[eq]
    rn = roff[er + 1] - roff[er]
    combos = qn * rn
    coff = np.concatenate([[0], np.cumsum(combos)])
    total = int(coff[-1])
    parent = np.repeat(np.arange(eq.size), combos)
    within = np.arange(total) - coff[:-1][parent]
    rrep = rn[parent]
    return (qflat[qoff[eq][parent] + within // rrep],
            rflat[roff[er][parent] + within % rrep], coff, parent)


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


def _replay(levels: list, base_case, apply_action) -> None:
    """Phase 2: apply the recorded side effects in stack-engine order."""
    # Every entry of level L+1 is pushed exactly once (it is a child of
    # some expand pair at level L), so a per-level countdown of pops
    # tells when a level's lists can never be touched again — free them
    # then rather than holding the whole decision record to the end.
    remaining = [len(lv[0]) for lv in levels]
    stack: list[tuple[int, int]] = [(0, 0)]
    push = stack.append
    pop = stack.pop
    while stack:
        lvl, i = pop()
        kinds, ql, rl, qs, qe, rs, re, cs, ce = levels[lvl]
        k = kinds[i]
        if k == _EXPAND:
            nxt = lvl + 1
            for j in range(cs[i], ce[i]):
                push((nxt, j))
        elif k == _BASE:
            base_case(qs[i], qe[i], rs[i], re[i])
        elif k == _ACTION:
            apply_action(ql[i], rl[i])
        # _PRUNED: no side effect.
        remaining[lvl] -= 1
        if not remaining[lvl]:
            levels[lvl] = None


def batched_dual_tree_traversal(
    qtree: ArrayTree,
    rtree: ArrayTree,
    classify_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
    apply_action: Callable[[int, int], None] | None,
    base_case: Callable[[int, int, int, int], None],
    pair_min_dist_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    base_case_group: Callable[[int, int, np.ndarray], None] | None = None,
    q_root: int = 0,
    r_root: int = 0,
    stats: TraversalStats | None = None,
) -> TraversalStats:
    """Traverse the (query, reference) tree pair with batched decisions.

    ``classify_batch(qis, ris)`` labels arrays of node-id pairs (may be
    ``None`` when the problem has no rule); ``apply_action(qi, ri)``
    applies the code-2 side effect for one pair; ``base_case`` receives
    leaf slices exactly as in the stack engine.  A SUM program passes
    ``base_case_group(qs, qe, ridx)`` and skips the replay.
    """
    owns_stats = stats is None
    stats = stats or TraversalStats()
    grouped = base_case_group is not None
    qstart, qend = qtree.start, qtree.end
    rstart, rend = rtree.start, rtree.end
    q_leaf_arr = qtree.is_leaf_arr
    r_leaf_arr = rtree.is_leaf_arr
    qoff, qflat = qtree.expansion_children()
    roff, rflat = rtree.expansion_children()

    # ---- phase 1: level-synchronous batched classification --------------
    levels: list[tuple | None] = []
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

        stats.visited += n
        stats.pruned += int(np.count_nonzero(codes == 1))
        stats.approximated += int(np.count_nonzero(codes == 2))
        nbase = int(np.count_nonzero(base))
        stats.base_cases += nbase
        if nbase:
            stats.base_case_pairs += int(
                ((qend[q] - qstart[q]) * (rend[r] - rstart[r]))[base].sum()
            )
        stats.recursions += int(np.count_nonzero(expand))

        eq, er = q[expand], r[expand]
        if grouped:
            act = codes == 2
            for qi, ri in zip(q[act].tolist(), r[act].tolist()):
                apply_action(qi, ri)
            if nbase:
                base_q.append(q[base])
                base_r.append(r[base])
            q, r, _, _ = _children(eq, er, qoff, qflat, roff, rflat)
            continue

        kinds = np.where(base, _BASE, codes).astype(np.int64)
        cstart = np.zeros(n, dtype=np.int64)
        cend = np.zeros(n, dtype=np.int64)
        cq, cr, coff, parent = _children(eq, er, qoff, qflat, roff, rflat)
        if pair_min_dist_batch is not None and cq.size > eq.size:
            # The stack engine pushes each pair's children sorted
            # stably by descending node-pair distance, so the pop
            # order is nearest-first.  Reproduce the push order with
            # one batched distance kernel + a stable lexsort.
            dists = np.asarray(pair_min_dist_batch(cq, cr),
                               dtype=np.float64)
            order = np.lexsort((-dists, parent))
            cq, cr = cq[order], cr[order]
        cstart[expand] = coff[:-1]
        cend[expand] = coff[1:]

        # Plain-int lists: the replay loop runs far faster on them than
        # on per-element numpy scalar indexing.
        levels.append((
            kinds.tolist(),
            q.tolist(), r.tolist(),
            qstart[q].tolist(), qend[q].tolist(),
            rstart[r].tolist(), rend[r].tolist(),
            cstart.tolist(), cend.tolist(),
        ))
        q, r = cq, cr

    if not grouped:
        _replay(levels, base_case, apply_action)
    elif base_q:
        _grouped_base_cases(np.concatenate(base_q), np.concatenate(base_r),
                            qstart, qend, rstart, rend, base_case_group)

    contribute({"traversal.frontier_peak": frontier_peak})
    if owns_stats:
        stats.contribute()
    return stats
