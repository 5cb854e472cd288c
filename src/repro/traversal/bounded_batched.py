"""Epoch-based batched dual-tree traversal: the one frontier loop.

The stack engine (:mod:`repro.traversal.dualtree`) makes one scalar
``prune_or_approx`` call per visited node pair, so for problems whose
rules prune or approximate millions of pairs the Python call overhead —
not the algorithm — dominates wall-clock.  This engine classifies whole
arrays of pending (query node, reference node) pairs per kernel call,
for both kinds of rule the compiler emits.  It picks the form from the
:class:`~repro.backend.codegen.GeneratedKernels` it is handed: a bound
rule when ``bound_key_batch`` exists, a stateless one otherwise.

1. **Signed bounds.**  Comparative reductions whose pruning bounds
   tighten mid-traversal (``bound-min``/``bound-max`` rules — k-NN,
   Hausdorff, the paper's §II-C "prune by best-so-far" family) read the
   mutable best-value arrays, so their per-pair decisions depend on
   traversal order.  Codegen folds both bound kinds onto one
   convention: each pending pair carries a signed *promise key*
   (``+g(t_edge)`` for bound-min, ``-g(t_edge)`` for bound-max) and each
   query point carries a signed bound ``qbound`` (``±`` its current
   k-th best value, ``+inf`` before any base case).  A pair is prunable
   iff its key exceeds the max-reduction of ``qbound`` over its query
   node's slice, and a *smaller* key always means "more promising".

2. **Epochs.**  A pending pool holds unclassified pairs.  Each epoch
   selects the most promising pairs (one ``argpartition``), classifies
   the whole selection against a *snapshot* of per-query-node bounds
   (one comparison, ``key > bound``), runs all the surviving leaf
   pairs in one blocked base case, expands the surviving non-leaf pairs
   through the expansion CSR, then refreshes the node-bound snapshot.
   The engine gathers the reference leaves meeting each query leaf into
   one flat index list, most promising first; the one
   ``base_case_blocks`` call sorts the epoch's query leaves by gathered
   width and packs them into padded blocks of at most
   ``codegen.CHUNK_CELLS`` cells, each one batched distance and one
   merge (a pad holds the operator's exclusion value and id −1).
   Epoch width ramps from :data:`RAMP_START` up to ``epoch_size``,
   doubling after every refresh: the narrow early epochs run only the
   best pairs so bounds are tight before the wide epochs classify the
   bulk of the pool.

3. **Conservative correctness.**  Bounds tighten monotonically — a base
   case can only decrease the signed ``qbound`` — so the snapshot a
   pair is classified against is never *tighter* than reality.  A stale
   bound can therefore under-prune (the pair runs a redundant base case
   whose candidates are all dominated, so every row fails the blocked
   base case's k-th-best filter and the merge is skipped) but never
   mis-prune: outputs meet the output contract (DESIGN.md §8) against
   the stack engine.  Processing pairs best-first means bounds tighten
   as fast as the nearest-first stack engine's, so pruning is
   equivalent or better in practice (asserted differentially by the
   test-suite).

4. **Row regime.**  When the whole query tree is small against the
   reference tree (``N_q · ROW_REGIME_RATIO ≤ N_r``: a served batch, a
   handful of probes) a query leaf's box spans most of the data, so no
   node pair prunes.  Algorithm 1 with a point as the query node is the
   single-tree walk, so the epochs then run over (query row × reference
   node) pairs instead: the promise key is the point-to-box band edge
   (``row_key_batch``), each pair is classified against its row's live
   ``qbound`` (no node-bound snapshot, no refresh), only the reference
   side expands, the ramp starts at ``max(RAMP_START, rows)`` and every
   leaf pair of an epoch goes to one ``base_case_rows`` call.  A
   surviving non-leaf pair descends :func:`descent_levels` reference
   levels at once — three of a kd or ball tree, one of an octree
   (:data:`ROW_DESCENT_WIDTH`) — into the node's descendants that far
   down, a leaf met on the way standing for itself.  Skipping the
   levels between never changes an answer: every descendant is still
   classified on its own bound before any base case; all that is given
   up is pruning a whole subtree at a level in between.  The
   descendants come from the reference tree's descent CSR
   (``descent_children``), built once per tree topology and kept in the
   topology cache the tree shares with its snapshots
   (:class:`~repro.trees.node.ArrayTree`), so the per-execute snapshot
   of a cached tree reads it instead of rebuilding it.  That
   kernel takes its distances over the flat candidate list in the
   difference form (``exact_values``, the arithmetic the winners are
   re-evaluated in, so no norm expansion loses them to cancellation far
   from the origin) and pads only the candidates that pass the row
   filter into one (rows × L) block for the merge.  The leaf regime's
   ``base_case_blocks`` over one-row leaves ran the same calls 1.6–2.7×
   slower (medians) from N_q = 32 up (docs/performance.md, "The row
   regime").  The decision reads the sizes of the whole trees the
   engine is handed, never the ``q_root`` subtree, so every task of one
   traversal takes the same regime.

5. **Stateless rules.**  Indicator and approximation rules decide from
   node geometry and fixed thresholds alone, so narrowing an epoch buys
   nothing: each epoch takes the whole pool, which is one level of the
   recursion.  ``classify_batch`` labels it (0: recurse, 1: prune,
   2: approximate) and ``apply_action`` applies each code-2 pair in
   pool order.  The promise key is the reference leaf's ``rstart``, and
   every base case is deferred to one flush after the loop: sorted by
   query leaf, then ``rstart``, and cut at query-leaf boundaries into
   slices of at most ``epoch_size`` leaf pairs, each one grouped call
   per query leaf (a cut bounds the gathered index array; it never
   splits a query leaf, so it cannot move a bit).  The row regime and
   the epoch hooks below are bound-only.

Node bounds are refreshed from ``qbound`` in two reduceat sweeps: sorted
leaves tile ``[0, n)`` contiguously, so one ``np.maximum.reduceat`` over
the leaf starts bounds every leaf, and the per-level bottom-up plan from
:func:`repro.trees.node.level_propagation` propagates them to internal
nodes (children are always strictly deeper, hence already reduced).

Observability (``repro.observe``): a ``traversal.bounded`` span plus
``bounded.epochs``, ``bounded.deferred_prunes`` (pairs pruned only on a
*later* epoch than the one they were generated in — the price of
snapshot staleness), ``bounded.bound_refreshes``,
``bounded.pending_peak`` (a stateless traversal's widest level) and
``bounded.row_regime`` (1 per traversal that takes the row regime).
"""

from __future__ import annotations

import numpy as np

from ..observe import contribute, span
from .multitree import TraversalStats

__all__ = ["bounded_batched_dual_tree_traversal", "DEFAULT_EPOCH_SIZE",
           "ROW_REGIME_RATIO", "ROW_DESCENT_WIDTH", "descent_levels",
           "takes_row_regime"]

#: Pairs classified per epoch once the ramp is done (and leaf pairs per
#: slice of a stateless flush).  Large enough that kernel calls amortise
#: their dispatch cost, small enough that the bound snapshot a pair sees
#: is rarely stale (measured on the Table IV k-NN configurations).
DEFAULT_EPOCH_SIZE = 4096

#: Warm-up epoch size.  Until the first base cases run, every query bound
#: is ``+inf`` and nothing can prune — so the first leaf-bearing epochs
#: must be narrow (process only the most promising pairs, tighten bounds)
#: before the epoch width doubles up to ``epoch_size``.  Without the ramp
#: a pool that fits inside one epoch degenerates to level-synchronous
#: brute force: all leaf pairs are classified against the untouched
#: snapshot.
RAMP_START = 64

#: Row-regime threshold: a traversal whose whole query tree holds at most
#: ``1 / ROW_REGIME_RATIO`` of its reference tree's points runs (query
#: row × reference node) pairs.  From the measured crossover against the
#: leaf regime (docs/performance.md, "The row regime"): at d = 9 and
#: d = 3 the two break even between N_q = N_r / 16 and N_r / 10 and the
#: row regime loses from there on; 16 sits at the bottom of that band.
ROW_REGIME_RATIO = 16

#: Row-regime descent budget: a surviving (row, reference node) pair
#: expands into the node's descendants ``L`` levels down (a leaf met on
#: the way stands for itself), ``L`` the most levels whose full fan-out
#: stays within this many nodes — 3 levels of a kd or ball tree, 1 of an
#: octree.  Every epoch pays a fixed run of NumPy calls, and descending
#: one level per epoch spent most of a served batch's epochs walking
#: down; past the budget the pool outgrows the epoch width and the
#: epochs come back.  From a sweep over served and probe batches
#: (docs/performance.md, "The row regime").
ROW_DESCENT_WIDTH = 8

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


def takes_row_regime(qtree, rtree) -> bool:
    """Whether a traversal runs (query row × reference node) pairs.

    Decided from the sizes of the whole trees the engine is handed (the
    root slices), never from a task's ``q_root`` subtree, so serial,
    thread and process tasks of one program all take the same regime."""
    nq = int(qtree.end[0] - qtree.start[0])
    nr = int(rtree.end[0] - rtree.start[0])
    return nq * ROW_REGIME_RATIO <= nr


def descent_levels(tree) -> int:
    """Reference levels one row-regime expansion descends in ``tree``:
    the most whose widest fan-out, compounded, stays within
    :data:`ROW_DESCENT_WIDTH` (at least one)."""
    fanout = int((tree.child_offset[1:] - tree.child_offset[:-1]).max())
    levels, width = 1, fanout
    while fanout > 1 and width * fanout <= ROW_DESCENT_WIDTH:
        levels += 1
        width *= fanout
    return levels


def _flush_cuts(bq, width: int) -> list[int]:
    """Slice edges over the query-leaf-sorted pairs ``bq`` of a
    stateless flush: a cut falls only where the query leaf changes, and
    a slice holds at most ``width`` pairs unless one leaf alone holds
    more."""
    edges = [0, *(np.flatnonzero(np.diff(bq)) + 1).tolist(), int(bq.size)]
    cuts = [0]
    for a, b in zip(edges[:-1], edges[1:]):
        if b - cuts[-1] > width and a > cuts[-1]:
            cuts.append(a)
    cuts.append(int(bq.size))
    return cuts


def bounded_batched_dual_tree_traversal(
    qtree,
    rtree,
    kernels,
    qbound: np.ndarray | None = None,
    epoch_size: int = DEFAULT_EPOCH_SIZE,
    q_root: int = 0,
    r_root: int = 0,
    stats: TraversalStats | None = None,
    max_epochs: int | None = None,
    resume: tuple | None = None,
    extern_bound: np.ndarray | None = None,
    pause_out: dict | None = None,
) -> TraversalStats:
    """Traverse the (query, reference) tree pair in epochs over the
    :class:`~repro.backend.codegen.GeneratedKernels` ``kernels``.

    ``qbound`` is a bound program's signed per-query bound array
    allocated with the program state (``+inf`` identity; ``None`` for a
    stateless program); it is updated in place by the base-case kernels
    and re-read here at every node-bound refresh (the row regime reads
    it live at every epoch), so concurrent tasks over disjoint query
    subtrees share one array.

    The epoch hooks serve the cross-shard bound broadcast of
    :mod:`repro.parallel.shard`, for bound programs only:

    * ``max_epochs`` caps the number of epochs this call runs.  A
      traversal stopped with pairs still pending stores its pending pool
      in ``pause_out["pending"]`` (an opaque tuple; its query side holds
      node ids, or row positions in the row regime) and can be continued
      later by passing that tuple back as ``resume``.
    * ``extern_bound`` is an externally supplied signed per-query bound
      array (e.g. the global bound min-reduced across shards).  It is
      combined with ``qbound`` as ``min(qbound, extern_bound)`` wherever
      a bound is read — never written into ``qbound`` itself, because
      the base cases overwrite ``qbound`` from the local best arrays
      after each merge.  An external bound only ever *removes* dominated
      work: any candidate it prunes is beaten by a candidate retained
      elsewhere, so the combined cross-shard result is exact.
    """
    owns_stats = stats is None
    stats = stats or TraversalStats()
    qstart, qend = qtree.start, qtree.end
    rstart, rend = rtree.start, rtree.end
    r_leaf_arr = np.asarray(rtree.is_leaf_arr)
    bound = kernels.bound_key_batch is not None
    row_regime = bound and takes_row_regime(qtree, rtree)
    refresh = None

    def _effective_bound():
        if extern_bound is None:
            return qbound
        return np.minimum(qbound, extern_bound)

    if row_regime:
        key_batch = kernels.row_key_batch

        def bounds_of(q):
            # Each row's live bound: no snapshot, nothing to refresh.
            return _effective_bound()[q]

        def leaf_mask(q, r):
            return r_leaf_arr[r]

        def run_base_cases(bq, br, bkey):
            # Every candidate pair of the epoch in one flat list, grouped
            # by row, most promising reference leaf first within a row:
            # one kernel call per epoch.
            order = np.lexsort((bkey, bq))
            bq, br = bq[order], br[order]
            rlen = rend[br] - rstart[br]
            seg = np.cumsum(rlen) - rlen
            total = int(seg[-1] + rlen[-1])
            pair = np.repeat(np.arange(bq.size), rlen)
            within = np.arange(total, dtype=np.int64) - seg[pair]
            kernels.base_case_rows(bq[pair], rstart[br][pair] + within)
            return total

        roff, rflat = rtree.descent_children(descent_levels(rtree))

        def expand(eq, er):
            # Only the reference side splits, descent_levels() levels at
            # once; a row is already a point.
            rn = roff[er + 1] - roff[er]
            total = int(rn.sum())
            within = np.arange(total) - np.repeat(np.cumsum(rn) - rn, rn)
            return np.repeat(eq, rn), rflat[np.repeat(roff[er], rn) + within]
    else:
        q_leaf_arr = np.asarray(qtree.is_leaf_arr)
        qoff, qflat = qtree.expansion_children()
        roff, rflat = rtree.expansion_children()
        if bound:
            key_batch = kernels.bound_key_batch
            lsort, lstarts, plan = qtree.bound_plan()
            # Signed node bounds over the *query* tree; +inf until the
            # first refresh (nothing prunes against an untouched query
            # subtree).
            node_bound = np.full(len(qstart), np.inf)

            def refresh():
                # Leaf bounds in one reduceat over the contiguous leaf
                # partition, internal bounds bottom-up per level.
                eff = _effective_bound()
                node_bound[lsort] = np.maximum.reduceat(eff, lstarts)
                for ids, kids, segs in plan:
                    node_bound[ids] = np.maximum.reduceat(node_bound[kids],
                                                          segs)

            def bounds_of(q):
                return node_bound[q]
        else:
            def key_batch(q, r):
                # No promise to order by: a query leaf gathers its
                # reference leaves in point order.
                return rstart[r]

        def leaf_mask(q, r):
            return q_leaf_arr[q] & r_leaf_arr[r]

        def run_base_cases(bq, br, bkey):
            # Group by query leaf, most promising reference leaf first,
            # and gather every reference slice into one flat index
            # array: a bound program makes one blocked call for the
            # batch, a stateless one one call per query leaf.
            order = np.lexsort((bkey, bq))
            bq, br = bq[order], br[order]
            rlen = rend[br] - rstart[br]
            total = int(rlen.sum())
            seg = np.cumsum(rlen) - rlen
            ridx = (np.arange(total, dtype=np.int64)
                    - np.repeat(seg, rlen)
                    + np.repeat(rstart[br], rlen))
            uq, first = np.unique(bq, return_index=True)
            redge = np.append(seg[first], total)
            if bound:
                kernels.base_case_blocks(qstart[uq], qend[uq], ridx, redge)
            else:
                for g in range(uq.size):
                    qi = int(uq[g])
                    kernels.base_case_group(int(qstart[qi]), int(qend[qi]),
                                            ridx[redge[g]:redge[g + 1]])
            return int(((qend[bq] - qstart[bq]) * rlen).sum())

        def expand(eq, er):
            qn = qoff[eq + 1] - qoff[eq]
            rn = roff[er + 1] - roff[er]
            combos = qn * rn
            coff = np.cumsum(combos) - combos
            total = int(combos.sum())
            parent = np.repeat(np.arange(eq.size), combos)
            within = np.arange(total) - coff[parent]
            rrep = rn[parent]
            return (qflat[qoff[eq][parent] + within // rrep],
                    rflat[roff[er][parent] + within % rrep])

    if resume is not None:
        pq, pr, pkey, pborn, cur_size = resume
        pq = np.asarray(pq, dtype=np.int64)
        pr = np.asarray(pr, dtype=np.int64)
        pkey = np.asarray(pkey, dtype=np.float64)
        pborn = np.asarray(pborn, dtype=np.int64)
        cur_size = int(cur_size)
    elif row_regime:
        pq = np.arange(qstart[q_root], qend[q_root], dtype=np.int64)
        pr = np.full(pq.size, r_root, dtype=np.int64)
        pkey = np.asarray(key_batch(pq, pr), dtype=np.float64)
        pborn = np.zeros(pq.size, dtype=np.int64)
        cur_size = max(RAMP_START, pq.size)
    else:
        pq = np.array([q_root], dtype=np.int64)
        pr = np.array([r_root], dtype=np.int64)
        pkey = np.asarray(key_batch(pq, pr), dtype=np.float64).reshape(1)
        pborn = np.zeros(1, dtype=np.int64)
        cur_size = min(epoch_size, RAMP_START)
    # The row regime's first epoch already holds one pair per row.
    width_cap = max(epoch_size, cur_size) if row_regime else epoch_size
    cur_size = min(cur_size, width_cap)
    if refresh is not None and (resume is not None
                                or extern_bound is not None):
        # Resumed/externally-bounded calls start from real bounds, not
        # the +inf snapshot: the pool may be classifiable immediately.
        refresh()

    epochs = 0
    deferred = 0
    refreshes = 0
    pending_peak = 0
    held: list[tuple] = []  # a stateless traversal's leaf pairs
    with span("traversal.bounded", epoch_size=epoch_size,
              regime="row" if row_regime else "leaf") as sp:
        while pq.size and (max_epochs is None or epochs < max_epochs):
            pending_peak = max(pending_peak, int(pq.size))
            epochs += 1
            if bound and pq.size > cur_size:
                sel = np.argpartition(pkey, cur_size - 1)[:cur_size]
                keep = np.ones(pq.size, dtype=bool)
                keep[sel] = False
                q, r, keys, born = pq[sel], pr[sel], pkey[sel], pborn[sel]
                pq, pr, pkey, pborn = pq[keep], pr[keep], pkey[keep], pborn[keep]
            else:
                q, r, keys, born = pq, pr, pkey, pborn
                pq, pr, pkey, pborn = _EMPTY_I, _EMPTY_I, _EMPTY_F, _EMPTY_I

            stats.visited += int(q.size)
            if bound:
                pruned = keys > bounds_of(q)
                live = ~pruned
                # Pairs generated in an earlier epoch and pruned only now:
                # the bound they were born under was too stale to kill
                # them at generation time.
                deferred += int(np.count_nonzero(born[pruned] < epochs - 1))
            else:
                codes = (np.zeros(q.size, dtype=np.int8)
                         if kernels.classify_batch is None else
                         np.asarray(kernels.classify_batch(q, r),
                                    dtype=np.int8))
                pruned = codes == 1
                live = codes == 0
                act = codes == 2
                stats.approximated += int(np.count_nonzero(act))
                for qi, ri in zip(q[act].tolist(), r[act].tolist()):
                    kernels.apply_action(qi, ri)
            stats.pruned += int(np.count_nonzero(pruned))
            if not live.all():
                q, r, keys = q[live], r[live], keys[live]

            leaf = leaf_mask(q, r)
            if leaf.any():
                stats.base_cases += int(np.count_nonzero(leaf))
                if bound:
                    stats.base_case_pairs += run_base_cases(
                        q[leaf], r[leaf], keys[leaf])
                    if refresh is not None:
                        refresh()
                        refreshes += 1
                    # Widen only once base cases have fed the bounds: the
                    # ramp exists to get real bounds in place before the
                    # bulk of the leaf pairs is classified.
                    cur_size = min(cur_size * 2, width_cap)
                else:
                    held.append((q[leaf], r[leaf], keys[leaf]))

            eq, er = q[~leaf], r[~leaf]
            stats.recursions += int(eq.size)
            if eq.size:
                cq, cr = expand(eq, er)
                ckey = np.asarray(key_batch(cq, cr), dtype=np.float64)
                pq = np.concatenate([pq, cq])
                pr = np.concatenate([pr, cr])
                pkey = np.concatenate([pkey, ckey])
                pborn = np.concatenate(
                    [pborn, np.full(cq.size, epochs, dtype=np.int64)]
                )

        if held:
            # The stateless flush: every leaf pair sorted by query leaf,
            # then rstart, and run in cache-sized slices.
            bq, br, bkey = (np.concatenate(part) for part in zip(*held))
            order = np.lexsort((bkey, bq))
            bq, br, bkey = bq[order], br[order], bkey[order]
            cuts = _flush_cuts(bq, epoch_size)
            for a, b in zip(cuts[:-1], cuts[1:]):
                stats.base_case_pairs += run_base_cases(bq[a:b], br[a:b],
                                                        bkey[a:b])
        sp.note(epochs=epochs, pending_peak=pending_peak)

    if pq.size:
        # max_epochs stopped us with work pending: hand the pool back so
        # the caller can continue via ``resume`` after the barrier.
        if pause_out is None:  # pragma: no cover - caller contract
            raise ValueError(
                "bounded traversal hit max_epochs with pairs pending but "
                "no pause_out was supplied"
            )
        pause_out["pending"] = (pq, pr, pkey, pborn, cur_size)

    contribute({
        "bounded.epochs": epochs,
        "bounded.deferred_prunes": deferred,
        "bounded.bound_refreshes": refreshes,
        "bounded.pending_peak": pending_peak,
        "bounded.row_regime": int(row_regime and resume is None),
    })
    if owns_stats:
        stats.contribute()
    return stats
