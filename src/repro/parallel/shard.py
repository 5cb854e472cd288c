"""Sharded reference layout: per-shard trees, replicated queries.

The scale-out inversion of the unsharded layout, which keeps **one
replicated reference tree** and partitions the *query* tree across
tasks — so every worker holds (a view of) the full reference set, and
reference-set size is bounded by what one tree build can hold.  This
module inverts that:

* :func:`plan_shards` partitions the reference set into ``P`` spatial
  shards by recursive median cuts (largest part first, widest-spread
  dimension, computed from per-dimension 1-D column gathers so the full
  ``(n, d)`` matrix is never re-materialised);
* one :class:`~repro.trees.node.ArrayTree` is built **per shard** (in
  parallel, through the derived-key tree cache) — no concatenated copy
  of the full reference set ever exists;
* the *query* tree is replicated: every shard's traversal runs the same
  query tree against its own small reference tree, and a per-problem
  **combine step** derived from the inner operator's algebra
  (:func:`combine_shard_states`) merges the per-shard partial states —
  elementwise Σ/Π for arithmetic reductions, a first-hit arg-select
  on (value, id) for the single-value comparative ones, a k-way merge
  on (value, id) for the ``K*`` family, chunk concatenation for unions.

Correctness rests on operator decomposability (paper section II-C): a
decomposable reduction over the reference set equals the reduction of
per-shard reductions over any partition, and the spatial partition is a
partition.  Self-pair exclusion survives the layout change as a label
test (``CodegenSpec.labels``): the shard tree is *never* the query tree,
so the unsharded diagonal test cannot apply; instead a query point's
label is its query-tree position (``QLABEL``, bound once on the query
side) and each shard binds ``RLABEL``, the query-tree position of each
of its points, which the count and append actions read as a position.

Each shard is one side of the fan-out
(:func:`repro.parallel.scheduler.fan_out`): its (shard × query-subtree)
tasks run once, to completion, on the plan's runner.  A bound rule
(k-NN, Hausdorff) tightens each shard's ``qbound`` from that shard's
points alone, so a shard holding only distant points still runs its
whole traversal; the combine step discards what it found.

Observability: ``shard.runs`` and ``shard.builds`` counters plus
``shard.run`` / ``shard.tree_build`` spans (the fan-out's own are
``parallel.*``), and ``PortalExpr.stats()["shard"]`` carries the shard
count and per-shard traversal stats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsl.ops import MAX_LIKE, MIN_LIKE, PortalOp, op_info
from ..observe import contribute, span
from ..traversal import TraversalStats
from .executor import run_tasks
from .scheduler import Side, fan_out

__all__ = [
    "plan_shards", "ShardPack", "ShardExecution", "build_shard_pack",
    "build_shard_execution", "combine_shard_states", "run_sharded",
]


def plan_shards(points: np.ndarray, nshards: int) -> list[np.ndarray]:
    """Partition ``points`` into ``nshards`` spatially compact index sets.

    Top-of-kd-tree median cuts: repeatedly split the largest part at the
    median of its widest-spread dimension until ``nshards`` parts exist.
    Each spread/median is computed from a 1-D gather of one coordinate
    column (``points[idx, d]``) — the full ``(len(idx), d)`` row gather
    is left to the per-shard tree build, so planning never materialises
    a second copy of the dataset.  Deterministic for a given input; the
    returned index arrays are ascending and tile ``[0, n)`` exactly.
    """
    n = len(points)
    parts: list[np.ndarray] = [np.arange(n, dtype=np.int64)]
    while len(parts) < nshards:
        j = max(range(len(parts)), key=lambda i: len(parts[i]))
        idx = parts[j]
        if len(idx) < 2:  # pragma: no cover - the plan clamps shards to n
            break
        spreads = [
            float(points[idx, d].max() - points[idx, d].min())
            for d in range(points.shape[1])
        ]
        col = points[idx, int(np.argmax(spreads))]
        half = len(idx) // 2
        sel = np.argpartition(col, half)
        parts[j:j + 1] = [np.sort(idx[sel[:half]]), np.sort(idx[sel[half:]])]
    return parts


@dataclass
class ShardPack:
    """Cacheable per-shard products of one compile: trees, the
    shard-position → original-reference-id maps, and the reference-side
    static kernel :class:`~repro.backend.codegen.Bindings` (including
    ``RLABEL`` for self-excluding programs)."""

    count: int
    trees: list
    orig: list[np.ndarray]
    bindings: list


@dataclass
class ShardExecution:
    """Per-instantiation runnable state: one fresh full-``nq``
    :class:`~repro.backend.state.State` and one bound kernel set per
    shard (states are never shared across programs)."""

    pack: ShardPack
    states: list
    kernels: list


def build_shard_pack(
    kind: str,
    rpoints: np.ndarray,
    rweights: np.ndarray | None,
    leaf_size: int,
    nshards: int,
    base_key: tuple,
    rule,
    inv_qperm: np.ndarray | None = None,
) -> ShardPack:
    """Plan the shards and build one tree per shard, in parallel.

    ``base_key`` is the parent dataset's memoized fingerprint tuple —
    the derived tree-cache key (see
    :func:`repro.backend.cache.cached_build_subset_tree`) means repeated
    compiles over the same data rebuild nothing.  ``rule`` (the
    program's ``CodegenSpec.rule``) picks the r-side operands each shard
    binds (:meth:`~repro.backend.codegen.Bindings.reference`).
    ``inv_qperm`` (original id → query-tree position) is supplied for
    self-excluding programs and yields each shard's ``RLABEL`` binding.
    """
    from ..backend.cache import cached_build_subset_tree
    from ..backend.codegen import Bindings

    parts = plan_shards(rpoints, nshards)
    nshards = len(parts)
    with span("shard.tree_build", shards=nshards, tree=kind):
        trees = run_tasks([
            (lambda p=p, i=i: cached_build_subset_tree(
                kind, rpoints, p, leaf_size, rweights, base_key,
                (i, nshards)))
            for i, p in enumerate(parts)
        ])
    origs: list[np.ndarray] = []
    bindings: list[Bindings] = []
    for tree, part in zip(trees, parts):
        orig = np.ascontiguousarray(part[tree.perm])
        origs.append(orig)
        bindings.append(Bindings.reference(
            tree, rule, None if inv_qperm is None
            else np.ascontiguousarray(inv_qperm[orig])))
    contribute({"shard.builds": nshards})
    return ShardPack(count=nshards, trees=trees, orig=origs, bindings=bindings)


def build_shard_execution(
    pack: ShardPack,
    source: str,
    code,
    q_bindings,
    outer_op,
    inner_op,
    k: int | None,
    nq: int,
) -> ShardExecution:
    """Allocate fresh per-shard states and bind the generated kernels
    against query-side bindings + this shard's reference bindings + this
    shard's accumulators."""
    from ..backend.state import allocate_state

    states, kernels = [], []
    for i in range(pack.count):
        st = allocate_state(outer_op, inner_op, k, nq, int(pack.trees[i].n))
        kernels.append((q_bindings | pack.bindings[i]).bind(
            source, code, st))
        states.append(st)
    return ShardExecution(pack=pack, states=states, kernels=kernels)


# ---------------------------------------------------------------------------
# combine step
# ---------------------------------------------------------------------------

def combine_shard_states(shard_exec: ShardExecution, final_state) -> None:
    """Merge per-shard partial states into ``final_state`` using the
    inner operator's reduction algebra.

    Shard ``best_idx`` entries are shard-tree positions; they are mapped
    to *original* reference ids here (through each shard's ``orig``
    array), so finalisation runs with ``rperm=None``.  Ties — equal
    values on different shards — resolve to the lowest shard index
    (stable sorts / first-hit argmin), which is deterministic but may
    legitimately differ from the unsharded traversal-order tie-break.
    """
    states = shard_exec.states
    pack = shard_exec.pack
    op = final_state.inner_op
    info = op_info(op)
    k = final_state.k

    if op is PortalOp.SUM:
        final_state.arrays["acc"][:] = np.sum(
            [st.arrays["acc"] for st in states], axis=0)
    elif op is PortalOp.PROD:
        final_state.arrays["acc"][:] = np.prod(
            [st.arrays["acc"] for st in states], axis=0)
    elif op in MIN_LIKE | MAX_LIKE:
        # one (P, nq[, K]) stack of values and of ids mapped to original
        # reference ids (−1, an unfilled slot, stays −1)
        vals = np.stack([st.arrays["best"] for st in states])
        idxs = np.stack([
            np.where(st.arrays["best_idx"] >= 0,
                     pack.orig[s][np.maximum(st.arrays["best_idx"], 0)], -1)
            for s, st in enumerate(states)])
        if info.requires_k:  # shards side by side: (nq, P·K)
            vals = np.concatenate(vals, axis=1)
            idxs = np.concatenate(idxs, axis=1)
            sign = 1.0 if op in MIN_LIKE else -1.0
            order = np.argsort(sign * vals, axis=1, kind="stable")[:, :k]
            final_state.arrays["best"][:] = np.take_along_axis(
                vals, order, axis=1)
            final_state.arrays["best_idx"][:] = np.take_along_axis(
                idxs, order, axis=1)
        else:  # first hit: the lowest shard wins a tie
            sel = (np.argmin if op in MIN_LIKE else np.argmax)(vals, axis=0)
            cols = np.arange(vals.shape[1])
            final_state.arrays["best"][:] = vals[sel, cols]
            final_state.arrays["best_idx"][:] = idxs[sel, cols]
    elif op in (PortalOp.UNION, PortalOp.UNIONARG):
        for qi in range(final_state.nq):
            merged = final_state.lists[qi]
            merged.clear()
            for s, st in enumerate(states):
                for chunk in st.lists[qi]:
                    if op is PortalOp.UNIONARG:
                        chunk = pack.orig[s][
                            np.asarray(chunk, dtype=np.int64)]
                    merged.append(chunk)
    else:  # pragma: no cover - FORALL never reaches tree mode
        raise ValueError(f"cannot combine shards for operator {op.name}")

    if "qbound" in final_state.arrays:
        # Purely observational after the combine; the signed convention
        # makes min the right reduction for both bound-rule kinds.
        final_state.arrays["qbound"][:] = np.minimum.reduce(
            [st.arrays["qbound"] for st in states])


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def run_sharded(
    qtree,
    shard_exec: ShardExecution,
    final_state,
    plan,
    *,
    token: str | None = None,
    q_bindings=None,
) -> tuple[TraversalStats, dict]:
    """Run one compiled program across its reference shards and combine,
    as its :class:`~repro.backend.plan.ExecutionPlan` ``plan`` says: one
    side per shard through :func:`~repro.parallel.scheduler.fan_out`,
    each shard's tasks accumulating into its own state, then
    :func:`combine_shard_states`.

    Returns ``(merged TraversalStats, shard_info)`` where ``shard_info``
    carries the shard count and per-shard stats surfaced through
    ``stats()["shard"]``.
    """
    pack = shard_exec.pack
    sides = [Side(*side) for side in zip(
        pack.trees, shard_exec.kernels, shard_exec.states, pack.bindings)]
    with span("shard.run", shards=pack.count, engine=plan.engine,
              executor=plan.executor):
        per_shard = fan_out(qtree, sides, plan, q_bindings, token)
    combine_shard_states(shard_exec, final_state)
    total = TraversalStats()
    for st in per_shard:
        total.merge(st)
    contribute({"shard.runs": 1})
    return total, {"count": pack.count,
                   "per_shard": [st.as_dict() for st in per_shard]}
