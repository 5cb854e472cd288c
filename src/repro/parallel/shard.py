"""Sharded reference layout: per-shard trees, replicated queries.

The scale-out inversion of the process executor's data layout.  The
scheduler path (:mod:`repro.parallel.scheduler` /
:mod:`repro.parallel.process_backend`) keeps **one replicated reference
tree** and partitions the *query* tree across tasks — which means every
worker holds (a view of) the full reference set, and reference-set size
is bounded by what one tree build can hold.  This module inverts that:

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
partition.  Self-pair exclusion survives the layout change through the
``RSELF`` remap emitted under ``CodegenSpec.self_map`` (the shard tree is
*never* the query tree, so the unsharded diagonal test cannot apply).

Cross-shard pruning — the perf centerpiece for bound rules (k-NN,
Hausdorff): each shard only tightens its ``qbound`` from its *own*
points, so a shard holding distant points keeps traversing long after
the combined answer is settled.  Between the batched engine's epochs the
coordinator pauses every shard (``max_epochs``), min-reduces the signed
per-query bounds into a **global bound**, and broadcasts it back as the
engine's ``extern_bound``.  Shards whose root-level promise key cannot
beat the worst global bound are killed wholesale (``shard.pruned``);
in process mode individual paused tasks are killed against their query
slice's bound (``shard.tasks_pruned``).  The broadcast only removes
dominated work — any candidate it prunes is beaten by a candidate
retained on another shard — so the combined output is exact.

Observability: ``shard.runs``, ``shard.builds``, ``shard.pruned``,
``shard.tasks_pruned``, ``shard.rounds`` counters plus ``shard.run`` /
``shard.tree_build`` / ``shard.shm_publish`` / ``shard.phase`` spans,
and ``PortalExpr.stats()["shard"]`` carries per-shard traversal stats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsl.ops import MAX_LIKE, MIN_LIKE, PortalOp, op_info
from ..observe import contribute, span
from ..traversal import TraversalStats, bound_epochs, run_engine
from ..traversal.bounded_batched import takes_row_regime
from . import shm
from .executor import run_process_tasks, run_tasks
from .process_backend import ephemeral_token, merge_result, tree_structure
from .scheduler import expand_frontier
from .worker import run_task

__all__ = [
    "SEED_EPOCHS", "ROW_SEED_EPOCHS", "plan_shards", "ShardPack",
    "ShardExecution", "build_shard_pack", "build_shard_execution",
    "combine_shard_states", "run_sharded",
]

#: Epochs every shard runs before the first cross-shard bound broadcast.
#: Enough for the engine's ramp (64 → 4096 doubling) to run real base
#: cases and produce finite bounds, small enough that a dominated shard
#: is killed before touching the bulk of its pool.
SEED_EPOCHS = 12
#: The seed round of a shard traversal that takes the row regime, whose
#: epochs each descend several reference levels
#: (:data:`~repro.traversal.bounded_batched.ROW_DESCENT_WIDTH`): in
#: twelve of those a dominated shard finishes its walk before the first
#: broadcast can stop it.  From a sweep over clustered, IHEPC-like and
#: probe-shaped batches at shards=2 (docs/performance.md, "The row
#: regime").
ROW_SEED_EPOCHS = 5

_ROOT = np.zeros(1, dtype=np.int64)


def viable_shard_counts(nr: int, workers: int,
                        min_points: int) -> list[int]:
    """Shard counts worth measuring for an ``nr``-point reference set.

    Always ``[1]``; adds one-per-worker sharding only when every shard
    would hold at least ``min_points`` points and there is more than one
    worker to feed — below that the per-shard build + combine overhead
    always loses, so the policy search never spends budget on it.
    """
    counts = [1]
    if workers and workers > 1:
        cap = max(1, int(nr) // int(min_points))
        candidate = min(int(workers), cap)
        if candidate > 1:
            counts.append(candidate)
    return counts


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
    ``RSELF`` for self-map programs)."""

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
    split: str,
    nshards: int,
    base_key: tuple,
    rule,
    inv_qperm: np.ndarray | None = None,
    cache_enabled: bool = True,
) -> ShardPack:
    """Plan the shards and build one tree per shard, in parallel.

    ``base_key`` is the parent dataset's memoized fingerprint tuple —
    the derived tree-cache key (see
    :func:`repro.backend.cache.cached_build_subset_tree`) means repeated
    compiles over the same data rebuild nothing.  ``rule`` (the
    program's ``CodegenSpec.rule``) picks the r-side operands each shard
    binds (:meth:`~repro.backend.codegen.Bindings.reference`).
    ``inv_qperm`` (original id → query-tree position) is supplied for
    self-map programs and yields each shard's ``RSELF`` binding.
    """
    from ..backend.cache import cached_build_subset_tree
    from ..backend.codegen import Bindings

    parts = plan_shards(rpoints, nshards)
    nshards = len(parts)
    with span("shard.tree_build", shards=nshards, tree=kind):
        trees = run_tasks([
            (lambda p=p, i=i: cached_build_subset_tree(
                kind, rpoints, p, leaf_size, rweights, split,
                base_key, (i, nshards), enabled=cache_enabled))
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

def _root_key(kernels, q_root: int = 0) -> float:
    """Signed promise key of (``q_root`` × shard root) — the most
    optimistic value this shard could still contribute under that query
    subtree.  Geometry only; state-independent."""
    q = np.array([q_root], dtype=np.int64)
    return float(np.asarray(kernels.bound_key_batch(q, _ROOT)).reshape(-1)[0])


def run_sharded(
    qtree,
    shard_exec: ShardExecution,
    final_state,
    plan,
    *,
    token: str | None = None,
    q_bindings=None,
    source: str = "",
) -> tuple[TraversalStats, dict]:
    """Run one compiled program across its reference shards and combine,
    as its :class:`~repro.backend.plan.ExecutionPlan` ``plan`` says.

    Returns ``(merged TraversalStats, shard_info)`` where ``shard_info``
    carries the broadcast counters and per-shard stats surfaced through
    ``stats()["shard"]``.  Thread/serial execution runs one traversal
    per shard in-process (accumulating into per-shard state directly);
    process execution fans (shard × query-subtree) payloads to the
    worker pool through per-shard shared-memory blocks.
    """
    P = shard_exec.pack.count
    info: dict = {"count": P, "rounds": 1, "pruned": 0, "tasks_pruned": 0}
    use_process = plan.executor == "process"
    with span("shard.run", shards=P, engine=plan.engine,
              executor="process" if use_process else "thread"):
        if use_process:
            per_shard = _run_process(qtree, shard_exec, plan, token,
                                     q_bindings, source, info)
        else:
            per_shard = _run_inline(
                qtree, shard_exec, plan.engine,
                1 if plan.executor == "serial" else plan.workers, info)

    combine_shard_states(shard_exec, final_state)
    total = TraversalStats()
    for st in per_shard:
        total.merge(st)
    if not use_process:
        # Process workers contribute traversal counters via their
        # shipped registries; in-process traversals ran with caller-owned
        # stats objects, so contribute the merged totals once here.
        total.contribute()
    info["per_shard"] = [st.as_dict() for st in per_shard]
    contribute({
        "shard.runs": 1,
        "shard.pruned": info["pruned"],
        "shard.tasks_pruned": info["tasks_pruned"],
        "shard.rounds": info["rounds"],
    })
    return total, info


def _seed_epochs(qtree, rtree) -> int:
    """Epochs of a shard traversal's seed round, by the regime the
    engine takes over this tree pair."""
    return ROW_SEED_EPOCHS if takes_row_regime(qtree, rtree) else SEED_EPOCHS


def _run_inline(qtree, shard_exec, engine, pool_workers, info):
    """Serial/thread path: one traversal per shard against its own state
    (shards are the unit of thread parallelism — the layout inversion)."""
    pack, states, kernels = (shard_exec.pack, shard_exec.states,
                             shard_exec.kernels)
    P = pack.count
    stats_list = [TraversalStats() for _ in range(P)]

    if not bound_epochs(engine, kernels[0]):
        def make(i):
            return lambda: run_engine(engine, qtree, pack.trees[i],
                                      kernels[i], stats=stats_list[i])
        run_tasks([make(i) for i in range(P)], workers=pool_workers)
        return stats_list

    # Bounded engine: epoch-bounded rounds with a cross-shard bound
    # broadcast at each barrier.  Every round resumes the shards still
    # pending under the latest global bound and a growing epoch budget
    # (seed rounds are narrow so dominated shards are killed before
    # touching the bulk of their pools; later rounds widen so the
    # barrier overhead amortises).  A shard whose root promise key
    # cannot beat the *worst* global bound over all queries is killed
    # wholesale — a query whose bound is still ``+inf`` somewhere keeps
    # every shard alive, since any shard might hold its neighbours.
    pauses = [dict() for _ in range(P)]
    pending: list = [None] * P
    extern = None
    budget = [_seed_epochs(qtree, tree) for tree in pack.trees]
    alive = list(range(P))
    while alive:
        def make(i):
            resume = pending[i]
            def run():
                pauses[i].clear()
                run_engine(
                    engine, qtree, pack.trees[i], kernels[i],
                    states[i].arrays["qbound"], stats=stats_list[i],
                    max_epochs=budget[i], resume=resume,
                    extern_bound=extern, pause_out=pauses[i])
            return run

        with span("shard.phase", phase=info["rounds"], tasks=len(alive)):
            run_tasks([make(i) for i in alive], workers=pool_workers)

        still = [i for i in alive
                 if pauses[i].get("pending") is not None]
        if not still:
            break
        for i in still:
            pending[i] = pauses[i]["pending"]
        info["rounds"] += 1
        extern = np.minimum.reduce([st.arrays["qbound"] for st in states])
        gmax = float(np.max(extern))
        alive = []
        for i in still:
            if _root_key(kernels[i]) > gmax:
                info["pruned"] += 1
            else:
                alive.append(i)
        budget = [b * 4 for b in budget]
    return stats_list


def _run_process(qtree, shard_exec, plan, token, q_bindings, source, info):
    """Process path: publish one query-side block plus one block per
    shard, fan (shard × query-subtree) tasks out, broadcast bounds
    between phases, merge partial slices back into per-shard states."""
    pack, states, kernels = (shard_exec.pack, shard_exec.states,
                             shard_exec.kernels)
    P = pack.count
    ephemeral = token is None
    base = token or ephemeral_token()
    published: list[str] = []

    try:
        with span("shard.shm_publish", shards=P):
            q_token = f"{base}::q"
            q_name, q_manifest = shm.publish_arrays(
                q_token, {**q_bindings.arrays, **tree_structure(qtree, "q")})
            published.append(q_token)
            r_blocks = []
            for i in range(P):
                r_token = f"{base}::r{i}"
                r_blocks.append(shm.publish_arrays(r_token, {
                    **pack.bindings[i].arrays,
                    **tree_structure(pack.trees[i], "r")}))
                published.append(r_token)

        frontier = [int(q) for q in
                    expand_frontier(qtree, max(1, -(-plan.min_tasks // P)))]

        commons = []
        for i in range(P):
            commons.append({
                "token": f"{base}::s{i}",
                "shm_name": q_name,
                "manifest": q_manifest,
                "r_block": r_blocks[i],
                "source": source,
                "scalars": {**q_bindings.scalars,
                            **pack.bindings[i].scalars},
                "state_spec": (states[i].outer_op, states[i].inner_op,
                               states[i].k, states[i].nq,
                               int(pack.trees[i].n)),
                "same_tree": False,
                "plan": plan,
            })

        bounded = bound_epochs(plan.engine, kernels[0])
        phase1 = []
        for i in range(P):
            for q in frontier:
                payload = dict(commons[i], q_root=q)
                if bounded:
                    payload["max_epochs"] = _seed_epochs(qtree,
                                                         pack.trees[i])
                phase1.append((i, q, payload))

        with span("shard.phase", phase=1, tasks=len(phase1)):
            results = run_process_tasks(
                run_task, [p for _, _, p in phase1], workers=plan.workers)

        per_shard_stats = [TraversalStats() for _ in range(P)]
        task_results: dict[tuple[int, int], dict] = {}
        for (i, q, _), res in zip(phase1, results):
            task_results[(i, q)] = res
            merge_result(states[i], res)
            per_shard_stats[i].merge(res["stats"])
            contribute(res["counters"])

        pending = [key for key, res in task_results.items()
                   if res.get("pending") is not None]
        if bounded and pending:
            info["rounds"] = 2
            gbound = np.minimum.reduce(
                [st.arrays["qbound"] for st in states])
            gmax = float(np.max(gbound))
            killed_shards = set()
            for i in {key[0] for key in pending}:
                if _root_key(kernels[i]) > gmax:
                    killed_shards.add(i)
                    info["pruned"] += 1
            phase2 = []
            for (i, q) in pending:
                if i in killed_shards:
                    continue
                res = task_results[(i, q)]
                s, e = res["s"], res["e"]
                if _root_key(kernels[i], q_root=q) > float(
                        np.max(gbound[s:e])):
                    info["tasks_pruned"] += 1
                    continue
                phase2.append((i, q, dict(
                    commons[i], q_root=q, resume=res["pending"],
                    state_arrays=res["arrays"], state_lists=res["lists"],
                    extern=np.ascontiguousarray(gbound[s:e]))))
            if phase2:
                with span("shard.phase", phase=2, tasks=len(phase2)):
                    results2 = run_process_tasks(
                        run_task, [p for _, _, p in phase2],
                        workers=plan.workers)
                for (i, q, _), res in zip(phase2, results2):
                    merge_result(states[i], res)
                    per_shard_stats[i].merge(res["stats"])
                    contribute(res["counters"])
    finally:
        if ephemeral:
            for t in published:
                shm.release_block(t)
    return per_shard_stats
