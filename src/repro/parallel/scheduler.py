"""Parallel traversal scheduling (paper section IV-F): the fan-out.

The paper spawns OpenMP tasks recursively "until all the threads are
saturated, at which point we switch to data parallelism".  The same
policy here, for every pool and every reference layout: the *query*
tree is expanded breadth-first until there are enough subtrees to
saturate the workers (task parallelism), then each task runs a full
dual-tree traversal (data parallelism over the query points it owns).

:func:`fan_out` takes the query tree and a list of **sides**, each one
reference tree with the kernels bound to it and their state: an
unsharded program has one side, a sharded one a side per shard
(:mod:`repro.parallel.shard`).  Its tasks are (side × query subtree)
over ``expand_frontier(qtree, ceil(min_tasks / P))``; the plan's
executor decides only where a task runs — in order in the caller
(``serial``), on the thread pool (``thread``), or as a payload on the
process pool (``process``, :func:`repro.parallel.worker.run_task`).  A
phase of one task always runs in the caller, over the caller's kernels.

Partitioning by **query subtree only** is what makes shared-state
updates safe: every accumulator is indexed by query position, so two
tasks of one side never write the same element, and a process task's
slice merges back verbatim.  Problems whose output is a single scalar
reduce per-query partials at finalisation, so they are covered by the
same invariant.

With several sides a bound rule runs one schedule, whatever the
runner: every task runs :func:`_seed_epochs` epochs and pauses; one
broadcast min-reduces the sides' signed ``qbound`` arrays into a global
bound; a side whose root key cannot beat the worst global bound is
killed wholesale (``pruned``), a paused task whose key cannot beat its
query slice's bound alone (``tasks_pruned``); the survivors resume
under the global bound and run to completion.  The broadcast only
removes dominated work — any candidate it prunes is beaten by a
candidate held on another side — so the combined output is exact.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from ..observe import contribute, span
from ..traversal import TraversalStats, bound_epochs, run_engine
from ..traversal.bounded_batched import takes_row_regime
from ..trees.node import ArrayTree
from . import shm
from .executor import run_process_tasks, run_tasks

__all__ = ["Side", "fan_out", "expand_frontier",
           "SEED_EPOCHS", "ROW_SEED_EPOCHS"]

#: Epochs every task runs before the cross-side bound broadcast.
#: Enough for the engine's ramp (64 → 4096 doubling) to run real base
#: cases and produce finite bounds, small enough that a dominated side
#: is killed before touching the bulk of its pool.
SEED_EPOCHS = 12
#: The seed of a task that takes the row regime, whose epochs each
#: descend several reference levels
#: (:data:`~repro.traversal.bounded_batched.ROW_DESCENT_WIDTH`): in
#: twelve of those a dominated shard finishes its walk before the
#: broadcast can stop it.  From a sweep over clustered, IHEPC-like and
#: probe-shaped batches at shards=2 (docs/performance.md, "The row
#: regime").
ROW_SEED_EPOCHS = 5

_ROOT = np.zeros(1, dtype=np.int64)
_ephemeral_seq = itertools.count()


@dataclass
class Side:
    """One reference side of a fan-out: its tree, the kernels bound to
    it and to ``state``, and the reference-side ``bindings`` a process
    worker rebuilds those kernels from."""

    rtree: ArrayTree
    kernels: object
    state: object
    bindings: object = None


def expand_frontier(tree: ArrayTree, min_nodes: int) -> list[int]:
    """Breadth-first expansion of the query tree until at least
    ``min_nodes`` subtree roots are available (or only leaves remain)."""
    frontier = [0]
    while len(frontier) < min_nodes:
        nxt: list[int] = []
        grew = False
        for node in frontier:
            kids = tree.children(node)
            if len(kids):
                nxt.extend(int(c) for c in kids)
                grew = True
            else:
                nxt.append(node)
        frontier = nxt
        if not grew:
            break
    return frontier


def _seed_epochs(qtree, rtree) -> int:
    """Epochs of a task's seed phase, by the regime the engine takes
    over this tree pair."""
    return ROW_SEED_EPOCHS if takes_row_regime(qtree, rtree) else SEED_EPOCHS


def _root_key(kernels, q_root: int = 0) -> float:
    """Signed promise key of (``q_root`` × side root): the most
    optimistic value the side could still contribute under that query
    subtree.  Boxes only; state-independent."""
    q = np.array([q_root], dtype=np.int64)
    return float(np.asarray(kernels.bound_key_batch(q, _ROOT)).reshape(-1)[0])


def fan_out(qtree, sides: list[Side], plan, q_bindings=None,
            token: str | None = None) -> tuple[list[TraversalStats], dict]:
    """Run every (side × query-subtree) task of ``sides`` as ``plan``
    (an :class:`~repro.backend.plan.ExecutionPlan`) says, each side's
    results written into its own ``state``.

    Returns the per-side merged :class:`TraversalStats` and the
    schedule's ``{"rounds", "pruned", "tasks_pruned"}``.  Each task's
    traversal counters reach the active registry once (an in-caller
    engine contributes its own; a process worker's registry is shipped
    back).  ``q_bindings`` and ``token`` serve the process runner only:
    the query side's kernel bindings, and the token keying the
    shared-memory blocks (``None``: an ephemeral token released when
    the fan-out returns).
    """
    P = len(sides)
    frontier = [int(q) for q in
                expand_frontier(qtree, -(-plan.min_tasks // P))]
    sched = {"rounds": 1, "pruned": 0, "tasks_pruned": 0}
    per_side = [TraversalStats() for _ in sides]
    broadcast = P > 1 and bound_epochs(plan.engine, sides[0].kernels)
    seed = [{"max_epochs": _seed_epochs(qtree, s.rtree)} if broadcast
            else {} for s in sides]
    runner = _Runner(qtree, sides, plan, q_bindings, token)
    with span("parallel.fan_out", sides=P, tasks=P * len(frontier),
              executor=plan.executor, workers=plan.workers):
        try:
            pending = runner.phase(1, [(i, q, seed[i]) for i in range(P)
                                       for q in frontier], per_side)
            if pending:
                sched["rounds"] = 2
                gbound = np.minimum.reduce(
                    [s.state.arrays["qbound"] for s in sides])
                gmax = float(np.max(gbound))
                killed = {i for i, _ in pending
                          if _root_key(sides[i].kernels) > gmax}
                sched["pruned"] = len(killed)
                survivors = []
                for (i, q), resume in pending.items():
                    if i in killed:
                        continue
                    s, e = qtree.start[q], qtree.end[q]
                    if _root_key(sides[i].kernels, q) > float(
                            np.max(gbound[s:e])):
                        sched["tasks_pruned"] += 1
                        continue
                    survivors.append((i, q, {"resume": resume,
                                             "extern_bound": gbound}))
                if survivors:
                    runner.phase(2, survivors, per_side)
        finally:
            runner.release()
    return per_side, sched


class _Runner:
    """Where a phase's tasks run: the process pool for a process plan's
    phase of several tasks, the caller's kernels otherwise."""

    def __init__(self, qtree, sides, plan, q_bindings, token):
        self.qtree, self.sides, self.plan = qtree, sides, plan
        self.q_bindings = q_bindings
        self.ephemeral = token is None
        self.token = (f"ephemeral-{os.getpid()}-{next(_ephemeral_seq)}"
                      if token is None else token)
        self.blocks: list | None = None

    def phase(self, phase: int, tasks: list, per_side) -> dict:
        """Run ``tasks`` — ``(side, q_root, engine hooks)`` — merging
        their stats into ``per_side``; returns ``{(side, q_root):
        resume}`` for the tasks that paused, in task order."""
        with span("parallel.phase", phase=phase, tasks=len(tasks)):
            if self.plan.executor == "process" and len(tasks) > 1:
                outcomes = self._process(tasks)
            else:
                workers = 1 if self.plan.executor == "serial" else \
                    self.plan.workers
                outcomes = run_tasks(
                    [lambda t=t: self._local(*t) for t in tasks],
                    workers=workers)
        pending = {}
        for (i, q, _), (stats, resume) in zip(tasks, outcomes):
            per_side[i].merge(stats)
            if resume is not None:
                pending[(i, q)] = resume
        return pending

    def _local(self, i: int, q_root: int, hooks: dict):
        side = self.sides[i]
        pause: dict = {}
        if hooks:
            hooks = dict(hooks, pause_out=pause)
        with span("parallel.task", side=i, q_root=q_root):
            stats = run_engine(self.plan.engine, self.qtree, side.rtree,
                               side.kernels, q_root=q_root, **hooks)
        return stats, pause.get("pending")

    def _process(self, tasks: list) -> list:
        from .worker import run_task

        results = run_process_tasks(
            run_task, [self._payload(*t) for t in tasks],
            workers=self.plan.workers)
        for (i, _, _), res in zip(tasks, results):
            state = self.sides[i].state
            s, e = res["s"], res["e"]
            for name, chunk in res["arrays"].items():
                state.arrays[name][s:e] = chunk
            if res["lists"] is not None:
                state.lists[s:e] = res["lists"]
            contribute(res["counters"])
        return [(res["stats"], res["pending"]) for res in results]

    def _payload(self, i: int, q_root: int, hooks: dict) -> dict:
        """What a worker needs for one task: the blocks' manifests, the
        generated source, the state spec and the task's hooks — the
        global bound as the task's slice, and a resumed task's state
        slice (pool workers have no task affinity)."""
        blocks = self._publish()
        side, qtree = self.sides[i], self.qtree
        state = side.state
        s, e = int(qtree.start[q_root]), int(qtree.end[q_root])
        hooks = dict(hooks)
        payload = {
            "token": blocks[i][0],
            "block": blocks[0][1],
            "r_block": None if i == 0 else blocks[i][1],
            "source": side.kernels.source,
            "scalars": {**self.q_bindings.scalars, **side.bindings.scalars},
            "state_spec": (state.outer_op, state.inner_op, state.k,
                           state.nq, int(side.rtree.n)),
            "same_tree": side.rtree is qtree,
            "plan": self.plan,
            "q_root": q_root,
            "hooks": hooks,
        }
        if "resume" in hooks:
            hooks["extern_bound"] = np.ascontiguousarray(
                hooks["extern_bound"][s:e])
            payload["state_arrays"] = {
                name: np.ascontiguousarray(arr[s:e])
                for name, arr in state.arrays.items()}
            payload["state_lists"] = (None if state.lists is None
                                      else state.lists[s:e])
        return payload

    def _publish(self) -> list:
        """One shared-memory block per side, published once per fan-out:
        side 0's also carries the query side (so an unsharded program
        publishes one block), side ``i``'s is keyed ``{token}::r{i}``.
        Each holds its kernel bindings' arrays and its trees' child
        CSRs; a side whose tree is the query tree ships no second CSR."""
        if self.blocks is None:
            # Kept as they publish, so release() finds every one even
            # when a later publish raises.
            qtree, self.blocks = self.qtree, []
            with span("parallel.shm_publish", token=self.token,
                      blocks=len(self.sides)):
                for i, side in enumerate(self.sides):
                    arrays = {} if i else {**self.q_bindings.arrays,
                                           **_child_csr(qtree, "q")}
                    arrays.update(side.bindings.arrays)
                    if side.rtree is not qtree:
                        arrays.update(_child_csr(side.rtree, "r"))
                    token = f"{self.token}::r{i}" if i else self.token
                    self.blocks.append(
                        (token, shm.publish_arrays(token, arrays)))
        return self.blocks

    def release(self) -> None:
        if self.ephemeral and self.blocks is not None:
            for token, _ in self.blocks:
                shm.release_block(token)


def _child_csr(tree, side: str) -> dict[str, np.ndarray]:
    """The child CSR, the one tree array a worker needs beside the kernel
    bindings (points, boxes, slices)."""
    return {f"{side}_child_offset": tree.child_offset,
            f"{side}_child_list": tree.child_list}
