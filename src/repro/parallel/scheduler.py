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
fan-out of one task always runs in the caller, over the caller's kernels.

Partitioning by **query subtree only** is what makes shared-state
updates safe: every accumulator is indexed by query position, so two
tasks of one side never write the same element, and a process task's
slice merges back verbatim.  Problems whose output is a single scalar
reduce per-query partials at finalisation, so they are covered by the
same invariant.

Every task runs once, to completion.  Sides never trade bounds: a
side's bound rule tightens its ``qbound`` from its own points alone,
and the sides' partial states meet only in the combine step
(:func:`repro.parallel.shard.combine_shard_states`).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from ..observe import contribute, span
from ..traversal import TraversalStats, run_engine
from ..trees.node import ArrayTree
from . import shm
from .executor import run_process_tasks, run_tasks

__all__ = ["Side", "fan_out", "expand_frontier"]

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


def fan_out(qtree, sides: list[Side], plan, q_bindings=None,
            token: str | None = None) -> list[TraversalStats]:
    """Run every (side × query-subtree) task of ``sides`` once, to
    completion, as ``plan`` (an
    :class:`~repro.backend.plan.ExecutionPlan`) says, each side's
    results written into its own ``state``.

    Returns the per-side merged :class:`TraversalStats`.  Each task's
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
    tasks = [(i, q) for i in range(P) for q in frontier]
    per_side = [TraversalStats() for _ in sides]
    runner = _Runner(qtree, sides, plan, q_bindings, token)
    with span("parallel.fan_out", sides=P, tasks=len(tasks),
              executor=plan.executor, workers=plan.workers):
        try:
            for (i, _), stats in zip(tasks, runner.run(tasks)):
                per_side[i].merge(stats)
        finally:
            runner.release()
    return per_side


class _Runner:
    """Where a fan-out's tasks run: the process pool for a process
    plan's fan-out of several tasks, the caller's kernels otherwise."""

    def __init__(self, qtree, sides, plan, q_bindings, token):
        self.qtree, self.sides, self.plan = qtree, sides, plan
        self.q_bindings = q_bindings
        self.ephemeral = token is None
        self.token = (f"ephemeral-{os.getpid()}-{next(_ephemeral_seq)}"
                      if token is None else token)
        self.blocks: list | None = None

    def run(self, tasks: list) -> list[TraversalStats]:
        """Run ``tasks`` — ``(side, q_root)`` pairs — and return their
        stats in task order."""
        if self.plan.executor == "process" and len(tasks) > 1:
            return self._process(tasks)
        workers = 1 if self.plan.executor == "serial" else self.plan.workers
        return run_tasks([lambda t=t: self._local(*t) for t in tasks],
                         workers=workers)

    def _local(self, i: int, q_root: int) -> TraversalStats:
        side = self.sides[i]
        with span("parallel.task", side=i, q_root=q_root):
            return run_engine(self.plan.engine, self.qtree, side.rtree,
                              side.kernels, q_root=q_root)

    def _process(self, tasks: list) -> list[TraversalStats]:
        from .worker import run_task

        results = run_process_tasks(
            run_task, [self._payload(*t) for t in tasks],
            workers=self.plan.workers)
        for (i, _), res in zip(tasks, results):
            state = self.sides[i].state
            s, e = res["s"], res["e"]
            for name, chunk in res["arrays"].items():
                state.arrays[name][s:e] = chunk
            if res["lists"] is not None:
                state.lists[s:e] = res["lists"]
            contribute(res["counters"])
        return [res["stats"] for res in results]

    def _payload(self, i: int, q_root: int) -> dict:
        """What a worker needs for one task: the blocks' manifests, the
        generated source and the state spec."""
        blocks = self._publish()
        side = self.sides[i]
        state = side.state
        return {
            "token": blocks[i][0],
            "block": blocks[0][1],
            "r_block": None if i == 0 else blocks[i][1],
            "source": side.kernels.source,
            "scalars": {**self.q_bindings.scalars, **side.bindings.scalars},
            "state_spec": (state.outer_op, state.inner_op, state.k,
                           state.nq, int(side.rtree.n)),
            "same_tree": side.rtree is self.qtree,
            "plan": self.plan,
            "q_root": q_root,
        }

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
