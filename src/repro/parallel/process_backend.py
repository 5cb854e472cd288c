"""Parent-side orchestration of the process executor.

:func:`parallel_dual_tree_process` is the process counterpart of
:func:`repro.parallel.scheduler.parallel_dual_tree`: the *same* query
frontier decomposition, but each (query-subtree × reference-root) task
is shipped to a worker process as a picklable payload (program token +
shared-memory manifest + generated source + ``q_root``) instead of a
closure.  Workers return partial accumulator slices — including the
batched engine's signed per-query ``qbound`` bound array — which the
parent merges **in frontier order** into the program's state arrays —
byte-for-byte the values the thread executor's shared-array updates
would have produced, because every task writes a disjoint query range.
The child CSR of each tree is published through :mod:`repro.parallel.shm`
alongside the kernel operands; a worker builds its
:class:`~repro.trees.node.ArrayTree` over them.

Per-task ``TraversalStats`` are merged exactly as the thread path merges
them, and each worker's counter registry is shipped back and
``contribute``-d into the parent's active registry, so observability
totals are identical across executors.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from ..observe import contribute, span
from ..traversal import TraversalStats, run_engine
from .executor import run_process_tasks
from .scheduler import expand_frontier
from .worker import run_task
from . import shm

__all__ = ["parallel_dual_tree_process", "tree_structure", "ephemeral_token",
           "merge_result"]

_ephemeral_seq = itertools.count()


def ephemeral_token() -> str:
    """A process-unique shm token for a program with no cache token;
    the caller releases what it publishes under it."""
    return f"ephemeral-{os.getpid()}-{next(_ephemeral_seq)}"


def merge_result(state, res: dict) -> None:
    """Write one task's partial accumulator slices into ``state``."""
    s, e = res["s"], res["e"]
    for name, chunk in res["arrays"].items():
        state.arrays[name][s:e] = chunk
    if res["lists"] is not None:
        state.lists[s:e] = res["lists"]


def tree_structure(tree, prefix: str) -> dict[str, np.ndarray]:
    """The child CSR, the one tree array a worker needs beside the kernel
    bindings (points, boxes, slices)."""
    return {f"{prefix}_child_offset": tree.child_offset,
            f"{prefix}_child_list": tree.child_list}


def parallel_dual_tree_process(
    qtree,
    rtree,
    kernels,
    bindings,
    state,
    nr: int,
    token: str | None,
    plan,
) -> TraversalStats:
    """Run the parallel dual-tree traversal on the process pool,
    merging worker partials into ``state``; returns the merged stats.
    One task runs serially over ``kernels`` (bound to ``state``),
    publishing nothing and building no worker program in the caller.

    ``bindings`` (:class:`~repro.backend.codegen.Bindings`): the arrays
    are published to shared memory, the scalars ride in the payload.
    ``token`` keys the publication (a digest of the program's content
    identity, :func:`repro.backend.jit._program_key`); ``None`` —
    an uncacheable program — publishes under an ephemeral token that is
    released when the run finishes.  ``plan`` is the program's
    :class:`~repro.backend.plan.ExecutionPlan`; it heads every payload.
    """
    frontier = expand_frontier(qtree, plan.min_tasks)
    if len(frontier) == 1:
        return run_engine(plan.engine, qtree, rtree, kernels)

    arrays = {**bindings.arrays, **tree_structure(qtree, "q")}
    same_tree = rtree is qtree
    if not same_tree:
        # For same_tree programs the worker's r-side tree aliases the
        # q-side one (the r-named *kernel* bindings still ship — shm
        # dedupes the underlying buffers).
        arrays.update(tree_structure(rtree, "r"))

    ephemeral = token is None
    if ephemeral:
        token = ephemeral_token()
    try:
        with span("parallel.shm_publish", token=token, arrays=len(arrays)):
            shm_name, manifest = shm.publish_arrays(token, arrays)

        common = {
            "token": token,
            "shm_name": shm_name,
            "manifest": manifest,
            "source": kernels.source,
            "scalars": bindings.scalars,
            "state_spec": (state.outer_op, state.inner_op, state.k,
                           state.nq, nr),
            "same_tree": same_tree,
            # Workers run ``plan.engine`` over kernels rebuilt from the
            # shipped source.
            "plan": plan,
        }
        payloads = [dict(common, q_root=int(q)) for q in frontier]

        with span("parallel.run_process_tasks", tasks=len(payloads),
                  workers=plan.workers):
            results = run_process_tasks(run_task, payloads,
                                        workers=plan.workers)
    finally:
        if ephemeral:
            shm.release_block(token)

    total = TraversalStats()
    for res in results:
        merge_result(state, res)
        total.merge(res["stats"])
        contribute(res["counters"])
    return total
