"""Parallel traversal scheduling (paper section IV-F).

The paper spawns OpenMP tasks recursively "until all the threads are
saturated, at which point we switch to data parallelism".  The same
policy here: the *query* tree is expanded breadth-first until there are
enough subtrees to saturate the worker pool (task parallelism), then each
(query-subtree × reference-root) task runs a full dual-tree traversal
(data parallelism over the query points it owns).

Partitioning by **query subtree only** is what makes shared-state updates
safe: every accumulator in this codebase is indexed by query position, so
two tasks never write the same element.  Problems whose output is a
single scalar reduce per-query partials at finalisation, so they are
covered by the same invariant.
"""

from __future__ import annotations

from ..observe import span
from ..traversal import TraversalStats, run_engine
from ..trees.node import ArrayTree
from .executor import run_tasks

__all__ = ["parallel_dual_tree", "expand_frontier"]


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


def parallel_dual_tree(
    qtree: ArrayTree,
    rtree: ArrayTree,
    kernels,
    *,
    workers: int,
    min_tasks: int,
    engine: str = "stack",
) -> TraversalStats:
    """Parallel counterpart of :func:`repro.traversal.run_engine` over
    the :class:`~repro.backend.codegen.GeneratedKernels` ``kernels``.

    ``min_tasks`` is the query-frontier size, independent of the worker
    count, so the task decomposition is identical across worker counts
    (the determinism tests rely on this) and across engines.  Tasks own
    disjoint query subtrees, so under a bound rule their
    ``qbound`` slices and per-task node-bound snapshots never interfere.
    """
    frontier = expand_frontier(qtree, min_tasks)

    def make_task(q_root: int):
        def task() -> TraversalStats:
            with span("parallel.task", q_root=q_root, engine=engine):
                return run_engine(engine, qtree, rtree, kernels,
                                  q_root=q_root)
        return task

    with span("parallel.run_tasks", tasks=len(frontier), workers=workers):
        results = run_tasks([make_task(q) for q in frontier],
                            workers=workers)
    total = TraversalStats()
    for st in results:
        total.merge(st)
    return total
