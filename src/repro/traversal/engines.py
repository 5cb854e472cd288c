"""Engine dispatch for compiled programs: one lookup from the plan's
engine name to the traversal that runs it.

Every layer that executes generated kernels over a tree pair — the
in-process run, the thread scheduler's tasks, process workers, the
sharded rounds — calls :func:`run_engine`; which kernels an engine
takes from :class:`~repro.backend.codegen.GeneratedKernels` is decided
here and nowhere else.
"""

from __future__ import annotations

from .batched import batched_dual_tree_traversal
from .bounded_batched import bounded_batched_dual_tree_traversal
from .dualtree import dual_tree_traversal
from .multitree import TraversalStats

__all__ = ["ENGINES", "run_engine"]


def _bounded_batched(qtree, rtree, kk, qbound, **kw):
    return bounded_batched_dual_tree_traversal(
        qtree, rtree, kk.bound_key_batch, kk.classify_bound_batch,
        kk.base_case_group, kk.row_key_batch, kk.base_case_rows, qbound,
        **kw)


def _batched(qtree, rtree, kk, qbound, **kw):
    return batched_dual_tree_traversal(
        qtree, rtree, kk.classify_batch, kk.apply_action, kk.base_case_group,
        **kw)


def _stack(qtree, rtree, kk, qbound, **kw):
    return dual_tree_traversal(
        qtree, rtree, kk.prune_or_approx, kk.base_case,
        pair_min_dist=kk.pair_min_dist, **kw)


#: ``ExecutionPlan.engine`` → traversal
ENGINES = {
    "bounded-batched": _bounded_batched,
    "batched": _batched,
    "stack": _stack,
}


def run_engine(engine: str, qtree, rtree, kernels, qbound=None, *,
               q_root: int = 0, stats: TraversalStats | None = None,
               **epoch_hooks) -> TraversalStats:
    """Traverse ``qtree`` × ``rtree`` from ``q_root`` with ``engine``.

    ``qbound`` is the signed per-query bound array of bound-rule
    programs (``state.arrays["qbound"]``; unused by the other engines).
    ``epoch_hooks`` — ``max_epochs`` / ``resume`` / ``extern_bound`` /
    ``pause_out`` — pause and resume the bounded engine between
    cross-shard bound broadcasts; only ``'bounded-batched'`` takes them.
    """
    return ENGINES[engine](qtree, rtree, kernels, qbound, q_root=q_root,
                           stats=stats, **epoch_hooks)
