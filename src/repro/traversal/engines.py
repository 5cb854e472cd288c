"""Engine dispatch for compiled programs: one lookup from the plan's
engine name to the traversal that runs it.

Every layer that executes generated kernels over a tree pair — the
in-process run, the thread scheduler's tasks, process workers, the
sharded rounds — calls :func:`run_engine`; which kernels an engine
takes from :class:`~repro.backend.codegen.GeneratedKernels` is decided
here and nowhere else (the batched engine reads the rule kind off the
kernels themselves).
"""

from __future__ import annotations

from .bounded_batched import bounded_batched_dual_tree_traversal
from .dualtree import dual_tree_traversal
from .multitree import TraversalStats

__all__ = ["ENGINES", "bound_epochs", "run_engine"]


def _stack(qtree, rtree, kk, qbound, **kw):
    return dual_tree_traversal(
        qtree, rtree, kk.prune_or_approx, kk.base_case,
        pair_min_dist=kk.pair_min_dist, **kw)


#: ``ExecutionPlan.engine`` → traversal
ENGINES = {
    "batched": bounded_batched_dual_tree_traversal,
    "stack": _stack,
}


def bound_epochs(engine: str, kernels) -> bool:
    """Whether ``engine`` runs ``kernels`` in bound-rule epochs, the one
    form that takes the pause/resume hooks of :func:`run_engine`."""
    return engine == "batched" and kernels.bound_key_batch is not None


def run_engine(engine: str, qtree, rtree, kernels, qbound=None, *,
               q_root: int = 0, stats: TraversalStats | None = None,
               **epoch_hooks) -> TraversalStats:
    """Traverse ``qtree`` × ``rtree`` from ``q_root`` with ``engine``.

    ``qbound`` is the signed per-query bound array of bound-rule
    programs (``state.arrays["qbound"]``; unused otherwise).
    ``epoch_hooks`` — ``epoch_size`` and, for bound-rule programs only,
    ``max_epochs`` / ``resume`` / ``extern_bound`` / ``pause_out`` —
    reach the batched engine's epoch loop (the latter four pause and
    resume it between cross-shard bound broadcasts).
    """
    return ENGINES[engine](qtree, rtree, kernels, qbound, q_root=q_root,
                           stats=stats, **epoch_hooks)
