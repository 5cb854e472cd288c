"""Engine dispatch for compiled programs: one lookup from the plan's
engine name to the traversal that runs it.

Every layer that executes generated kernels over a tree pair — the
in-process run, the fan-out's tasks and process workers — calls
:func:`run_engine`; which kernels an engine takes from
:class:`~repro.backend.codegen.GeneratedKernels` is decided here and
nowhere else (the batched engine reads the rule kind off the kernels
themselves).  Both engines read a bound rule's ``qbound`` from
``kernels.namespace``.  ``"stack"``, which only the option selects, is a
reference recursion with no kernel of its own: each popped pair is
decided by the batched engine's kernels on a one-pair array.
"""

from __future__ import annotations

import numpy as np

from .bounded_batched import bounded_batched_dual_tree_traversal, prunes
from .dualtree import dual_tree_traversal
from .multitree import TraversalStats

__all__ = ["ENGINES", "run_engine"]


def _pair_decision(qtree, rtree, kk):
    """The stack engine's ``(qi, ri) -> code`` (0: recurse, 1: prune,
    2: approximated / inside, action applied; ``None`` without a rule):
    a bound rule's key against the max of ``qbound`` over the query
    node's slice, else ``classify_batch`` then ``apply_action`` — or,
    for an approximation, ``base_case_group`` over the query node and
    the one pseudo-point of the reference node (row ``n + ri``)."""
    qs, qe = qtree.start, qtree.end
    if kk.bound_key_batch is not None:
        key, qbound = kk.bound_key_batch, kk.namespace["qbound"]
        return lambda qi, ri: int(prunes(key(np.array([qi]), np.array([ri])),
                                         qbound[qs[qi]:qe[qi]].max())[0])
    if kk.classify_batch is None:
        return None
    classify, act = kk.classify_batch, kk.apply_action
    if act is None:
        def act(qis, ris):
            kk.base_case_group(int(qs[qis[0]]), int(qe[qis[0]]),
                               rtree.n + ris)

    def decide(qi, ri):
        qis, ris = np.array([qi]), np.array([ri])
        code = int(classify(qis, ris)[0])
        if code == 2:
            act(qis, ris)
        return code
    return decide


def _stack(qtree, rtree, kk, *, q_root=0, stats=None):
    return dual_tree_traversal(
        qtree, rtree, _pair_decision(qtree, rtree, kk), kk.base_case,
        pair_min_dist=kk.pair_min_dist, q_root=q_root, stats=stats)


#: ``ExecutionPlan.engine`` → traversal
ENGINES = {
    "batched": bounded_batched_dual_tree_traversal,
    "stack": _stack,
}


def run_engine(engine: str, qtree, rtree, kernels, *, q_root: int = 0,
               stats: TraversalStats | None = None,
               epoch_size: int | None = None) -> TraversalStats:
    """Traverse ``qtree`` × ``rtree`` from ``q_root`` with ``engine``;
    ``epoch_size``, the batched engine's alone, overrides its default."""
    extra = {} if epoch_size is None else {"epoch_size": epoch_size}
    return ENGINES[engine](qtree, rtree, kernels, q_root=q_root,
                           stats=stats, **extra)
