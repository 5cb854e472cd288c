"""Multi-tree traversal schemes (paper Algorithm 1)."""

from .bounded_batched import bounded_batched_dual_tree_traversal
from .dualtree import dual_tree_traversal
from .engines import run_engine
from .multitree import TraversalStats, multi_tree_traversal

__all__ = [
    "TraversalStats", "multi_tree_traversal", "dual_tree_traversal",
    "bounded_batched_dual_tree_traversal", "run_engine",
]
