"""Euclidean minimum spanning tree (paper Table III row: MST*).

Portal specification per Borůvka round: ``∀_q argmin_{r : c(r) ≠ c(q)}
‖x_q − x_r‖``, every point's nearest neighbour in another component —
the paper's *iterative* algorithm, whose inner N-body sub-problem is
Portal and whose iteration logic is host code.  Each round runs one
program, compiled once: ARGMIN over Euclidean distance on the batched
engine's bound form under component labels (``CodegenSpec.labels``),
which mask every pair of points with one label and prune every node
pair holding one label, whatever its bound.  Between rounds the host
code contracts the components and rewrites the per-point labels and
each node's label range in place.  Pruning is per point (the engine's
``qbound``), looser than a bound per component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backend.jit import compile_expr
from ..dsl import PortalExpr, PortalFunc, PortalOp
from ..dsl.storage import Storage
from ..traversal import TraversalStats

__all__ = ["emst", "EMSTResult"]


@dataclass
class EMSTResult:
    """Edges (original indices) and weights of the spanning tree."""

    edges: np.ndarray        # (n-1, 2) int
    weights: np.ndarray      # (n-1,) float — Euclidean edge lengths
    total_weight: float
    rounds: int
    stats: TraversalStats


def emst(points, leaf_size: int = 32) -> EMSTResult:
    """Compute the Euclidean minimum spanning tree with dual-tree Borůvka.

    Tie rule: each point's candidate is its nearest point of another
    component (among equidistant ones, the one the traversal kept);
    each component's edge is its lightest candidate, ties going to the
    smaller query id (original ids); a round's edges join lightest
    first in that order, and one that would close a cycle — only
    possible among equal weights — is dropped.
    The weights, and so the total, are those of every minimum spanning
    tree; the edge set is the tree's own when no two pairwise distances
    are equal, and otherwise one of the tied trees.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

    if isinstance(points, Storage):
        points = points.data
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = len(points)
    if n < 2:
        raise ValueError("EMST needs at least two points")

    data = Storage(points, name="points")
    expr = PortalExpr("emst-round")
    expr.addLayer(PortalOp.FORALL, data)
    expr.addLayer(PortalOp.ARGMIN, data, PortalFunc.EUCLIDEAN)
    expr.validate()
    program = compile_expr(expr, {"leaf_size": leaf_size, "shards": 1,
                                  "traversal": "batched", "parallel": False},
                           labels=True)
    ops, perm = program.bindings.arrays, program.qtree.perm
    # every node's [start, end), interleaved for one reduceat pass
    cuts = np.stack([program.qtree.start, program.qtree.end], axis=1).ravel()
    comp = np.arange(n)                    # component per original point
    ncomp, rounds, stats = n, 0, TraversalStats()
    edges = []                             # (query, reference, weight)
    while ncomp > 1:
        rounds += 1
        out = program.run()
        stats.merge(program.stats)
        dist, nbr = out.values, out.indices
        # each component's lightest candidate: one lexsort over
        # (component, distance), stable, so a tie keeps the smaller id
        order = np.lexsort((dist, comp))
        q = order[np.flatnonzero(np.diff(comp[order], prepend=-1))]
        # join them lightest first over the component graph, dropping
        # any that closes a cycle: the spanning forest of their ranks
        q = q[np.lexsort((q, dist[q]))]
        forest = minimum_spanning_tree(csr_matrix(
            (np.arange(1.0, q.size + 1), (comp[q], comp[nbr[q]])),
            shape=(ncomp, ncomp))).data
        q = q[forest.astype(np.int64) - 1]
        if not q.size:  # pragma: no cover — no foreign neighbour found
            raise RuntimeError("Borůvka round added no edge")
        edges.append((q, nbr[q], dist[q]))
        # relabel: components of the accumulated edges, with unit data
        # (csgraph drops explicit zeros, which a zero-length edge is)
        a, b, w = (np.concatenate(part) for part in zip(*edges))
        ncomp, comp = connected_components(csr_matrix(
            (np.ones(a.size), (a, b)), shape=(n, n)), directed=False)
        ops["QLABEL"][:] = comp[perm]
        labels = np.append(ops["QLABEL"], 0)   # the root's end indexes it
        ops["lmin"][:] = np.minimum.reduceat(labels, cuts)[::2]
        ops["lmax"][:] = np.maximum.reduceat(labels, cuts)[::2]

    order = np.argsort(w, kind="stable")
    return EMSTResult(
        edges=np.stack([a, b], axis=1)[order],
        weights=w[order],
        total_weight=float(w.sum()),
        rounds=rounds,
        stats=stats,
    )
