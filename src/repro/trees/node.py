"""Array-backed space-partitioning tree storage.

Trees are stored struct-of-arrays for cache-friendly traversal: one NumPy
array per node attribute, indexed by node id.  Node 0 is the root and
children appear after their parent (DFS preorder), so iterating node ids
forward is a valid top-down order.

Points are *reordered* during construction so that every node owns a
contiguous slice ``[start, end)`` of the permuted point array — the
property that lets the backend run vectorised base cases directly on leaf
slices.  ``perm`` maps permuted positions back to the caller's original
point indices.

Per-node metadata maintained (paper sections II-A, II-C and Table III):
bounding box ``lo``/``hi``, point count, box ``center``, widest-dimension
``diameter`` and the *mass data*: centroid (mean point) and — when the
dataset carries weights — total weight and weighted centroid (the center
of mass used by Barnes-Hut's ComputeApprox).  Boxes are kept exact under
every mutation; mass data is computed on its first read and repaired
there (:meth:`ArrayTree._mass_data`), so a program that never reads it
(k-NN, range search) never pays for it.
"""

from __future__ import annotations

import copy
import threading

import numpy as np

from ..observe import contribute
from . import geometry

__all__ = ["ArrayTree", "TreeNode", "tree_levels", "level_propagation",
           "children_csr", "expansion_csr", "descent_csr", "sorted_leaves",
           "require_finite",
           "REBUILD_LEAF_FACTOR", "REBUILD_DIAMETER_FACTOR"]

#: A leaf whose occupancy exceeds ``factor * leaf_size`` after inserts is
#: re-split (subtree rebuild of the leaf).
REBUILD_LEAF_FACTOR = 2.0
#: A node whose refit (tight) widest-dimension span exceeds ``factor *``
#: its span at build time is re-partitioned — moved points have spread
#: the box enough that pruning quality degrades.
REBUILD_DIAMETER_FACTOR = 2.0


def _memo(cache: dict, name, build):
    """``cache[name]``, built by ``build()`` on first read.  Concurrent
    first readers may both build; ``setdefault`` makes them agree."""
    value = cache.get(name)
    if value is None:
        value = cache.setdefault(name, build())
    return value


def require_finite(what: str, points=None, weights=None) -> None:
    """Raise ``ValueError`` unless ``points`` and ``weights`` (each when
    given) hold only finite values: a NaN or an infinity would poison
    every box it falls in."""
    if points is not None and not np.isfinite(
            np.asarray(points, dtype=np.float64)).all():
        raise ValueError(f"{what} points must be finite")
    if weights is not None and not np.isfinite(
            np.asarray(weights, dtype=np.float64)).all():
        raise ValueError(f"{what} weights must be finite")


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ``arange(s, s + c)`` of every ``(s, c)`` pair."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def children_csr(child_ids: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(child_offset, child_list)`` CSR adjacency from per-node child
    id lists."""
    counts = np.fromiter((len(c) for c in child_ids), dtype=np.int64,
                         count=len(child_ids))
    child_list = np.fromiter((c for cs in child_ids for c in cs),
                             dtype=np.int64, count=int(counts.sum()))
    return np.concatenate([[0], np.cumsum(counts)]), child_list


def tree_levels(child_offset: np.ndarray, child_list: np.ndarray) -> np.ndarray:
    """Per-node depth array (root = 0) from the CSR children adjacency.

    Vectorised BFS: each step gathers every child of the current level in
    one shot, so the cost is O(levels) NumPy calls instead of an O(n_nodes)
    Python loop.
    """
    n_nodes = len(child_offset) - 1
    level = np.zeros(n_nodes, dtype=np.int64)
    if n_nodes == 0:
        return level
    cur = np.array([0], dtype=np.int64)
    depth = 0
    while cur.size:
        cnt = child_offset[cur + 1] - child_offset[cur]
        if not cnt.any():
            break
        kids = child_list[_ranges(child_offset[cur], cnt)]
        depth += 1
        level[kids] = depth
        cur = kids
    return level


def level_propagation(
    child_offset: np.ndarray,
    child_list: np.ndarray,
    level: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Bottom-up reduction plan over internal nodes, deepest level first.

    Each entry is ``(ids, child_ids, seg_offsets)``: reducing
    ``values[child_ids]`` with ``np.<ufunc>.reduceat`` at ``seg_offsets``
    yields one value per node in ``ids``.  Processing entries in order
    propagates per-point values to every node, because a node's children
    are always at a strictly deeper level and so already reduced.
    """
    counts = child_offset[1:] - child_offset[:-1]
    internal = np.flatnonzero(counts > 0)
    plan: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if internal.size == 0:
        return plan
    for lv in range(int(level[internal].max()), -1, -1):
        ids = internal[level[internal] == lv]
        if ids.size == 0:
            continue
        cnt = counts[ids]
        kids = child_list[_ranges(child_offset[ids], cnt)]
        seg = np.cumsum(cnt) - cnt
        plan.append((ids, kids, seg))
    return plan


def expansion_csr(child_offset: np.ndarray,
                  child_list: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(offsets, flat ids)`` of each node's *expansion set*: its
    children, or the node itself when it is a leaf."""
    counts = child_offset[1:] - child_offset[:-1]
    leaf = counts == 0
    offsets = np.concatenate([[0], np.cumsum(np.where(leaf, 1, counts))])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    flat[offsets[:-1][leaf]] = np.flatnonzero(leaf)
    flat[_ranges(offsets[:-1][~leaf], counts[~leaf])] = child_list
    return offsets, flat


def descent_csr(offsets: np.ndarray, flat: np.ndarray,
                depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The expansion CSR ``(offsets, flat)`` applied ``depth`` times:
    each node's descendants ``depth`` levels down, with a leaf met on
    the way standing for itself.  Entries keep the order the one-level
    expansions produce them in, and every node has at least one."""
    step_off, step_flat = offsets, flat
    step_cnt = step_off[1:] - step_off[:-1]
    for _ in range(depth - 1):
        cnt = step_cnt[flat]
        per_node = np.add.reduceat(cnt, offsets[:-1])
        flat = step_flat[_ranges(step_off[flat], cnt)]
        offsets = np.concatenate([[0], np.cumsum(per_node)])
    return offsets, flat


def sorted_leaves(start: np.ndarray, is_leaf: np.ndarray) -> np.ndarray:
    """Leaf ids in point order: their ``[start, end)`` slices tile
    ``[0, n)`` contiguously in this order (a :meth:`ArrayTree.validate`
    invariant)."""
    leaves = np.flatnonzero(is_leaf)
    return leaves[np.argsort(start[leaves], kind="stable")]


class ArrayTree:
    """Common storage and query API for kd-trees, octrees and ball trees.

    Trees are *live*: :meth:`insert_batch`, :meth:`delete_batch` and
    :meth:`update_batch` mutate the tree in place with a refit driven by
    what changed (:meth:`_refit`: boxes exactly, mass data on its next
    read) plus an amortized partial rebuild of any subtree whose leaf
    occupancy or bound volume degrades past a threshold.  Every mutation
    bumps the monotone :attr:`version` and rebinds — never writes into —
    the node/point arrays, so a :meth:`snapshot` taken before the
    mutation keeps a consistent view for in-flight traversals (including
    paused bound-rule epochs and process workers attached to published
    shm columns).

    What is derived from the tree's shape is built on first read and
    kept in two dicts: ``_topology`` (levels, level plan, expansion and
    descent CSRs, parents, child matrix) and ``_tiling`` (inverse
    permutation, position → leaf, point-ordered leaves, bound-refresh
    plan).  A snapshot shares both with its source, so what any view
    of one topology builds every other view reads.  A mutation that
    changes what a dict derives from rebinds a fresh dict — a subtree
    rebuild both, an insert or delete ``_tiling`` — and never writes
    into the shared one, so no older view sees a later shape.
    """

    kind = "array"

    #: Names of subclass-specific per-node arrays that refit and the
    #: partial-rebuild graft must carry along (e.g. the ball tree's
    #: ``radius``).
    _extra_node_arrays: tuple[str, ...] = ()

    def __init__(
        self,
        points: np.ndarray,
        perm: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        child_offset: np.ndarray,
        child_list: np.ndarray,
        weights: np.ndarray | None = None,
        leaf_size: int = 32,
    ):
        self.points = np.ascontiguousarray(points)  # permuted, shape (n, d)
        self.perm = perm
        self.lo = lo
        self.hi = hi
        self.start = start
        self.end = end
        self.leaf_size = leaf_size
        self.n_nodes = len(start)
        self.weights = None if weights is None else np.asarray(weights, float)[perm]

        # Flattened children adjacency (CSR-style): the children of node
        # i are child_list[child_offset[i]:child_offset[i + 1]].
        self.child_offset = child_offset
        self.child_list = child_list
        self.is_leaf_arr = child_offset[1:] == child_offset[:-1]

        self.center = 0.5 * (self.lo + self.hi)
        self.diameter = (self.hi - self.lo).max(axis=1)  # widest-dim span

        # Mass data (centroid, wsum, wcentroid): computed on first read.
        # ``_mass_stale`` marks the leaves mutations left to repair; their
        # ancestors are repaired with them.
        self._mass = None
        self._mass_stale = None

        self.split = "median"  # kd split strategy; set by build_tree()
        self.version = 0
        self._pristine_diam = self.diameter
        self._mutation_lock = threading.RLock()
        self._topology: dict = {}
        self._tiling: dict = {}

    # -- mass data: computed and repaired when read ------------------------------
    @property
    def centroid(self) -> np.ndarray:
        return self._mass_data()[0]

    @property
    def wsum(self) -> np.ndarray | None:
        """Per-node total weight (``None`` for an unweighted tree)."""
        return self._mass_data()[1]

    @property
    def wcentroid(self) -> np.ndarray | None:
        """Per-node weighted centroid (``None`` for an unweighted tree)."""
        return self._mass_data()[2]

    def _mass_data(self) -> tuple:
        """``(centroid, wsum, wcentroid)``, up to date.

        The first read computes every node's values bottom-up
        (:meth:`_built_mass`); a read after mutations repairs the stale
        leaves and their ancestors first (:meth:`_repaired_mass`).  Both
        run under the tree's lock and rebind the arrays, so a snapshot
        never sees another view's repair."""
        with self._mutation_lock:
            if self._mass is None:
                self._mass = self._built_mass()
            if self._mass_stale is not None:
                self._mass = self._repaired_mass(self._mass_stale)
                self._mass_stale = None
            return self._mass

    def _built_mass(self) -> tuple:
        """Every node's mass data from the point slices.  Vectorised:
        leaf sums come from one ``np.add.reduceat`` over the contiguous
        ``[start, end)`` partition, internal sums from a per-level
        bottom-up children reduction — O(levels) NumPy calls."""
        counts_pts = (self.end - self.start).astype(np.float64)
        centroid = self._node_sums(self.points) / counts_pts[:, None]
        if self.weights is None:
            return centroid, None, None
        wsum = self._node_sums(self.weights)
        wsums = self._node_sums(self.weights[:, None] * self.points)
        wcentroid = np.where(
            wsum[:, None] > 0,
            np.divide(wsums, wsum[:, None], out=np.zeros_like(wsums),
                      where=wsum[:, None] != 0),
            centroid,
        )
        return centroid, wsum, wcentroid

    def _repaired_mass(self, stale: np.ndarray) -> tuple:
        """The mass data with the ``stale`` leaves and all their
        ancestors recomputed: the leaves exactly from their point slices
        (an emptied leaf gets zero sentinels), the ancestors bottom-up
        through the level plan from their children's values."""
        centroid, wsum, wcentroid = (
            None if a is None else a.copy() for a in self._mass)
        weighted = wsum is not None
        counts_all = self.end - self.start
        leaves = np.flatnonzero(stale)
        nonempty = leaves[counts_all[leaves] > 0]
        empty = leaves[counts_all[leaves] == 0]
        if nonempty.size:
            cnt = counts_all[nonempty]
            seg = np.cumsum(cnt) - cnt
            flat = _ranges(self.start[nonempty], cnt)
            P = self.points[flat]
            centroid[nonempty] = (
                np.add.reduceat(P, seg, axis=0) / cnt[:, None])
            if weighted:
                wf = self.weights[flat]
                ws = np.add.reduceat(wf, seg)
                wps = np.add.reduceat(wf[:, None] * P, seg, axis=0)
                wsum[nonempty] = ws
                wcentroid[nonempty] = np.where(
                    ws[:, None] > 0,
                    np.divide(wps, ws[:, None], out=np.zeros_like(wps),
                              where=ws[:, None] != 0),
                    centroid[nonempty])
        # Zero centroids weighted by zero counts vanish under sums.  An
        # empty leaf only survives until its forced rebuild.
        centroid[empty] = 0.0
        if weighted:
            wsum[empty] = 0.0
            wcentroid[empty] = 0.0

        repair = self._with_ancestors(leaves)
        counts_f = counts_all.astype(np.float64)
        for ids, kids, seg in self._level_plan():
            sel = np.flatnonzero(repair[ids])
            if sel.size == 0:
                continue
            cnt = np.diff(np.append(seg, kids.size))[sel]
            kk = kids[_ranges(seg[sel], cnt)]
            sseg = np.cumsum(cnt) - cnt
            ids2 = ids[sel]
            csum = np.add.reduceat(
                centroid[kk] * counts_f[kk, None], sseg, axis=0)
            pcnt = counts_f[ids2]
            centroid[ids2] = np.divide(
                csum, pcnt[:, None], out=np.zeros_like(csum),
                where=pcnt[:, None] > 0)
            if weighted:
                ws = np.add.reduceat(wsum[kk], sseg)
                wps = np.add.reduceat(
                    wcentroid[kk] * wsum[kk, None], sseg, axis=0)
                wsum[ids2] = ws
                wcentroid[ids2] = np.where(
                    ws[:, None] > 0,
                    np.divide(wps, ws[:, None], out=np.zeros_like(wps),
                              where=ws[:, None] != 0),
                    centroid[ids2])
        return centroid, wsum, wcentroid

    def _node_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-node sums of a per-point array over each ``[start, end)``
        slice, computed bottom-up: leaves via ``np.add.reduceat`` on the
        contiguous leaf partition, internal nodes by summing children."""
        x = np.asarray(values, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        out = np.empty((self.n_nodes, x.shape[1]))
        lsort = self.sorted_leaves()
        # Sorted leaves tile [0, n) contiguously, so reduceat over just
        # the starts segments exactly on leaf boundaries.
        out[lsort] = np.add.reduceat(x, self.start[lsort], axis=0)
        for ids, kids, seg in self._level_plan():
            out[ids] = np.add.reduceat(out[kids], seg, axis=0)
        return out[:, 0] if squeeze else out

    def levels(self) -> np.ndarray:
        """Per-node depth array (root = 0); cached with the topology."""
        return _memo(self._topology, "levels", lambda: tree_levels(
            self.child_offset, self.child_list))

    def _level_plan(self):
        return _memo(self._topology, "level_plan", lambda: level_propagation(
            self.child_offset, self.child_list, self.levels()))

    def sorted_leaves(self) -> np.ndarray:
        """Leaf ids in point order (:func:`sorted_leaves`); cached with
        the tiling."""
        return _memo(self._tiling, "sorted_leaves", lambda: sorted_leaves(
            self.start, self.is_leaf_arr))

    def bound_plan(self) -> tuple:
        """``(point-ordered leaf ids, their starts, bottom-up level
        plan)``: the batched engine's node-bound refresh over this tree
        as a query tree; cached with the tiling."""
        def build():
            lsort = self.sorted_leaves()
            return lsort, self.start[lsort], self._level_plan()
        return _memo(self._tiling, "bound_plan", build)

    # -- structure -----------------------------------------------------------
    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def is_leaf(self, i: int) -> bool:
        return bool(self.is_leaf_arr[i])

    def children(self, i: int) -> np.ndarray:
        return self.child_list[self.child_offset[i]:self.child_offset[i + 1]]

    def count(self, i: int) -> int:
        return int(self.end[i] - self.start[i])

    def slice(self, i: int) -> tuple[int, int]:
        return int(self.start[i]), int(self.end[i])

    def node(self, i: int) -> "TreeNode":
        return TreeNode(self, i)

    def leaves(self):
        """Iterate leaf node ids."""
        return np.nonzero(self.is_leaf_arr)[0]

    def expansion_children(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (offsets, flat ids) of each node's *expansion set*: its
        children, or the node itself when it is a leaf
        (:func:`expansion_csr`).

        This is the splitting rule of Algorithm 1 (leaves are kept whole
        while the partner node splits) in a form the batched frontier
        traversal can index with whole arrays.  Cached with the
        topology.
        """
        return _memo(self._topology, ("descent", 1), lambda: expansion_csr(
            self.child_offset, self.child_list))

    def descent_children(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR (offsets, flat ids) of each node's descendants ``depth``
        levels down, a leaf met on the way standing for itself
        (:func:`descent_csr`); ``depth`` 1 is :meth:`expansion_children`.
        Cached with the topology, one entry per depth."""
        if depth == 1:
            return self.expansion_children()
        return _memo(self._topology, ("descent", depth), lambda: descent_csr(
            *self.expansion_children(), depth))

    # -- mutation: lazy refit + amortized partial rebuild -----------------------
    def inv_perm(self) -> np.ndarray:
        """Original id → permuted position; cached with the tiling."""
        def build():
            inv = np.empty(self.n, dtype=np.int64)
            inv[self.perm] = np.arange(self.n, dtype=np.int64)
            return inv
        return _memo(self._tiling, "inv_perm", build)

    def leaf_of_position(self) -> np.ndarray:
        """Permuted position → owning leaf node id; cached with the
        tiling."""
        def build():
            lsort = self.sorted_leaves()
            return np.repeat(lsort, (self.end - self.start)[lsort])
        return _memo(self._tiling, "leaf_of_position", build)

    def parents(self) -> np.ndarray:
        """Per-node parent id (-1 for the root); cached with the
        topology."""
        def build():
            counts = self.child_offset[1:] - self.child_offset[:-1]
            par = np.full(self.n_nodes, -1, dtype=np.int64)
            par[self.child_list] = np.repeat(
                np.arange(self.n_nodes, dtype=np.int64), counts)
            return par
        return _memo(self._topology, "parents", build)

    def snapshot(self) -> "ArrayTree":
        """A consistent shallow view of the tree at its current version.

        Mutations rebind arrays instead of writing into them, so the
        snapshot's arrays never change under it: in-flight traversals
        (paused bound-rule epochs, process workers attached to shm
        views of these arrays) read the version they started with.  The
        snapshot itself is independently mutable — mutating it leaves
        the source tree untouched, which is how the cache refit path
        derives a new cache entry without corrupting the old one.
        """
        with self._mutation_lock:
            clone = copy.copy(self)
            clone._mutation_lock = threading.RLock()
            return clone

    def update_batch(self, idx, points=None, weights=None) -> int:
        """Move existing points (original ids ``idx``) to new coordinates
        and/or weights; returns the new tree :attr:`version`.

        Boxes are refit by what changed (:meth:`_refit`) and the moved
        leaves' mass data is repaired on its next read.  Any node whose
        refit span degraded past :data:`REBUILD_DIAMETER_FACTOR` is
        re-partitioned via a subtree rebuild (``tree.rebuild.*``
        counters).  With an id repeated in ``idx`` the last value wins.
        """
        with self._mutation_lock:
            idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
            if idx.size == 0:
                return self.version
            if points is None and weights is None:
                raise ValueError("update_batch needs points and/or weights")
            if weights is not None and self.weights is None:
                raise ValueError("tree carries no weights; cannot update them")
            require_finite("update_batch", points, weights)
            pos = self.inv_perm()[idx]
            leaf = self.leaf_of_position()[pos]
            arrivals = departures = None
            if points is not None:
                newp = self.points.copy()
                newp[pos] = np.asarray(
                    points, dtype=np.float64).reshape(idx.size, self.dim)
                departures = (leaf, self.points[pos])
                arrivals = (leaf, newp[pos])  # the rows' final values
                self.points = newp
            if weights is not None:
                w = np.broadcast_to(
                    np.asarray(weights, dtype=np.float64), (idx.size,))
                neww = self.weights.copy()
                neww[pos] = w
                self.weights = neww
            changed, boxes = self._refit(leaf, arrivals, departures)
            contribute({"tree.refit.count": 1,
                        "tree.refit.points": int(idx.size),
                        "tree.refit.nodes": boxes})
            if points is not None:
                self._maybe_rebuild(changed)
            self.version += 1
            return self.version

    def insert_batch(self, points, weights=None) -> np.ndarray:
        """Insert new points; returns their original ids (appended to the
        original index space: ``old_n .. old_n + m``).

        Each point is routed root→leaf to the child minimising the
        point-box distance and appended to that leaf's slice, growing its
        box; any leaf whose occupancy exceeds
        :data:`REBUILD_LEAF_FACTOR` × ``leaf_size`` is re-split.
        """
        with self._mutation_lock:
            pts = np.asarray(points, dtype=np.float64).reshape(-1, self.dim)
            m = pts.shape[0]
            if m == 0:
                return np.empty(0, dtype=np.int64)
            require_finite("insert_batch", pts, weights)
            if self.weights is not None:
                w = (np.ones(m) if weights is None else np.broadcast_to(
                    np.asarray(weights, dtype=np.float64), (m,)))
            elif weights is not None:
                raise ValueError("tree carries no weights; cannot insert them")
            old_n = self.n
            new_ids = np.arange(old_n, old_n + m, dtype=np.int64)
            leaf = self._route_to_leaves(pts)
            posin = self.end[leaf]
            order = np.argsort(posin, kind="stable")
            self.points = np.insert(self.points, posin[order], pts[order],
                                    axis=0)
            self.perm = np.insert(self.perm, posin[order], new_ids[order])
            if self.weights is not None:
                self.weights = np.insert(self.weights, posin[order], w[order])
            # Offset shift: C[p] = number of inserts at positions <= p.
            # Every insert position is the end of some leaf inside a node
            # iff that position is in (start, end], so both bounds shift
            # by the inclusive prefix count.
            C = np.cumsum(np.bincount(posin, minlength=old_n + 1))
            self.start = self.start + C[self.start]
            self.end = self.end + C[self.end]
            self._tiling = {}
            changed, boxes = self._refit(leaf, arrivals=(leaf, pts))
            contribute({"tree.refit.count": 1, "tree.refit.points": int(m),
                        "tree.refit.nodes": boxes})
            self._maybe_rebuild(changed, filled=np.unique(leaf))
            self.version += 1
            return new_ids

    def delete_batch(self, idx) -> int:
        """Delete points by original id; returns the new :attr:`version`.

        Surviving original ids are compacted (shifted down past the
        deleted ids), matching ``np.delete`` on the original-order
        dataset.  A leaf left empty forces a subtree rebuild of its
        nearest non-empty ancestor — the structure never keeps empty
        leaves.
        """
        with self._mutation_lock:
            idx = np.unique(np.atleast_1d(np.asarray(idx, dtype=np.int64)))
            if idx.size == 0:
                return self.version
            if idx.size >= self.n:
                raise ValueError("cannot delete every point in the tree")
            pos = np.sort(self.inv_perm()[idx])
            leaf = self.leaf_of_position()[pos]
            departures = (leaf, self.points[pos])
            # D[p] = number of deleted positions < p.
            D = np.concatenate(
                [[0], np.cumsum(np.bincount(pos, minlength=self.n))])
            self.points = np.delete(self.points, pos, axis=0)
            new_perm = np.delete(self.perm, pos)
            self.perm = new_perm - np.searchsorted(idx, new_perm, side="left")
            if self.weights is not None:
                self.weights = np.delete(self.weights, pos)
            self.start = self.start - D[self.start]
            self.end = self.end - D[self.end]
            self._tiling = {}
            changed, boxes = self._refit(leaf, departures=departures)
            contribute({"tree.refit.count": 1,
                        "tree.refit.points": int(idx.size),
                        "tree.refit.nodes": boxes})
            counts = self.end - self.start
            forced = []
            par = self.parents()
            for s in np.unique(leaf[counts[leaf] == 0]):
                t = int(s)
                while t >= 0 and counts[t] == 0:
                    t = int(par[t])
                forced.append(max(t, 0))
            self._maybe_rebuild(changed, forced=forced)
            self.version += 1
            return self.version

    def _route_to_leaves(self, pts: np.ndarray) -> np.ndarray:
        """Root→leaf routing: per level, each point descends into the
        child with the smallest point-box distance (vectorised over the
        batch; ties go to the lowest child id)."""
        cur = np.zeros(pts.shape[0], dtype=np.int64)
        while True:
            active = np.flatnonzero(~self.is_leaf_arr[cur])
            if active.size == 0:
                return cur
            nodes = cur[active]
            cnt = self.child_offset[nodes + 1] - self.child_offset[nodes]
            best = np.full(active.size, -1, dtype=np.int64)
            bestd = np.full(active.size, np.inf)
            X = pts[active]
            for j in range(int(cnt.max())):
                has = cnt > j
                cand = self.child_list[self.child_offset[nodes[has]] + j]
                gap = np.maximum(
                    np.maximum(self.lo[cand] - X[has], X[has] - self.hi[cand]),
                    0.0)
                d = np.einsum("ij,ij->i", gap, gap)
                hidx = np.flatnonzero(has)
                better = d < bestd[hidx]
                bestd[hidx[better]] = d[better]
                best[hidx[better]] = cand[better]
            cur[active] = best

    def _refit(self, moved_leaves: np.ndarray, arrivals=None,
               departures=None) -> tuple[np.ndarray, int]:
        """Repair the tree after rows entered or left ``moved_leaves``
        (every leaf that gained, lost or re-weighted a row).

        Boxes, exactly and by change: each ``arrivals`` row (``(leaf ids,
        points)``, the rows' final values) grows its leaf's box; a
        ``departures`` row (the rows' previous values) forces a rescan
        of its leaf's slice only if one of its coordinates equals that
        leaf's ``lo`` or ``hi`` — otherwise the box cannot shrink.  A
        parent is recomputed from its children only when a child's box
        changed, so the walk stops where nothing changes, and ``center``
        / ``diameter`` move only with their box.  Mass data is not
        touched here: the moved leaves are marked stale and repaired on
        the next read (:meth:`_mass_data`).  Arrays are copied and
        rebound — snapshots keep the old view.

        Returns ``(changed, boxes)``: the ids of the nodes whose box
        changed and the number of boxes recomputed."""
        moved = np.asarray(moved_leaves, dtype=np.int64)
        stale = (np.zeros(self.n_nodes, dtype=bool)
                 if self._mass_stale is None else self._mass_stale.copy())
        stale[moved] = True
        self._mass_stale = stale
        changed = np.empty(0, dtype=np.int64)
        boxes = 0
        if arrivals is not None or departures is not None:
            changed, boxes = self._refit_boxes(arrivals, departures)
        self._refit_extra(moved)
        return changed, boxes

    def _refit_boxes(self, arrivals, departures) -> tuple[np.ndarray, int]:
        lo, hi = self.lo.copy(), self.hi.copy()
        touched = np.zeros(self.n_nodes, dtype=bool)
        if arrivals is not None:
            leaf, pts = arrivals
            # one flat ufunc.at per bound: the 1-D form is the fast one
            cell = (leaf[:, None] * self.dim + np.arange(self.dim)).ravel()
            np.minimum.at(lo.reshape(-1), cell, pts.ravel())
            np.maximum.at(hi.reshape(-1), cell, pts.ravel())
            touched[leaf] = True
        boxes = 0
        if departures is not None:
            leaf, pts = departures
            edge = ((pts == self.lo[leaf]) | (pts == self.hi[leaf])).any(axis=1)
            rescan = np.zeros(self.n_nodes, dtype=bool)
            rescan[leaf[edge]] = True
            rescan = np.flatnonzero(rescan)
            self._scan_boxes(rescan, lo, hi)
            touched[rescan] = True
            boxes = rescan.size
        leaves = np.flatnonzero(touched)
        changed = np.zeros(self.n_nodes, dtype=bool)
        changed[leaves] = ((lo[leaves] != self.lo[leaves])
                           | (hi[leaves] != self.hi[leaves])).any(axis=1)
        kidmat = self._child_matrix()
        for ids, kids, seg in self._level_plan():
            kid_changed = changed[kids]
            if not kid_changed.any():
                continue
            p = ids[np.logical_or.reduceat(kid_changed, seg)]
            plo = lo[kidmat[p]].min(axis=1)
            phi = hi[kidmat[p]].max(axis=1)
            changed[p] = ((plo != lo[p]) | (phi != hi[p])).any(axis=1)
            lo[p], hi[p] = plo, phi
            boxes += p.size

        ids = np.flatnonzero(changed)
        center = self.center.copy()
        diam = self.diameter.copy()
        with np.errstate(invalid="ignore"):
            span = hi[ids] - lo[ids]
            finite = np.isfinite(span).all(axis=1)
            center[ids] = np.where(
                finite[:, None], 0.5 * (lo[ids] + hi[ids]), 0.0)
            diam[ids] = np.where(finite, span.max(axis=1), 0.0)
        self.lo, self.hi = lo, hi
        self.center, self.diameter = center, diam
        return ids, boxes

    def _scan_boxes(self, leaves: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> None:
        """Write the exact boxes of ``leaves`` from their point slices
        into ``lo``/``hi``.  An emptied leaf gets the ``+inf``/``-inf``
        sentinels, which vanish under its ancestors' min/max; it only
        survives until its forced rebuild."""
        counts = (self.end - self.start)[leaves]
        full, cnt = leaves[counts > 0], counts[counts > 0]
        if full.size:
            P = self.points[_ranges(self.start[full], cnt)]
            seg = np.cumsum(cnt) - cnt
            lo[full] = np.minimum.reduceat(P, seg, axis=0)
            hi[full] = np.maximum.reduceat(P, seg, axis=0)
        empty = leaves[counts == 0]
        lo[empty] = np.inf
        hi[empty] = -np.inf

    def _child_matrix(self) -> np.ndarray:
        """``(n_nodes, F)`` child ids, ``F`` the widest fan-out: row ``i``
        holds node ``i``'s children, padded by repeating its last child,
        so a min/max over a row is a min/max over the children (a leaf's
        row is ``-1``).  Cached with the topology."""
        def build():
            counts = self.child_offset[1:] - self.child_offset[:-1]
            last = np.maximum(counts, 1)[:, None] - 1
            col = np.minimum(np.arange(max(int(counts.max()), 1)), last)
            padded = np.append(self.child_list, -1)
            return padded[np.where(counts[:, None] > 0,
                                   self.child_offset[:-1, None] + col, -1)]
        return _memo(self._topology, "child_matrix", build)

    def _with_ancestors(self, nodes: np.ndarray) -> np.ndarray:
        """Node mask of ``nodes`` and every ancestor of them."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        par = self.parents()
        cur = np.asarray(nodes, dtype=np.int64)
        while cur.size:
            mask[cur] = True
            up = par[cur]
            up = up[up >= 0]
            cur = up[~mask[up]]
        return mask

    def _refit_extra(self, moved_leaves: np.ndarray) -> None:
        """Subclass hook: repair :attr:`_extra_node_arrays` after rows
        entered or left ``moved_leaves`` (called once the boxes are
        rebound)."""

    def _maybe_rebuild(self, changed: np.ndarray, filled=(),
                       forced=()) -> int:
        """Amortized partial rebuild of degraded subtrees.

        Candidates: nodes whose tight span outgrew their build-time span
        (a span only moves with its box, so ``changed`` — the nodes
        whose box changed — holds all of them), ``filled`` leaves past
        the occupancy bound (insert path) and the ``forced`` roots
        (empty leaves on the delete path).  Only the topmost candidates
        rebuild; a degraded root falls back to a full rebuild (counted
        separately)."""
        cand = [int(s) for s in forced]
        if changed.size:
            slack = 1e-9 * (float(self.diameter[0]) + 1.0)
            deg = changed[self.diameter[changed] >
                          REBUILD_DIAMETER_FACTOR
                          * self._pristine_diam[changed] + slack]
            par = self.parents()
            for s in deg:
                s = int(s)
                if self.is_leaf_arr[s]:
                    # A leaf's tight box is already optimal; the useful
                    # re-partition happens one level up.
                    s = int(par[s]) if par[s] >= 0 else s
                cand.append(s)
        filled = np.asarray(filled, dtype=np.int64)
        counts = self.end - self.start
        bound = int(REBUILD_LEAF_FACTOR * self.leaf_size)
        cand.extend(int(x) for x in filled[counts[filled] > bound])
        if not cand:
            return 0
        roots = self._maximal_roots(sorted(set(cand)))
        if 0 in roots:
            self._full_rebuild()
            return 1
        self._rebuild_subtrees(roots)
        return len(roots)

    def _maximal_roots(self, cand) -> list[int]:
        """Filter a candidate set down to nodes with no candidate ancestor."""
        cset = np.zeros(self.n_nodes, dtype=bool)
        cset[list(cand)] = True
        par = self.parents()
        keep = []
        for s in cand:
            p = int(par[int(s)])
            while p >= 0 and not cset[p]:
                p = int(par[p])
            if p < 0:
                keep.append(int(s))
        return keep

    def _rebuild_subtrees(self, roots) -> None:
        """Graft-and-renumber: rebuild each root's subtree from its (still
        contiguous) point slice and splice it back in.

        Subtree node ids are *not* contiguous in the original numbering
        (the builder interleaves siblings), so surviving nodes are
        compacted first (preserving relative order, hence the
        parent-before-child invariant) and each fresh subtree is appended
        after them."""
        from . import build_tree

        roots = [int(s) for s in roots]
        if self._mass is not None:
            # Mass data already computed is repaired before the graft, so
            # the roots' ancestors keep values from the children they
            # were measured over; mass data never read stays unread.
            self._mass_data()
        dead = np.zeros(self.n_nodes, dtype=bool)
        for s in roots:
            frontier = np.array([s], dtype=np.int64)
            while frontier.size:
                dead[frontier] = True
                cnt = (self.child_offset[frontier + 1]
                       - self.child_offset[frontier])
                frontier = self.child_list[
                    _ranges(self.child_offset[frontier], cnt)]
        keep = np.flatnonzero(~dead)
        remap = np.full(self.n_nodes, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)

        new_points = self.points.copy()
        new_weights = None if self.weights is None else self.weights.copy()
        new_perm = self.perm.copy()
        subs = []
        base = int(keep.size)
        for s in roots:
            a, b = int(self.start[s]), int(self.end[s])
            w = None if self.weights is None else self.weights[a:b]
            sub = build_tree(self.kind, self.points[a:b],
                             leaf_size=self.leaf_size, weights=w,
                             split=self.split)
            remap[s] = base
            subs.append((a, base, sub))
            base += sub.n_nodes
            new_points[a:b] = sub.points
            if new_weights is not None:
                new_weights[a:b] = sub.weights
            new_perm[a:b] = self.perm[a:b][sub.perm]

        counts_old = self.child_offset[1:] - self.child_offset[:-1]
        kcnt = counts_old[keep]
        kept_children = remap[self.child_list[
            _ranges(self.child_offset[keep], kcnt)]]

        def merge(attr, offsets=None):
            old = getattr(self, attr)[keep]
            parts = [old]
            for i, (a, b0, sub) in enumerate(subs):
                val = getattr(sub, attr)
                parts.append(val + offsets[i] if offsets is not None else val)
            return np.concatenate(parts)

        start_offsets = [a for a, _, _ in subs]
        new_counts = np.concatenate(
            [kcnt] + [sub.child_offset[1:] - sub.child_offset[:-1]
                      for _, _, sub in subs])
        self.child_list = np.concatenate(
            [kept_children] + [sub.child_list + b0 for _, b0, sub in subs])
        self.child_offset = np.concatenate([[0], np.cumsum(new_counts)])
        self.is_leaf_arr = new_counts == 0
        self._topology, self._tiling = {}, {}
        self.start = merge("start", start_offsets)
        self.end = merge("end", start_offsets)
        self.lo = merge("lo")
        self.hi = merge("hi")
        self.center = merge("center")
        self.diameter = merge("diameter")
        if self._mass is not None:
            self._mass = tuple(
                None if own is None else np.concatenate(
                    [own[keep]] + [sub._mass_data()[j] for _, _, sub in subs])
                for j, own in enumerate(self._mass))
        if self._mass_stale is not None:
            self._mass_stale = np.concatenate(
                [self._mass_stale[keep],
                 np.zeros(base - keep.size, dtype=bool)])
        for attr in self._extra_node_arrays:
            setattr(self, attr, merge(attr))
        self._pristine_diam = np.concatenate(
            [self._pristine_diam[keep]] + [sub.diameter for _, _, sub in subs])
        self.n_nodes = int(self.child_offset.size - 1)
        self.points = np.ascontiguousarray(new_points)
        self.perm = new_perm
        self.weights = new_weights
        contribute({"tree.rebuild.subtree": len(roots),
                    "tree.rebuild.nodes": int(dead.sum())})

    def _full_rebuild(self) -> None:
        """Safety valve: rebuild the whole tree from the original-order
        dataset and adopt the fresh structure in place (same object, new
        arrays — snapshots keep the old view)."""
        from . import build_tree

        orig = np.empty_like(self.points)
        orig[self.perm] = self.points
        w = None
        if self.weights is not None:
            w = np.empty_like(self.weights)
            w[self.perm] = self.weights
        fresh = build_tree(self.kind, orig, leaf_size=self.leaf_size,
                           weights=w, split=self.split)
        attrs = ["points", "perm", "lo", "hi", "start", "end",
                 "child_offset", "child_list", "is_leaf_arr", "center",
                 "diameter", "n_nodes", "weights", "_mass", "_mass_stale",
                 *self._extra_node_arrays]
        for attr in attrs:
            setattr(self, attr, getattr(fresh, attr))
        self._pristine_diam = self.diameter
        self._topology, self._tiling = {}, {}
        contribute({"tree.rebuild.full": 1})

    # -- distance bounds ----------------------------------------------------------
    def min_dist(self, base: str, i: int, other: "ArrayTree", j: int) -> float:
        """Lower bound on base-distance between points of node *i* and node
        *j* of *other* (boxes; ball tree overrides with spheres)."""
        return geometry.box_min_dist(
            base, self.lo[i], self.hi[i], other.lo[j], other.hi[j]
        )

    def max_dist(self, base: str, i: int, other: "ArrayTree", j: int) -> float:
        """Upper bound counterpart of :meth:`min_dist`."""
        return geometry.box_max_dist(
            base, self.lo[i], self.hi[i], other.lo[j], other.hi[j]
        )

    def point_min_dist(self, base: str, x: np.ndarray, i: int) -> float:
        return geometry.point_box_min_dist(base, x, self.lo[i], self.hi[i])

    def point_max_dist(self, base: str, x: np.ndarray, i: int) -> float:
        return geometry.point_box_max_dist(base, x, self.lo[i], self.hi[i])

    # -- diagnostics -----------------------------------------------------------
    def depth(self) -> int:
        """Maximum depth of the tree (root = 0)."""
        return int(self.levels().max()) if self.n_nodes else 0

    def validate(self) -> None:
        """Assert structural invariants; used by the test-suite."""
        seen = np.zeros(self.n, dtype=bool)
        for i in self.leaves():
            s, e = self.slice(i)
            assert e > s, f"empty leaf {i}"
            assert not seen[s:e].any(), "leaves overlap"
            seen[s:e] = True
        assert seen.all(), "leaves do not cover all points"
        counts = self.child_offset[1:] - self.child_offset[:-1]
        parent = np.repeat(np.arange(self.n_nodes), counts)
        assert np.all(self.child_list > parent), "child id not above its parent's"
        n_parents = np.bincount(self.child_list, minlength=self.n_nodes)
        assert n_parents.size == self.n_nodes and n_parents[0] == 0 and (
            np.all(n_parents[1:] == 1)), (
            "every non-root node needs exactly one parent")
        for i in range(self.n_nodes):
            s, e = self.slice(i)
            pts = self.points[s:e]
            assert np.array_equal(self.lo[i], pts.min(axis=0)), (
                f"box lo is not the slice minimum at {i}")
            assert np.array_equal(self.hi[i], pts.max(axis=0)), (
                f"box hi is not the slice maximum at {i}")
            kids = self.children(i)
            if len(kids):
                ks = sorted(self.slice(int(c)) for c in kids)
                assert ks[0][0] == s and ks[-1][1] == e, "children must tile parent"
                for (a, b), (c, d) in zip(ks, ks[1:]):
                    assert b == c, "children slices must be contiguous"

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, d={self.dim}, "
            f"nodes={self.n_nodes}, leaf_size={self.leaf_size})"
        )


class TreeNode:
    """Lightweight view of one tree node — the user/test-facing handle."""

    __slots__ = ("tree", "id")

    def __init__(self, tree: ArrayTree, node_id: int):
        self.tree = tree
        self.id = int(node_id)

    @property
    def lo(self):
        return self.tree.lo[self.id]

    @property
    def hi(self):
        return self.tree.hi[self.id]

    @property
    def center(self):
        return self.tree.center[self.id]

    @property
    def centroid(self):
        return self.tree.centroid[self.id]

    @property
    def diameter(self) -> float:
        return float(self.tree.diameter[self.id])

    @property
    def count(self) -> int:
        return self.tree.count(self.id)

    @property
    def is_leaf(self) -> bool:
        return self.tree.is_leaf(self.id)

    @property
    def points(self):
        s, e = self.tree.slice(self.id)
        return self.tree.points[s:e]

    @property
    def indices(self):
        """Original (pre-permutation) indices of this node's points."""
        s, e = self.tree.slice(self.id)
        return self.tree.perm[s:e]

    def children(self):
        return [TreeNode(self.tree, int(c)) for c in self.tree.children(self.id)]

    def __repr__(self) -> str:
        return f"TreeNode(id={self.id}, n={self.count}, leaf={self.is_leaf})"
