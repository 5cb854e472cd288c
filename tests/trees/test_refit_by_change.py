"""The refit by change against the eager refit it replaced.

``ArrayTree._refit`` repairs boxes by what a mutation changed: arrivals
grow their leaf's box, a departure rescans its leaf only when it sat on
the box boundary, parents are recomputed only under a changed child.
Mass data (centroid, wsum, wcentroid) is dropped by a mutation and built
again when it is read.

The reference is the eager algorithm the tree used before, kept here
as :meth:`_Eager._refit`: every dirty leaf rescanned, every dirty
ancestor recomputed, mass data included, at every mutation.  Both trees
take the same mutation sequence (shared routing, point and perm
bookkeeping, rebuild graft); after every mutation the two must agree
bitwise on ``lo``/``hi``/``diameter``, take the same ``tree.rebuild.*``
decisions, and
``validate()``.  Mass data read after a mutation must be bitwise
``_built_mass()`` of the mutated arrays, and within 1e-12 of the eager
values (which sum children's means where the build sums points).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.observe import collect
from repro.trees import build_tree
from repro.trees.node import _ranges

from tests.conftest import REMOVED_TREE, assert_tree_refused

pytestmark = pytest.mark.usefixtures("refit_never_fails")


class _Eager:
    """Test-local copy of the eager refit: ``lo/hi/centroid/wsum/
    wcentroid/diameter`` for every dirty leaf and ancestor, recomputed
    at the mutation."""

    def _refit(self, moved_leaves, arrivals=None, departures=None):
        dl = np.unique(np.asarray(moved_leaves, dtype=np.int64))
        counts_all = self.end - self.start
        nonempty = dl[counts_all[dl] > 0]
        empty = dl[counts_all[dl] == 0]
        centroid, wsum, wcentroid = (
            None if a is None else a.copy() for a in self._mass_data())
        lo, hi = self.lo.copy(), self.hi.copy()
        weighted = wsum is not None
        if nonempty.size:
            cnt = counts_all[nonempty]
            seg = np.cumsum(cnt) - cnt
            flat = _ranges(self.start[nonempty], cnt)
            P = self.points[flat]
            lo[nonempty] = np.minimum.reduceat(P, seg, axis=0)
            hi[nonempty] = np.maximum.reduceat(P, seg, axis=0)
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
        lo[empty] = np.inf
        hi[empty] = -np.inf
        centroid[empty] = 0.0
        if weighted:
            wsum[empty] = 0.0
            wcentroid[empty] = 0.0

        dirty_mask = np.zeros(self.n_nodes, dtype=bool)
        dirty_mask[dl] = True
        counts_f = counts_all.astype(np.float64)
        for ids, kids, seg in self._level_plan():
            kid_dirty = dirty_mask[kids]
            if not kid_dirty.any():
                continue
            sel = np.flatnonzero(np.logical_or.reduceat(kid_dirty, seg))
            cnt_p = np.diff(np.append(seg, kids.size))[sel]
            kk = kids[_ranges(seg[sel], cnt_p)]
            sseg = np.cumsum(cnt_p) - cnt_p
            ids2 = ids[sel]
            lo[ids2] = np.minimum.reduceat(lo[kk], sseg, axis=0)
            hi[ids2] = np.maximum.reduceat(hi[kk], sseg, axis=0)
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
            dirty_mask[ids2] = True

        dirty_ids = np.flatnonzero(dirty_mask)
        diam = self.diameter.copy()
        with np.errstate(invalid="ignore"):
            span = hi[dirty_ids] - lo[dirty_ids]
            finite = np.isfinite(span).all(axis=1)
            diam[dirty_ids] = np.where(finite, span.max(axis=1), 0.0)
        self.lo, self.hi = lo, hi
        self.diameter = diam
        self._mass = (centroid, wsum, wcentroid)
        # every dirty node is a rebuild candidate, as it was
        return dirty_ids, dirty_ids.size

    def _full_rebuild(self):
        super()._full_rebuild()
        self._mass_data()  # a fresh eager build computed mass data too


def _eager_twin(tree):
    """The same tree (same arrays) refitting the eager way."""
    twin = tree.snapshot()
    twin.__class__ = type("Eager" + type(tree).__name__,
                          (_Eager, type(tree)), {})
    twin._mass_data()  # the eager build computed mass data up front
    return twin


_BOXES = ("points", "perm", "start", "end", "child_offset", "child_list",
          "lo", "hi", "diameter")


def _same(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def assert_boxes_match(tree, twin):
    for name in _BOXES:
        assert _same(getattr(tree, name), getattr(twin, name)), name


def assert_mass_match(tree, twin):
    """The tree's mass data is bitwise a fresh build over the arrays it
    shares with the twin, and within 1e-12 of the twin's eager values."""
    for got, built, eager in zip(tree._mass_data(), twin._built_mass(),
                                 twin._mass_data()):
        if eager is None:
            assert got is None and built is None
        else:
            assert _same(got, built)
            np.testing.assert_allclose(got, eager, rtol=1e-12, atol=1e-12)


class Run:
    """One mutation sequence applied to a tree and its eager twin."""

    def __init__(self, kind, X, w, leaf_size, read_mass_first):
        self.tree = build_tree(kind, X, leaf_size=leaf_size, weights=w)
        self.twin = _eager_twin(self.tree)
        if read_mass_first:
            self.tree._mass_data()
        self.rebuilds = self.subtree_rebuilds = 0

    def apply(self, op: str, *args, **kw):
        counts = []
        for t in (self.tree, self.twin):
            with collect() as c:
                getattr(t, op)(*args, **kw)
            counts.append({k: v for k, v in c.as_dict().items()
                           if k.startswith("tree.rebuild.")})
        assert counts[0] == counts[1]
        if counts[0]:
            self.rebuilds += 1
            self.subtree_rebuilds += counts[0].get("tree.rebuild.subtree", 0)
        self.tree.validate()
        assert_boxes_match(self.tree, self.twin)

    def check_mass(self):
        assert_mass_match(self.tree, self.twin)


def _boundary_rows(tree, rng, m):
    """Original ids of up to ``m`` rows lying on their leaf's box
    boundary in some coordinate."""
    leaf = tree.leaf_of_position()
    on = ((tree.points == tree.lo[leaf]) | (tree.points == tree.hi[leaf])
          ).any(axis=1)
    pos = np.flatnonzero(on)
    return tree.perm[rng.choice(pos, size=min(m, pos.size), replace=False)]


def _step(run, rng, op, update_only):
    tree = run.tree
    n, d = tree.n, tree.dim
    weighted = tree.weights is not None
    if op == "inward":  # boundary rows to their leaf's centre
        ids = _boundary_rows(tree, rng, 1 + rng.integers(8))
        leaf = tree.leaf_of_position()[tree.inv_perm()[ids]]
        run.apply("update_batch", ids, 0.5 * (tree.lo[leaf] + tree.hi[leaf]))
    elif op == "outward":  # boundary rows pushed past their box
        ids = _boundary_rows(tree, rng, 1 + rng.integers(8))
        pts = tree.points[tree.inv_perm()[ids]]
        leaf = tree.leaf_of_position()[tree.inv_perm()[ids]]
        span = (tree.hi[leaf] - tree.lo[leaf]).max(axis=1, keepdims=True)
        run.apply("update_batch", ids,
                  pts + (pts - 0.5 * (tree.lo[leaf] + tree.hi[leaf])) * 0.3
                  + 0.01 * span)
    elif op == "far":
        ids = rng.choice(n, size=min(n, 1 + rng.integers(6)), replace=False)
        run.apply("update_batch", ids, rng.normal(size=(ids.size, d)) * 20)
    elif op == "jitter":  # ids repeat: the last value wins
        # Deletes can leave a single row, where 2 * n // 3 is 0.
        ids = rng.integers(0, n, size=1 + rng.integers(max(1, 2 * n // 3)))
        pts = tree.points[tree.inv_perm()[ids]]
        run.apply("update_batch", ids,
                  pts + 0.05 * rng.normal(size=pts.shape),
                  rng.uniform(0.0, 2.0, ids.size) if weighted else None)
    elif op == "weights" and weighted:
        ids = rng.integers(0, n, size=1 + rng.integers(20))
        run.apply("update_batch", ids,
                  weights=rng.uniform(0.0, 2.0, ids.size))
    elif op == "drift":  # one region walks away, step after step
        ids = np.arange(min(n, 12))
        for _ in range(4):
            pts = tree.points[tree.inv_perm()[ids]]
            run.apply("update_batch", ids, pts + 0.7)
    elif update_only:
        return
    elif op == "insert":
        m = 1 + rng.integers(3 * tree.leaf_size)
        pts = rng.normal(size=(m, d)) * rng.choice([0.3, 1.0, 8.0])
        run.apply("insert_batch", pts,
                  rng.uniform(0.0, 2.0, m) if weighted else None)
    elif op == "delete":
        m = min(n - 2, 1 + rng.integers(12))
        if m > 0:
            run.apply("delete_batch", rng.choice(n, size=m, replace=False))
    elif op == "empty_leaf":  # every row of one leaf goes
        leaves = tree.leaves()
        s, e = tree.slice(int(rng.choice(leaves)))
        if e - s < n:
            run.apply("delete_batch", tree.perm[s:e].copy())


OPS = ["inward", "outward", "far", "jitter", "weights", "drift", "insert",
       "delete", "empty_leaf"]


@st.composite
def sequences(draw):
    kind = draw(st.sampled_from(["kd", "octree"]))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(20, 220))
    update_only = draw(st.booleans())
    ops = draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=8))
    return dict(kind=kind, d=d, n=n, leaf_size=draw(st.integers(2, 12)),
                weighted=draw(st.booleans()), update_only=update_only,
                ops=ops, reads=draw(st.lists(st.booleans(), min_size=8,
                                             max_size=8)),
                read_mass_first=draw(st.booleans()),
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=120, deadline=None)
@given(case=sequences())
def test_refit_by_change_is_the_eager_refit(case):
    rng = np.random.default_rng(case["seed"])
    X = rng.normal(size=(case["n"], case["d"]))
    w = rng.uniform(0.0, 2.0, case["n"]) if case["weighted"] else None
    run = Run(case["kind"], X, w, case["leaf_size"], case["read_mass_first"])
    for op, read in zip(case["ops"], case["reads"]):
        _step(run, rng, op, case["update_only"])
        if read:
            run.check_mass()
    run.check_mass()


KINDS = ["kd", "octree"]


def _run(kind, rng, weighted=False, n=300, leaf_size=8, read_mass_first=True):
    """A :class:`Run`; for the deleted kind the build is refused and the
    result is None."""
    X = rng.normal(size=(n, 3))
    w = rng.uniform(0.5, 2.0, n) if weighted else None
    if kind == REMOVED_TREE:
        assert_tree_refused(Run, kind, X, w, leaf_size, read_mass_first)
        return None
    return Run(kind, X, w, leaf_size, read_mass_first)


@pytest.mark.parametrize("kind", KINDS + [REMOVED_TREE])
def test_boundary_row_moved_inward_shrinks_the_box(rng, kind):
    """A departure on the box boundary must rescan its leaf: growing
    boxes by arrivals alone would leave them loose."""
    run = _run(kind, rng)
    if run is None:
        return
    tree = run.tree
    ids = _boundary_rows(tree, rng, 10)
    leaf = tree.leaf_of_position()[tree.inv_perm()[ids]]
    before = tree.lo[leaf].copy(), tree.hi[leaf].copy()
    run.apply("update_batch", ids, 0.5 * (before[0] + before[1]))
    shrunk = ((tree.lo[leaf] > before[0]) | (tree.hi[leaf] < before[1]))
    assert shrunk.any()
    run.check_mass()


@pytest.mark.parametrize("kind", KINDS + [REMOVED_TREE])
@pytest.mark.parametrize("weighted", [False, True])
def test_duplicate_ids_take_their_final_value(rng, kind, weighted):
    run = _run(kind, rng, weighted)
    if run is None:
        return
    ids = np.array([5, 17, 5, 5, 40, 17])
    pts = rng.normal(size=(ids.size, 3)) * 4
    w = rng.uniform(0.5, 2.0, ids.size) if weighted else None
    run.apply("update_batch", ids, pts, w)
    tree = run.tree
    got = tree.points[tree.inv_perm()[[5, 17, 40]]]
    assert np.array_equal(got, pts[[3, 5, 4]])
    run.check_mass()


@pytest.mark.parametrize("kind", KINDS + [REMOVED_TREE])
@pytest.mark.parametrize("read_mass_first", [False, True])
def test_delete_emptying_a_leaf_rebuilds(rng, kind, read_mass_first):
    run = _run(kind, rng, weighted=True, read_mass_first=read_mass_first)
    if run is None:
        return
    tree = run.tree
    s, e = tree.slice(int(tree.leaves()[3]))
    run.apply("delete_batch", tree.perm[s:e].copy())
    assert run.rebuilds == 1
    run.check_mass()


@pytest.mark.parametrize("kind", KINDS + [REMOVED_TREE])
def test_long_drift_rebuilds_a_subtree(rng, kind):
    run = _run(kind, rng, weighted=True)
    if run is None:
        return
    ids = np.arange(6)
    for _ in range(6):
        pts = run.tree.points[run.tree.inv_perm()[ids]]
        run.apply("update_batch", ids, pts + 0.5)
    assert run.subtree_rebuilds
    run.check_mass()


@pytest.mark.parametrize("kind", KINDS + [REMOVED_TREE])
def test_mass_read_late_stays_within_the_sum_rule(rng, kind):
    """Mass data never read before a rebuild is computed over the
    grafted tree; it may differ from the eager values in the last bits,
    as mass data read at every step may."""
    run = _run(kind, rng, weighted=True, read_mass_first=False)
    if run is None:
        return
    for _ in range(5):
        ids = rng.choice(run.tree.n, 30, replace=False)
        run.apply("update_batch", ids, rng.normal(size=(30, 3)) * 6)
        run.apply("insert_batch", rng.normal(size=(20, 3)),
                  rng.uniform(0.5, 2.0, 20))
        run.apply("delete_batch", rng.choice(run.tree.n, 15, replace=False))
    assert run.rebuilds
    run.check_mass()


def test_refit_counts_the_boxes_it_recomputes(rng):
    """``tree.refit.nodes`` counts rescanned leaves plus parents
    recomputed from their children: none for a weights-only update."""
    run = _run("kd", rng, weighted=True)
    with collect() as c:
        run.tree.update_batch(np.arange(10), weights=np.full(10, 3.0))
    assert c.get("tree.refit.nodes") == 0
    tree = run.tree
    inside = np.flatnonzero(~((tree.points == tree.lo[tree.leaf_of_position()])
                              | (tree.points == tree.hi[tree.leaf_of_position()])
                              ).any(axis=1))[:5]
    ids = tree.perm[inside]
    with collect() as c:  # rows that stay inside their box change nothing
        tree.update_batch(ids, tree.points[inside] * 1.0)
    assert c.get("tree.refit.nodes") == 0


def test_only_programs_whose_actions_read_mass_data_compute_it(rng):
    """k-NN binds no node mass, so its live tree never computes any; a
    KDE program over the same tree binds one pseudo-point per node after
    the real rows, its centroid built over the mutated arrays."""
    from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage

    R = Storage(rng.normal(size=(400, 3)))
    Q = Storage(rng.normal(size=(50, 3)))

    def compiled(op, func, **kw):
        expr = PortalExpr("p")
        expr.addLayer(PortalOp.FORALL, Q)
        expr.addLayer(op, R, func, **kw)
        return expr.compile(leaf_size=16, tau=1e-3)

    knn = compiled((PortalOp.KARGMIN, 3), PortalFunc.EUCLIDEAN)
    knn.run()
    R.update_batch(np.arange(20), rng.normal(size=(20, 3)))
    knn = compiled((PortalOp.KARGMIN, 3), PortalFunc.EUCLIDEAN)
    assert knn.bindings.arrays["RROW"] is knn.rtree.points
    assert "rweight" not in knn.bindings.arrays
    assert knn.rtree._mass is None
    kde = compiled(PortalOp.SUM, PortalFunc.GAUSSIAN, bandwidth=0.5)
    tree, arrays = kde.rtree, kde.bindings.arrays
    assert _same(arrays["RROW"], np.concatenate(
        [tree.points, tree._built_mass()[0]]))
    assert _same(arrays["rw"], np.concatenate(
        [np.ones(tree.n), (tree.end - tree.start).astype(np.float64)]))
    assert _same(tree._mass[0], tree._built_mass()[0])
