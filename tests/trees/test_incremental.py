"""Incremental tree mutations: insert/delete/update with lazy refit.

The contract under test (ROADMAP item 3): after any batch mutation the
tree (a) still satisfies every structural invariant ``validate()``
checks, (b) stores exactly the mutated dataset (original-order
reconstruction through ``perm`` matches), (c) has *exact* per-node
metrics — tight boxes, centroids, weight sums — wherever it was refit,
and (d) bumps the monotone version while snapshots keep the
pre-mutation view.
"""

import numpy as np
import pytest

from repro.observe import collect
from repro.trees import build_tree
from repro.trees.node import REBUILD_LEAF_FACTOR

from tests.conftest import REMOVED_TREE, assert_tree_refused

pytestmark = pytest.mark.usefixtures("refit_never_fails")

KINDS = ["kd", "octree"]


def reconstruct(tree):
    """Original-order dataset implied by the tree's permuted storage."""
    orig = np.empty_like(tree.points)
    orig[tree.perm] = tree.points
    w = None
    if tree.weights is not None:
        w = np.empty_like(tree.weights)
        w[tree.perm] = tree.weights
    return orig, w


def check_metrics(tree):
    """Every node's stored metrics match a recompute from its slice."""
    for i in range(tree.n_nodes):
        s, e = tree.slice(i)
        pts = tree.points[s:e]
        assert np.allclose(tree.lo[i], pts.min(axis=0))
        assert np.allclose(tree.hi[i], pts.max(axis=0))
        assert np.allclose(tree.centroid[i], pts.mean(axis=0))
        assert np.allclose(tree.node(i).center,
                           0.5 * (tree.lo[i] + tree.hi[i]))
        assert np.allclose(tree.diameter[i],
                           (tree.hi[i] - tree.lo[i]).max())
        if tree.weights is not None:
            w = tree.weights[s:e]
            assert np.allclose(tree.wsum[i], w.sum())
            assert np.allclose(
                tree.wcentroid[i], (w[:, None] * pts).sum(axis=0) / w.sum())


@pytest.mark.parametrize("kind", KINDS + [REMOVED_TREE])
@pytest.mark.parametrize("weighted", [False, True])
class TestMutations:
    def make(self, rng, kind, weighted, n=400):
        """``(X, w, tree)``; for the deleted kind the build is refused
        and ``tree`` is None."""
        X = rng.normal(size=(n, 3))
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        if kind == REMOVED_TREE:
            assert_tree_refused(build_tree, kind, X, leaf_size=16, weights=w)
            return X, w, None
        return X, w, build_tree(kind, X, leaf_size=16, weights=w)

    def test_update_refits_exactly(self, rng, kind, weighted):
        X, w, tree = self.make(rng, kind, weighted)
        if tree is None:
            return
        idx = rng.choice(400, 30, replace=False)
        pts = rng.normal(size=(30, 3)) * 0.5
        v = tree.update_batch(idx, pts)
        assert v == tree.version == 1
        tree.validate()
        check_metrics(tree)
        orig, worig = reconstruct(tree)
        X[idx] = pts
        assert np.allclose(orig, X)
        if weighted:
            assert np.allclose(worig, w)

    def test_update_weights_only(self, rng, kind, weighted):
        X, w, tree = self.make(rng, kind, weighted)
        if tree is None:
            return
        if not weighted:
            with pytest.raises(ValueError):
                tree.update_batch([0], weights=[2.0])
            return
        tree.update_batch(np.arange(10), weights=np.full(10, 9.0))
        tree.validate()
        check_metrics(tree)
        _, worig = reconstruct(tree)
        w = w.copy()
        w[:10] = 9.0
        assert np.allclose(worig, w)

    def test_insert_appends_ids(self, rng, kind, weighted):
        X, w, tree = self.make(rng, kind, weighted)
        if tree is None:
            return
        ins = rng.normal(size=(50, 3))
        ids = tree.insert_batch(
            ins, weights=np.full(50, 1.5) if weighted else None)
        assert np.array_equal(ids, np.arange(400, 450))
        assert tree.n == 450
        tree.validate()
        check_metrics(tree)
        orig, worig = reconstruct(tree)
        assert np.allclose(orig, np.concatenate([X, ins]))
        if weighted:
            assert np.allclose(worig, np.concatenate([w, np.full(50, 1.5)]))

    def test_delete_compacts_ids(self, rng, kind, weighted):
        X, w, tree = self.make(rng, kind, weighted)
        if tree is None:
            return
        idx = rng.choice(400, 120, replace=False)
        tree.delete_batch(idx)
        assert tree.n == 280
        tree.validate()
        check_metrics(tree)
        orig, worig = reconstruct(tree)
        assert np.allclose(orig, np.delete(X, idx, axis=0))
        if weighted:
            assert np.allclose(worig, np.delete(w, idx))
        # no empty leaves survive a delete
        assert np.all((tree.end - tree.start)[tree.leaves()] > 0)

    def test_mixed_chain(self, kind, weighted, rng):
        X, w, tree = self.make(rng, kind, weighted)
        if tree is None:
            return
        ref = X.copy()
        wref = None if w is None else w.copy()
        for step in range(4):
            n = len(ref)
            idx = rng.choice(n, max(1, n // 20), replace=False)
            pts = rng.normal(size=(idx.size, 3))
            tree.update_batch(idx, pts)
            ref[idx] = pts
            ins = rng.normal(size=(rng.integers(1, 25), 3))
            tree.insert_batch(
                ins, weights=None if wref is None else np.ones(len(ins)))
            ref = np.concatenate([ref, ins])
            if wref is not None:
                wref = np.concatenate([wref, np.ones(len(ins))])
            dele = rng.choice(len(ref), max(1, len(ref) // 25),
                              replace=False)
            tree.delete_batch(dele)
            ref = np.delete(ref, dele, axis=0)
            if wref is not None:
                wref = np.delete(wref, dele)
        tree.validate()
        check_metrics(tree)
        orig, worig = reconstruct(tree)
        assert np.allclose(orig, ref)
        if wref is not None:
            assert np.allclose(worig, wref)
        assert tree.version == 12


def test_snapshot_keeps_old_view(rng):
    X = rng.normal(size=(300, 3))
    tree = build_tree("kd", X, leaf_size=16)
    snap = tree.snapshot()
    before = (snap.points.copy(), snap.lo.copy(), snap.perm.copy())
    tree.update_batch(np.arange(50), rng.normal(size=(50, 3)) * 4)
    tree.insert_batch(rng.normal(size=(20, 3)))
    assert np.array_equal(snap.points, before[0])
    assert np.array_equal(snap.lo, before[1])
    assert np.array_equal(snap.perm, before[2])
    assert snap.version == 0 and tree.version == 2
    snap.validate()


def test_snapshot_mutation_leaves_source(rng):
    """The cache-refit pattern: mutating a snapshot is COW all the way."""
    X = rng.normal(size=(300, 3))
    tree = build_tree("kd", X, leaf_size=16)
    clone = tree.snapshot()
    clone.update_batch(np.arange(30), rng.normal(size=(30, 3)) * 3)
    clone.delete_batch(np.arange(10))
    assert tree.version == 0
    orig, _ = reconstruct(tree)
    assert np.allclose(orig, X)
    tree.validate()
    clone.validate()


def test_overfull_leaf_triggers_resplit(rng):
    X = rng.normal(size=(200, 3))
    tree = build_tree("kd", X, leaf_size=8)
    # Pile every insert into one spot so a single leaf overflows.
    target = X[0] + 1e-3 * rng.normal(size=(100, 3))
    with collect() as c:
        tree.insert_batch(target)
    assert c.get("tree.rebuild.subtree") + c.get("tree.rebuild.full") >= 1
    tree.validate()
    counts = (tree.end - tree.start)[tree.leaves()]
    assert counts.max() <= REBUILD_LEAF_FACTOR * tree.leaf_size


def test_far_move_triggers_rebuild(rng):
    X = rng.normal(size=(400, 3))
    tree = build_tree("kd", X, leaf_size=16)
    with collect() as c:
        tree.update_batch(np.arange(8), X[:8] + 500.0)
    assert (c.get("tree.rebuild.subtree") + c.get("tree.rebuild.full")) >= 1
    tree.validate()
    check_metrics(tree)


def test_emptied_leaf_forces_rebuild(rng):
    X = rng.normal(size=(300, 3))
    tree = build_tree("kd", X, leaf_size=8)
    # delete one whole leaf's points
    leaf = int(tree.leaves()[0])
    s, e = tree.slice(leaf)
    ids = tree.perm[s:e].copy()
    with collect() as c:
        tree.delete_batch(ids)
    assert c.get("tree.rebuild.subtree") + c.get("tree.rebuild.full") >= 1
    tree.validate()
    check_metrics(tree)


@pytest.mark.parametrize("dim", [3, 9])
@pytest.mark.parametrize("mutation", ["update", "update-one", "insert",
                                      "delete", "far-update"])
def test_point_products_match_recompute(rng, mutation, dim):
    """The points after each mutation kind are the mutated points, and
    the snapshot's are untouched (copy-on-write)."""
    X = rng.normal(size=(600, dim))
    tree = build_tree("kd" if dim > 3 else "octree", X, leaf_size=16)
    clone = tree.snapshot()
    idx = rng.choice(600, 1 if mutation == "update-one" else 40,
                     replace=False)
    if mutation == "insert":
        clone.insert_batch(rng.normal(size=(40, dim)))
    elif mutation == "delete":
        clone.delete_batch(idx)
    else:
        scale = 500.0 if mutation == "far-update" else 0.1
        moved = X[idx] + scale * rng.normal(size=(idx.size, dim))
        clone.update_batch(idx, moved)
        assert np.array_equal(clone.points[clone.inv_perm()[idx]], moved)
    assert clone.points.flags.c_contiguous
    assert np.array_equal(tree.points, X[tree.perm])


def test_delete_all_raises(rng):
    X = rng.normal(size=(50, 3))
    tree = build_tree("kd", X, leaf_size=8)
    with pytest.raises(ValueError):
        tree.delete_batch(np.arange(50))


def test_empty_batches_are_noops(rng):
    X = rng.normal(size=(50, 3))
    tree = build_tree("kd", X, leaf_size=8)
    assert tree.update_batch(np.empty(0, dtype=int)) == 0
    assert tree.insert_batch(np.empty((0, 3))).size == 0
    assert tree.delete_batch(np.empty(0, dtype=int)) == 0
    assert tree.version == 0


def test_refit_counters(rng):
    X = rng.normal(size=(300, 3))
    tree = build_tree("kd", X, leaf_size=16)
    with collect() as c:
        tree.update_batch(np.arange(5), X[:5] + 0.01)
    assert c.get("tree.refit.count") == 1
    assert c.get("tree.refit.points") == 5
    assert c.get("tree.refit.nodes") >= 1


@pytest.mark.parametrize("kind", KINDS + [REMOVED_TREE])
def test_knn_equivalence_after_mutation(rng, kind):
    """The refit tree (reached through the cache's incremental path)
    answers nearest-neighbour queries identically to brute force over
    the mutated dataset."""
    from repro.dsl import Storage
    from repro.problems import knn

    X = rng.normal(size=(500, 3))
    R = Storage(X)
    Q = Storage(rng.normal(size=(100, 3)))
    if kind == REMOVED_TREE:
        assert_tree_refused(knn, Q, R, k=3, tree=kind)
        return
    knn(Q, R, k=3, tree=kind)  # build + register the live tree
    idx = rng.choice(500, 25, replace=False)
    R.update_batch(idx, rng.normal(size=(25, 3)) * 2)
    ids = R.insert_batch(rng.normal(size=(40, 3)))
    R.delete_batch(np.concatenate([idx[:10], ids[:10]]))
    with collect() as c:
        vt, it = knn(Q, R, k=3, tree=kind)
    assert c.get("cache.tree.refit") == 1
    vb, ib = knn(Q, R, k=3, backend="brute")
    assert np.array_equal(np.asarray(vt), np.asarray(vb))


@pytest.mark.parametrize("mutation", ["insert", "delete"])
def test_bounded_knn_on_mutated_query_tree_matches_rebuild(rng, mutation):
    """The bounded engine caches its node-bound refresh plan (leaf starts
    and level plan) on the query tree; a mutation that moves leaf starts
    must drop it, or a rerun reduces bounds over stale leaf slices and
    prunes wrongly."""
    from repro.backend.codegen import Bindings
    from repro.backend.state import allocate_state
    from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
    from repro.traversal import run_engine

    k = 4
    Q, R = rng.normal(size=(300, 3)), rng.normal(size=(400, 3))
    expr = PortalExpr("knn")
    expr.addLayer(PortalOp.FORALL, Storage(Q))
    expr.addLayer((PortalOp.KARGMIN, k), Storage(R), PortalFunc.EUCLIDEAN)
    program = expr.compile()
    source = program.kernels.source
    code = compile(source, "<knn>", "exec")
    rtree = build_tree("kd", R, leaf_size=8)

    def knn_on(qtree):
        state = allocate_state(PortalOp.FORALL, PortalOp.KARGMIN, k,
                               qtree.n, rtree.n)
        kernels = (Bindings.query(qtree, {"K": k})
                   | Bindings.reference(rtree, program.rule)
                   ).bind(source, code, state)
        run_engine("batched", qtree, rtree, kernels)
        return state.finalize(qtree.perm, rtree.perm)

    qtree = build_tree("kd", Q, leaf_size=8)
    knn_on(qtree)  # caches the bound plan on the tree
    if mutation == "insert":
        qtree.insert_batch(rng.normal(size=(60, 3)) * 0.3)
    else:
        qtree.delete_batch(rng.choice(300, 60, replace=False))
    got = knn_on(qtree)
    want = knn_on(build_tree("kd", reconstruct(qtree)[0], leaf_size=8))
    assert np.array_equal(np.asarray(got.values), np.asarray(want.values))
