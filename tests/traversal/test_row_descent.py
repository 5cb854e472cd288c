"""The row regime's multi-level descent and the topology caches it reads.

A surviving (row, reference node) pair expands into the node's
descendants several levels down, read off the tree's descent CSR
(``ArrayTree.descent_children``), and that CSR lives in the topology
cache a tree shares with its snapshots.  These tests hold the descent to
the one-level expansion it composes, the outputs to the leaf regime and
brute force (values bitwise, ids tie-aware) over kd, ball and octree
reference trees whose depths are not a multiple of the levels descended,
and the cache to snapshot isolation across mutations that rebuild
subtrees.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.dsl import Storage
from repro.observe import collect
from repro.traversal import bounded_batched
from repro.traversal.bounded_batched import ROW_REGIME_RATIO, descent_levels
from repro.trees import build_tree
from repro.trees.node import descent_csr, expansion_csr

from tests.traversal.test_row_regime import _assert_matches, _expr

pytestmark = pytest.mark.usefixtures("refit_never_fails")

NR = 1_600
#: kd and ball trees over NR points are 8 levels deep at this leaf
#: size, the octree 5
LEAF = 8
TREES = ["kd", "ball", "octree"]


def _naive_descent(tree, node: int, levels: int) -> list[int]:
    frontier = [node]
    for _ in range(levels):
        nxt = []
        for v in frontier:
            kids = tree.children(v)
            nxt.extend(kids.tolist() if len(kids) else [v])
        frontier = nxt
    return frontier


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", TREES)
def test_descent_csr_is_the_expansion_applied_levels_times(kind, levels):
    X = np.random.default_rng(3).normal(size=(700, 3))
    tree = build_tree(kind, X, leaf_size=8)
    off, flat = tree.descent_children(levels)
    assert off.size == tree.n_nodes + 1
    for v in range(tree.n_nodes):
        assert flat[off[v]:off[v + 1]].tolist() == _naive_descent(
            tree, v, levels)


def test_single_leaf_tree_descends_to_itself():
    tree = build_tree("kd", np.zeros((3, 2)), leaf_size=8)
    assert tree.n_nodes == 1
    off, flat = tree.descent_children(3)
    assert off.tolist() == [0, 1] and flat.tolist() == [0]
    assert descent_levels(tree) == 1


@pytest.mark.parametrize("kind, d, levels", [
    ("kd", 3, 3), ("ball", 9, 3), ("octree", 3, 1), ("octree", 1, 3)])
def test_descent_levels_follow_the_widest_fan_out(kind, d, levels):
    """Three levels of a binary tree, one of an octree over 3-D points
    (fan-out 8); a 1-D octree splits in two and descends like a kd
    tree."""
    X = np.random.default_rng(5).normal(size=(2_000, d))
    assert descent_levels(build_tree(kind, X, leaf_size=16)) == levels


# -- outputs -----------------------------------------------------------------

def _cases():
    for tree in TREES:
        for d in (3, 9):
            if tree == "octree" and d != 3:
                continue  # octrees split every dimension: d <= 3
            yield tree, d


def _run(problem, Q, R, **options):
    clear_caches()
    expr = _expr(problem, Q, R, k=5)
    out = expr.execute(leaf_size=LEAF, **options)
    return out, expr.stats()


@pytest.fixture(scope="module")
def pools():
    rng = np.random.default_rng(44)
    return {d: (rng.normal(size=(NR // ROW_REGIME_RATIO, d)),
                rng.normal(size=(NR, d))) for d in (3, 9)}


@pytest.mark.parametrize("width", [bounded_batched.ROW_DESCENT_WIDTH, 64])
@pytest.mark.parametrize("nq", [1, 32, NR // ROW_REGIME_RATIO])
@pytest.mark.parametrize("tree, d", list(_cases()))
@pytest.mark.parametrize("problem", ["KARGMIN", "KARGMAX"])
def test_deeper_descent_matches_leaf_regime_and_brute(
        pools, problem, tree, d, nq, width, monkeypatch):
    """The default budget and a wider one (64: six kd levels, two octree
    levels), each over a reference tree whose depth is not a multiple
    of the levels it descends (one octree level divides every depth),
    so some leaves are met part-way down."""
    monkeypatch.setattr(bounded_batched, "ROW_DESCENT_WIDTH", width)
    Q, R = pools[d][0][:nq], pools[d][1]
    rtree = build_tree(tree, R, leaf_size=LEAF)
    levels = descent_levels(rtree)
    assert levels == 1 or rtree.depth() % levels != 0
    out, stats = _run(problem, Q, R, tree=tree)
    assert stats["bounded"]["regime"] == "row"
    brute, _ = _run(problem, Q, R, backend="brute")
    _assert_matches(problem, out, brute, Q, R)
    monkeypatch.setattr(bounded_batched, "ROW_REGIME_RATIO", NR + 1)
    leaf, leaf_stats = _run(problem, Q, R, tree=tree)
    assert leaf_stats["bounded"]["regime"] == "leaf"
    _assert_matches(problem, out, leaf, Q, R)


@pytest.mark.parametrize("options", [
    {"parallel": True, "workers": 2, "min_tasks": 4, "executor": "thread"},
    {"parallel": True, "workers": 2, "min_tasks": 4, "executor": "process"},
    {"shards": 2},
], ids=["thread", "process", "shards2"])
def test_executors_descend_alike(pools, options):
    """Process workers derive the descent CSR from their shared-memory
    tree views; shards descend their own trees."""
    Q, R = pools[9][0][:32], pools[9][1]
    out, stats = _run("KARGMIN", Q, R, **options)
    assert stats["bounded"]["regime"] == "row"
    serial, _ = _run("KARGMIN", Q, R)
    _assert_matches("KARGMIN", out, serial, Q, R)


def _spine_datagen():
    path = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "spine" / "datagen.py")
    spec = importlib.util.spec_from_file_location("spine_datagen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_served_batch_reaches_its_leaves_in_few_epochs():
    """The served-batch shape: 32 rows (pool rows 0-31 of seed 0)
    against the 10 000 × 9 reference set.  Descending one level per
    epoch took 18 epochs; the pinned count is 9."""
    data = _spine_datagen().inputs("serve_fanin", 0)
    Q, R = data["pool"][:32], data["reference"]
    clear_caches()
    expr = _expr("KARGMIN", Q, R, k=5)
    expr.execute()
    bounded = expr.stats()["bounded"]
    assert bounded["regime"] == "row"
    assert bounded["epochs"] <= 9


# -- the topology cache ------------------------------------------------------

def _recomputed(tree, levels: int):
    return descent_csr(*expansion_csr(tree.child_offset, tree.child_list),
                       levels)


def _assert_csr_equal(a, b):
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _rebuilding(kind: str, tree, X, rng):
    """Apply a mutation of ``kind`` that rebuilds at least one subtree."""
    if kind == "update":
        tree.update_batch(np.arange(8), X[:8] + 500.0)
    elif kind == "insert":
        tree.insert_batch(X[0] + 1e-3 * rng.normal(size=(100, X.shape[1])))
    else:
        leaf = int(tree.leaves()[0])
        s, e = tree.slice(leaf)
        tree.delete_batch(tree.perm[s:e].copy())


@pytest.mark.parametrize("mutation", ["update", "insert", "delete"])
@pytest.mark.parametrize("kind", TREES)
def test_rebuild_gives_the_tree_a_fresh_cache(kind, mutation):
    """A snapshot's descent CSR is the source's (built once, shared).
    A subtree rebuild of the source gives it a fresh cache built from
    the new shape, and the older snapshot keeps reading its own."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(600, 3))
    tree = build_tree(kind, X, leaf_size=8)
    snap = tree.snapshot()
    old = snap.descent_children(3)
    old_plan = snap.bound_plan()
    assert tree.descent_children(3) is old
    with collect() as c:
        _rebuilding(mutation, tree, X, rng)
    assert c.get("tree.rebuild.subtree") + c.get("tree.rebuild.full") >= 1
    tree.validate()
    new = tree.descent_children(3)
    assert new is not old
    _assert_csr_equal(new, _recomputed(tree, 3))
    assert snap.descent_children(3) is old
    assert snap.bound_plan() is old_plan
    _assert_csr_equal(old, _recomputed(snap, 3))


@pytest.mark.parametrize("mutation", ["update", "insert", "delete"])
def test_mutating_a_snapshot_leaves_the_source_cache(mutation):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(600, 3))
    tree = build_tree("kd", X, leaf_size=8)
    csr, levels, inv = (tree.descent_children(3), tree.levels(),
                        tree.inv_perm())
    clone = tree.snapshot()
    _rebuilding(mutation, clone, X, rng)
    _assert_csr_equal(clone.descent_children(3), _recomputed(clone, 3))
    assert tree.descent_children(3) is csr
    assert tree.levels() is levels
    assert tree.inv_perm() is inv
    _assert_csr_equal(csr, _recomputed(tree, 3))


def test_a_refit_without_rebuild_keeps_sharing_the_topology():
    """Moves that rebuild nothing keep the shape, so the mutated view
    reads the CSR its source built; an insert re-tiles the points, so
    the tiling cache is fresh while the topology's is kept."""
    rng = np.random.default_rng(10)
    X = rng.normal(size=(600, 3))
    tree = build_tree("kd", X, leaf_size=16)
    csr, inv = tree.descent_children(3), tree.inv_perm()
    clone = tree.snapshot()
    with collect() as c:
        clone.update_batch(np.arange(5), X[:5] + 1e-6)
    assert c.get("tree.rebuild.subtree") + c.get("tree.rebuild.full") == 0
    assert clone.descent_children(3) is csr
    assert clone.inv_perm() is inv
    with collect() as c:
        clone.insert_batch(rng.normal(size=(3, 3)))
    assert c.get("tree.rebuild.subtree") + c.get("tree.rebuild.full") == 0
    assert clone.descent_children(3) is csr
    assert clone.inv_perm() is not inv
    assert np.array_equal(clone.inv_perm()[clone.perm],
                          np.arange(clone.n))


@pytest.mark.parametrize("mutation", ["update", "insert", "delete"])
def test_compiled_program_keeps_its_snapshot_across_a_rebuild(mutation):
    """End to end: a compiled program pins a snapshot of the cached
    reference tree.  After the Storage mutates with a subtree rebuild,
    a fresh execute answers the new data exactly, and the old program
    run again still answers the data it compiled against."""
    rng = np.random.default_rng(11)
    R = rng.normal(size=(NR, 3))
    Q = rng.normal(size=(20, 3))
    ref = Storage(R.copy(), name="reference")
    query = Storage(Q, name="query")

    def expr():
        from repro.dsl import PortalExpr, PortalFunc, PortalOp

        e = PortalExpr("knn")
        e.addLayer(PortalOp.FORALL, query)
        e.addLayer((PortalOp.KARGMIN, 5), ref, PortalFunc.EUCLIDEAN)
        return e

    old = expr().compile(leaf_size=8)
    before = old.run()
    with collect() as c:
        if mutation == "update":
            ref.update_batch(np.arange(40), R[:40] + 300.0)
        elif mutation == "insert":
            ref.insert_batch(R[0] + 1e-3 * rng.normal(size=(120, 3)))
        else:  # empty one leaf of the tree the program compiled over
            s, e = old.rtree.slice(int(old.rtree.leaves()[0]))
            ref.delete_batch(old.rtree.perm[s:e].copy())
        after = expr().execute(leaf_size=8)
    assert c.get("tree.rebuild.subtree") + c.get("tree.rebuild.full") >= 1
    brute = expr().execute(backend="brute")
    _assert_matches("KARGMIN", after, brute, Q, ref.data)
    again = old.run()
    assert np.asarray(again.values).tobytes() == np.asarray(
        before.values).tobytes()
    assert np.asarray(again.indices).tobytes() == np.asarray(
        before.indices).tobytes()
