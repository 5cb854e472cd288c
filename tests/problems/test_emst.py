"""Tests for the Euclidean minimum spanning tree (dual-tree Borůvka)."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from repro.backend.jit import compile_expr
from repro.baselines.expert import expert_emst
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.dsl.errors import CompileError
from repro.observe import collect
from repro.problems import emst


def scipy_mst_weight(X) -> float:
    return float(minimum_spanning_tree(squareform(pdist(X))).sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20)


class TestEMST:
    def test_weight_matches_scipy(self, rng):
        X = rng.normal(size=(200, 3))
        res = emst(X)
        assert res.total_weight == pytest.approx(scipy_mst_weight(X), rel=1e-10)

    def test_edge_count(self, rng):
        X = rng.normal(size=(120, 2))
        res = emst(X)
        assert res.edges.shape == (119, 2)
        assert len(res.weights) == 119

    def test_spanning_connected(self, rng):
        import networkx as nx

        X = rng.normal(size=(100, 3))
        res = emst(X)
        g = nx.Graph()
        g.add_nodes_from(range(100))
        g.add_edges_from(map(tuple, res.edges))
        assert nx.is_connected(g)
        assert g.number_of_edges() == 99

    def test_weights_sorted(self, rng):
        res = emst(rng.normal(size=(80, 2)))
        assert np.all(np.diff(res.weights) >= -1e-12)

    def test_clustered_data(self, rng):
        A = rng.normal(size=(60, 2))
        B = rng.normal(size=(60, 2)) + 20.0
        X = np.concatenate([A, B])
        res = emst(X)
        assert res.total_weight == pytest.approx(scipy_mst_weight(X), rel=1e-10)
        # Exactly one long bridge edge between the clusters.
        bridge = sum(1 for (a, b) in res.edges if (a < 60) != (b < 60))
        assert bridge == 1

    def test_high_dim(self, rng):
        X = rng.normal(size=(80, 10))
        res = emst(X)
        assert res.total_weight == pytest.approx(scipy_mst_weight(X), rel=1e-10)

    def test_two_points(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        res = emst(X)
        assert res.total_weight == pytest.approx(5.0)
        assert res.rounds == 1

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            emst(np.array([[1.0, 2.0]]))

    def test_duplicate_points(self, rng):
        # scipy.csgraph treats explicit zero distances as missing edges, so
        # validate against networkx, which handles zero-weight edges.
        import networkx as nx

        base = rng.normal(size=(30, 2))
        X = np.concatenate([base, base[:10]])
        res = emst(X)
        g = nx.Graph()
        D = squareform(pdist(X))
        n = len(X)
        g.add_weighted_edges_from(
            (i, j, D[i, j]) for i in range(n) for j in range(i + 1, n)
        )
        expected = sum(d["weight"] for _, _, d in
                       nx.minimum_spanning_edges(g, data=True))
        assert res.total_weight == pytest.approx(expected, abs=1e-9)

    def test_stats_collected(self, rng):
        res = emst(rng.normal(size=(100, 2)))
        assert res.stats.base_cases > 0
        assert res.rounds >= 1


def _edge_set(edges) -> set:
    return {frozenset(e) for e in np.asarray(edges).tolist()}


def _assert_spanning(res, n):
    assert res.edges.shape == (n - 1, 2)
    assert len(_edge_set(res.edges)) == n - 1
    ncomp, _ = connected_components(csr_matrix(
        (np.ones(n - 1), (res.edges[:, 0], res.edges[:, 1])), shape=(n, n)),
        directed=False)
    assert ncomp == 1


class TestAdversarial:
    """Degenerate inputs: the contraction must keep a spanning tree
    whatever ties and zero-length edges the rounds meet."""

    def test_one_dimension(self, rng):
        X = rng.normal(size=(300, 1))
        res = emst(X)
        _assert_spanning(res, 300)
        # in 1-D the tree is the sorted chain
        assert res.total_weight == pytest.approx(float(X.max() - X.min()),
                                                 rel=1e-10)

    def test_collinear(self, rng):
        t = rng.normal(size=250)
        X = np.outer(t, [1.0, -2.0, 0.5])
        res = emst(X)
        _assert_spanning(res, 250)
        assert res.total_weight == pytest.approx(scipy_mst_weight(X),
                                                 rel=1e-10)

    def test_all_identical(self):
        X = np.full((90, 3), 1.5)
        res = emst(X)
        _assert_spanning(res, 90)
        assert res.total_weight == 0.0
        assert np.all(res.weights == 0.0)

    def test_duplicates_keep_their_zero_edges(self, rng):
        base = rng.normal(size=(40, 3))
        X = np.concatenate([base, base[:15], base[:5]])
        res = emst(X)
        _assert_spanning(res, len(X))
        # 20 duplicate points: 20 zero-length edges, the rest the MST of
        # the distinct points
        assert np.count_nonzero(res.weights == 0.0) == 20
        assert res.total_weight == pytest.approx(scipy_mst_weight(base),
                                                 rel=1e-10)

    def test_two_far_clusters(self, rng):
        A = rng.normal(size=(150, 3))
        B = rng.normal(size=(150, 3)) + 1e4
        X = np.concatenate([A, B])
        res = emst(X)
        _assert_spanning(res, 300)
        bridge = [w for (a, b), w in zip(res.edges, res.weights)
                  if (a < 150) != (b < 150)]
        assert len(bridge) == 1 and bridge[0] == res.weights[-1]
        assert res.total_weight == pytest.approx(scipy_mst_weight(X),
                                                 rel=1e-10)

    def test_grid_ties(self):
        X = np.stack(np.meshgrid(np.arange(12.0), np.arange(9.0)),
                     axis=-1).reshape(-1, 2)
        res = emst(X)
        _assert_spanning(res, len(X))
        assert np.all(res.weights == 1.0)


def complete_graph_mst_weight(X) -> float:
    """SciPy's MST over every pair, from the condensed distances without
    the square matrix (a third of its memory at 5 000 points)."""
    n = len(X)
    d = pdist(X)
    counts = np.arange(n - 1, -1, -1)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    cols = (np.arange(d.size) - np.repeat(indptr[:-1], counts)
            + np.repeat(np.arange(1, n + 1), counts))
    return float(minimum_spanning_tree(
        csr_matrix((d, cols, indptr), shape=(n, n))).sum())


class TestAgainstReferences:
    def test_scipy_dense_mst(self):
        X = np.random.default_rng(1000).normal(size=(1000, 3))
        assert emst(X).total_weight == pytest.approx(scipy_mst_weight(X),
                                                     rel=1e-10)

    @pytest.mark.slow
    def test_scipy_mst_5000(self):
        X = np.random.default_rng(5000).normal(size=(5000, 3))
        assert emst(X).total_weight == pytest.approx(
            complete_graph_mst_weight(X), rel=1e-10)

    def test_edge_set_matches_expert(self, rng):
        """With every pairwise distance distinct the minimum spanning
        tree is unique, so the tie rule leaves one edge set: the expert
        baseline's."""
        X = rng.normal(size=(600, 4))
        res = emst(X)
        edges, weights, total = expert_emst(X)
        assert _edge_set(res.edges) == _edge_set(edges)
        assert total == pytest.approx(res.total_weight, rel=1e-9)

    def test_tied_weights_match_expert(self):
        """Under ties the edge sets may differ; the sorted weights may
        not."""
        X = np.stack(np.meshgrid(np.arange(7.0), np.arange(7.0),
                                 np.arange(3.0)), axis=-1).reshape(-1, 3)
        res = emst(X)
        _, weights, _ = expert_emst(X)
        assert np.allclose(res.weights, weights, rtol=0, atol=1e-12)

    def test_expert_duplicates_weigh_zero(self):
        """The expert weighs each accepted edge in the difference form:
        the zero-length edges of duplicates are exactly 0.0, not the
        square root of the norm expansion's residue."""
        base = np.random.default_rng(50).normal(size=(50, 2))
        X = np.concatenate([base, base[:20]])
        _, weights, total = expert_emst(X)
        assert np.count_nonzero(weights == 0.0) == 20
        assert np.allclose(weights, emst(X).weights, rtol=0, atol=1e-12)
        assert total == pytest.approx(scipy_mst_weight(base), rel=1e-12)


def _labelled(X, labels=None, **options):
    """The Borůvka round's program over ``X``: ARGMIN under component
    labels, with every point's label rewritten to ``labels`` (original
    order) and the node ranges to match."""
    data = Storage(X, name="points")
    expr = PortalExpr("labelled")
    expr.addLayer(PortalOp.FORALL, data)
    expr.addLayer(PortalOp.ARGMIN, data, PortalFunc.EUCLIDEAN)
    expr.validate()
    program = compile_expr(expr, {"leaf_size": 8, **options}, labels=True)
    if labels is not None:
        tree, ops = program.qtree, program.bindings.arrays
        ops["QLABEL"][:] = labels[tree.perm]
        for i, (s, e) in enumerate(zip(tree.start, tree.end)):
            ops["lmin"][i] = ops["QLABEL"][s:e].min()
            ops["lmax"][i] = ops["QLABEL"][s:e].max()
    return program


class TestLabels:
    @pytest.mark.parametrize("traversal", ["batched", "stack"])
    def test_nearest_foreign_neighbour(self, rng, traversal):
        X = rng.normal(size=(400, 3))
        labels = rng.integers(0, 7, size=400)
        out = _labelled(X, labels, traversal=traversal).run()
        D = squareform(pdist(X))
        D[labels[:, None] == labels[None, :]] = np.inf
        assert np.array_equal(out.indices, D.argmin(axis=1))
        assert np.allclose(out.values, D.min(axis=1), rtol=1e-12, atol=0)

    def test_one_label_prunes_the_root_against_an_infinite_bound(self, rng):
        """A pair of nodes holding one label is pruned while its query
        bound is still +inf: the engine's ``key > bound`` test alone
        never prunes +inf against +inf."""
        program = _labelled(rng.normal(size=(300, 3)), np.zeros(300, int))
        out = program.run()
        assert program.stats.visited == program.stats.pruned == 1
        assert program.stats.base_cases == 0
        assert np.all(out.indices == -1) and np.all(out.values == np.inf)

    def test_the_label_flag_is_part_of_the_code_key(self, rng):
        """A labelled program never shares a code-cache entry with the
        plain self nearest-neighbour program of the same shape."""
        X = rng.normal(size=(200, 3))
        data = Storage(X, name="points")
        expr = PortalExpr("plain")
        expr.addLayer(PortalOp.FORALL, data)
        expr.addLayer(PortalOp.ARGMIN, data, PortalFunc.EUCLIDEAN)
        plain = expr.compile(leaf_size=8).generated_source()
        with collect() as c:
            labelled = _labelled(X).generated_source()
        assert c.get("cache.compile.miss") == 1
        assert "QLABEL" in labelled and "QLABEL" not in plain
        with collect() as c:
            _labelled(X)
        assert c.get("cache.compile.hit") == 1

    def test_labels_need_an_unsharded_self_join(self, rng):
        X = rng.normal(size=(100, 3))
        expr = PortalExpr("bichromatic")
        expr.addLayer(PortalOp.FORALL, Storage(X))
        expr.addLayer(PortalOp.ARGMIN, Storage(X + 1.0), PortalFunc.EUCLIDEAN)
        expr.validate()
        with pytest.raises(CompileError, match="labels"):
            compile_expr(expr, {}, labels=True)
        with pytest.raises(CompileError, match="labels"):
            _labelled(X, shards=2)
