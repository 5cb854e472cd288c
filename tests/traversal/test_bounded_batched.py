"""Differential tests: the batched engine's bound form vs the scalar
stack engine.

For a bound rule the batched engine
(``src/repro/traversal/bounded_batched.py``) classifies best-first
epochs against a bound snapshot.  Its contract is the output contract
for comparative reductions (DESIGN.md §8) — a stale snapshot can only
under-prune, never mis-prune — with pruning work equivalent-or-better
than the stack engine's nearest-first order.  These tests pin that
contract for the bound-rule problems (k-NN, directed Hausdorff, k-NN
regression, a bound-max furthest-point query) across tree kinds and all
three execution modes, plus the form selection and counter surfaces.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.dsl.errors import SpecificationError
from repro.observe import collect
from repro.problems import directed_hausdorff, knn, knn_regress
from repro.traversal import engines
from repro.traversal.bounded_batched import RAMP_START, DEFAULT_EPOCH_SIZE

from tests.conftest import REMOVED_TREE, RETIRED_ENGINE, assert_tree_refused

TREES = ["kd", "octree"]
PAR = {"parallel": True, "workers": 2}
MODES = {
    "serial": {},
    "thread": dict(PAR, executor="thread"),
    "process": dict(PAR, executor="process"),
}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    Q = np.ascontiguousarray(rng.uniform(0.0, 6.0, size=(400, 3)))
    R = np.ascontiguousarray(rng.uniform(0.0, 6.0, size=(500, 3)))
    return Q, R


def _pairs(counters):
    return counters.as_dict().get("traversal.base_case_pairs", 0)


def _run(fn, **options):
    clear_caches()
    with collect() as counters:
        out = fn(**options)
    return out, counters


class TestDifferential:
    @pytest.mark.parametrize("tree", TREES + [REMOVED_TREE])
    def test_knn_matches_stack(self, data, tree):
        Q, R = data
        if tree == REMOVED_TREE:
            assert_tree_refused(knn, query=Q, reference=R, k=5, tree=tree,
                                leaf_size=16)
            return
        (sd, si), c_stack = _run(knn, query=Q, reference=R, k=5,
                                 tree=tree, leaf_size=16, traversal="stack")
        (bd, bi), c_bound = _run(knn, query=Q, reference=R, k=5,
                                 tree=tree, leaf_size=16, traversal="batched")
        assert np.array_equal(sd, bd)
        assert np.array_equal(si, bi)
        assert _pairs(c_bound) <= _pairs(c_stack)

    @pytest.mark.parametrize("tree", TREES + [REMOVED_TREE])
    def test_hausdorff_matches_stack(self, data, tree):
        Q, R = data
        if tree == REMOVED_TREE:
            assert_tree_refused(directed_hausdorff, A=Q, B=R, tree=tree,
                                leaf_size=16)
            return
        s, c_stack = _run(directed_hausdorff, A=Q, B=R,
                          tree=tree, leaf_size=16, traversal="stack")
        b, c_bound = _run(directed_hausdorff, A=Q, B=R,
                          tree=tree, leaf_size=16, traversal="batched")
        assert s == b
        assert _pairs(c_bound) <= _pairs(c_stack)

    @pytest.mark.parametrize("mode", list(MODES))
    def test_knn_across_executors(self, data, mode):
        Q, R = data
        (sd, si), _ = _run(knn, query=Q, reference=R, k=5,
                           traversal="stack", **MODES[mode])
        (bd, bi), _ = _run(knn, query=Q, reference=R, k=5,
                           traversal="batched", **MODES[mode])
        assert np.array_equal(sd, bd)
        assert np.array_equal(si, bi)

    @pytest.mark.parametrize("mode", list(MODES))
    def test_hausdorff_across_executors(self, data, mode):
        Q, R = data
        s, _ = _run(directed_hausdorff, A=Q, B=R, traversal="stack",
                    **MODES[mode])
        b, _ = _run(directed_hausdorff, A=Q, B=R, traversal="batched",
                    **MODES[mode])
        assert s == b

    def test_knn_regress_matches_stack(self, data):
        Q, R = data
        y = np.arange(len(R), dtype=float)
        s, _ = _run(knn_regress, X_train=R, y_train=y, X_test=Q, k=3,
                    traversal="stack")
        b, _ = _run(knn_regress, X_train=R, y_train=y, X_test=Q, k=3,
                    traversal="batched")
        assert np.array_equal(np.asarray(s), np.asarray(b))

    def test_self_exclusion_knn(self, data):
        """Single-set k-NN excludes self-pairs inside the blocked base
        case (the np.copyto exclusion path in base_case_blocks)."""
        Q, _ = data
        (sd, si), _ = _run(knn, query=Q, k=4, traversal="stack")
        (bd, bi), _ = _run(knn, query=Q, k=4, traversal="batched")
        assert np.array_equal(sd, bd)
        assert np.array_equal(si, bi)
        assert not np.any(bi == np.arange(len(Q))[:, None])

    def test_k1_argmin_path(self, data):
        """k=1 lowers to plain ARGMIN — the scalar-best kernel variant."""
        Q, R = data
        (sd, si), _ = _run(knn, query=Q, reference=R, k=1, traversal="stack")
        (bd, bi), _ = _run(knn, query=Q, reference=R, k=1,
                           traversal="batched")
        assert np.array_equal(sd, bd)
        assert np.array_equal(si, bi)


def _furthest_expr(Q, R, k=3, op=PortalOp.KARGMAX):
    """Furthest-point query: KARGMAX + EUCLIDEAN lowers to a bound-max
    rule (prune when the pair's *max* distance cannot beat the k-th
    furthest so far) — the mirrored sign convention.  ``op`` swaps in
    another K-operator (KMAX, or KARGMIN/KMIN for the bound-min side)."""
    expr = PortalExpr("furthest-points")
    expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    expr.addLayer((op, k), Storage(R, name="reference"),
                  PortalFunc.EUCLIDEAN)
    return expr


K_OPS = [PortalOp.KARGMIN, PortalOp.KMIN, PortalOp.KARGMAX, PortalOp.KMAX]


class TestBoundMax:
    def test_furthest_matches_stack(self, data):
        Q, R = data
        clear_caches()
        s = _furthest_expr(Q, R).execute(traversal="stack")
        clear_caches()
        b = _furthest_expr(Q, R).execute(traversal="batched")
        assert np.array_equal(np.asarray(s.values), np.asarray(b.values))
        assert np.array_equal(np.asarray(s.indices), np.asarray(b.indices))

    @pytest.mark.parametrize("options", [{}, {"shards": 2}],
                             ids=["default", "shards2"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("op", K_OPS, ids=lambda op: op.name)
    def test_k_ops_match_stack(self, data, op, k, options):
        """Every K-operator, both bound signs, against the stack engine.
        A K-operator keeps an ``(n, K)`` best array even at ``K = 1``, so
        the grouped base case refreshes ``qbound`` from its last column by
        operator kind, not by ``k > 1``."""
        Q, R = data
        clear_caches()
        s = _furthest_expr(Q, R, k, op).execute(traversal="stack")
        clear_caches()
        b = _furthest_expr(Q, R, k, op).execute(**options)
        assert np.array_equal(np.asarray(s.values), np.asarray(b.values))
        if s.indices is not None:
            assert np.array_equal(np.asarray(s.indices),
                                  np.asarray(b.indices))

    def test_stack_prunes_through_the_bound_key(self, data, monkeypatch):
        """The stack engine decides each popped pair of a bound-max rule
        with the batched engine's ``bound_key_batch`` on that one pair
        (the signed key against the max of ``qbound`` over the query
        node's slice): one key per visited pair, far pairs prune, and
        the answer is the batched engine's."""
        Q, R = data
        keys = []
        stack = engines.ENGINES["stack"]

        def spied(qtree, rtree, kk, **kw):
            def key(qis, ris):
                keys.append(len(qis))
                return kk.bound_key_batch(qis, ris)
            return stack(qtree, rtree,
                         dataclasses.replace(kk, bound_key_batch=key), **kw)

        monkeypatch.setitem(engines.ENGINES, "stack", spied)
        clear_caches()
        with collect() as counters:
            s = _furthest_expr(Q, R, 4).execute(traversal="stack",
                                                leaf_size=8)
        snap = counters.as_dict()
        assert snap["traversal.pruned"] > 0
        assert keys == [1] * snap["traversal.visited"]
        clear_caches()
        b = _furthest_expr(Q, R, 4).execute(leaf_size=8)
        assert np.array_equal(np.asarray(s.values), np.asarray(b.values))
        assert np.array_equal(np.asarray(s.indices), np.asarray(b.indices))

    def test_furthest_routes_bounded(self, data):
        Q, R = data
        clear_caches()
        expr = _furthest_expr(Q, R)
        expr.execute(traversal="batched")
        assert expr.stats()["traversal_engine"] == "batched"
        assert expr.program.kernels.bound_key_batch is not None


class TestRoutingAndCounters:
    def test_knn_reports_bounded_engine(self, data):
        Q, R = data
        clear_caches()
        expr = PortalExpr("knn-stats")
        expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        expr.addLayer((PortalOp.KARGMIN, 5), Storage(R, name="reference"),
                      PortalFunc.EUCLIDEAN)
        expr.execute(traversal="batched")
        stats = expr.stats()
        assert stats["traversal_engine"] == "batched"
        assert expr.program.kernels.bound_key_batch is not None
        bounded = stats["bounded"]
        assert set(bounded) >= {"epochs", "deferred_prunes",
                                "bound_refreshes", "pending_peak"}
        assert bounded["epochs"] >= 1
        assert bounded["bound_refreshes"] >= 1
        assert bounded["pending_peak"] >= 1

    def test_explicit_bounded_request(self, data):
        """The retired ``"bounded-batched"`` value is no engine, even for
        the bound rule it used to name: no shim; ``"batched"`` is the
        request that runs the bound form."""
        Q, R = data
        clear_caches()
        with pytest.raises(SpecificationError, match="traversal"):
            knn(Q, R, k=5, traversal="bounded-batched")
        (bd, bi), _ = _run(knn, query=Q, reference=R, k=5,
                           traversal="batched")
        (sd, si), _ = _run(knn, query=Q, reference=R, k=5, traversal="stack")
        assert np.array_equal(sd, bd)

    def test_bounded_request_on_stateless_degrades_to_batched(
            self, data, stored_traversal):
        """The retired value can still sit in a stored policy entry,
        which routes no engine: a stateless program runs the batched
        engine's stateless form by the static rule."""
        Q, R = data

        def build():
            expr = PortalExpr("kde-degrade")
            expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
            expr.addLayer(PortalOp.SUM, Storage(R, name="reference"),
                          PortalFunc.GAUSSIAN, bandwidth=0.8)
            return expr

        expr = build()
        expr.execute(**stored_traversal(build, {"traversal": RETIRED_ENGINE}))
        assert expr.stats()["plan"]["engine"] == {"value": "batched",
                                                  "source": "static"}
        assert expr.program.kernels.bound_key_batch is None

    def test_bounded_counters_observable(self, data):
        Q, R = data
        _, counters = _run(knn, query=Q, reference=R, k=5, leaf_size=16,
                           traversal="batched")
        snap = counters.as_dict()
        assert snap.get("bounded.epochs", 0) >= 1
        assert snap.get("bounded.bound_refreshes", 0) >= 1
        assert snap.get("traversal.pruned", 0) > 0

    def test_ramp_constants_sane(self):
        assert 1 <= RAMP_START <= DEFAULT_EPOCH_SIZE

    def test_qbound_monotone_conservative(self, data):
        """The engine's safety argument: every reported k-th neighbour
        distance is a valid upper bound on the query's true k-th
        distance, and pruning never loses a neighbour (already asserted
        bitwise above) — spot-check against brute force."""
        Q, R = data
        clear_caches()
        (bd, bi), _ = _run(knn, query=Q, reference=R, k=5,
                           traversal="batched")
        (brd, bri), _ = _run(knn, query=Q, reference=R, k=5,
                             backend="brute")
        assert np.allclose(bd, brd)
        assert np.array_equal(bi, bri)
