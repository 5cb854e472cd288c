"""Differential tests: batched frontier engine vs the scalar stack engine.

The batched engine (``src/repro/traversal/batched.py``) classifies
statelessly, so its ``TraversalStats`` counters are *identical* to the
stack engine's on every program.  Its outputs fall under the output
contract (DESIGN.md; ``tests/contract.py``): a float SUM is added in
other groupings — one gathered base case per query leaf — and is held
to ``n·ε·Σ|term|`` of the stack engine's; integer-valued sums (range
count) stay bit-identical, and range-search lists, which
``State.finalize`` returns sorted, equal.  These tests pin that across
tree kinds for both prune-heavy (range search / count) and
approximation-heavy (KDE band, KDE multipole-acceptance)
configurations, plus the automatic routing of stateful bound rules to
the epoch-based bounded engine (``test_bounded_batched.py`` covers that
engine differentially; ``test_grouped_sum.py`` the grouped kernel for
every stateless output kind).
"""

import numpy as np
import pytest

from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, Storage, indicator, pow, sqrt, Var,
)
from repro.dsl.errors import SpecificationError
from repro.observe import collect
from repro.problems import knn, range_search

from tests.contract import assert_sum_close

TREES = ["kd", "ball", "octree"]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(20260806)
    Q = np.ascontiguousarray(rng.uniform(0.0, 6.0, size=(400, 3)))
    R = np.ascontiguousarray(rng.uniform(0.0, 6.0, size=(500, 3)))
    return Q, R


def _kde_expr(Q, R, bandwidth=0.8):
    expr = PortalExpr("kde-differential")
    expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    expr.addLayer(PortalOp.SUM, Storage(R, name="reference"),
                  PortalFunc.GAUSSIAN, bandwidth=bandwidth)
    return expr


def _range_count_expr(Q, R, h=1.0):
    q, r = Var("q"), Var("r")
    expr = PortalExpr("range-count-differential")
    expr.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
    expr.addLayer(PortalOp.SUM, r, Storage(R, name="reference"),
                  indicator(sqrt(pow(q - r, 2)) < h))
    return expr


def _run(expr_maker, **options):
    """Execute a freshly built expr; returns (values, traversal counters,
    engine)."""
    expr = expr_maker()
    with collect() as counters:
        out = expr.execute(**options)
    # frontier_peak is batched-only bookkeeping: drop it so counter
    # dictionaries stay directly comparable against the stack engine.
    trav = {k: v for k, v in counters.as_dict().items()
            if k.startswith("traversal.") and k != "traversal.frontier_peak"}
    return out, trav, expr.stats().get("traversal_engine")


class TestPruneHeavyDifferential:
    """Range count: indicator rule with a count action (pruning problem)."""

    @pytest.mark.parametrize("tree", TREES)
    def test_bitwise_outputs_and_counters(self, data, tree):
        Q, R = data
        maker = lambda: _range_count_expr(Q, R, h=1.2)
        stack, c_stack, e_stack = _run(maker, tree=tree, leaf_size=8, traversal="stack")
        batch, c_batch, e_batch = _run(maker, tree=tree, leaf_size=8, traversal="batched")
        assert e_stack == "stack" and e_batch == "batched"
        assert np.array_equal(np.asarray(stack.values),
                              np.asarray(batch.values))
        assert c_stack == c_batch
        assert c_stack["traversal.pruned"] > 0

    @pytest.mark.parametrize("tree", TREES)
    def test_range_search_lists_identical(self, data, tree):
        Q, R = data
        stack = range_search(Q, R, h=0.9, tree=tree, leaf_size=8, traversal="stack")
        batch = range_search(Q, R, h=0.9, tree=tree, leaf_size=8, traversal="batched")
        assert len(stack) == len(batch)
        for a, b in zip(stack, batch):
            assert np.array_equal(a, b)

    def test_self_search_excludes_self_identically(self, data):
        Q, _ = data
        stack = range_search(Q, h=0.9, leaf_size=8, traversal="stack")
        batch = range_search(Q, h=0.9, leaf_size=8, traversal="batched")
        for i, (a, b) in enumerate(zip(stack, batch)):
            assert np.array_equal(a, b)
            assert i not in a


class TestApproxHeavyDifferential:
    """KDE: approximation rule (band and multipole-acceptance criteria)."""

    @pytest.mark.parametrize("tree", TREES)
    def test_band_bitwise(self, data, tree):
        Q, R = data
        maker = lambda: _kde_expr(Q, R)
        stack, c_stack, _ = _run(maker, tree=tree, tau=1e-3,
                                 leaf_size=8, traversal="stack")
        batch, c_batch, e_batch = _run(maker, tree=tree, tau=1e-3,
                                       leaf_size=8, traversal="batched")
        assert e_batch == "batched"
        assert_sum_close(batch, stack, n=len(R))
        assert c_stack == c_batch
        assert c_stack["traversal.approximated"] > 0

    def test_mac_bitwise(self, data):
        Q, R = data
        maker = lambda: _kde_expr(Q, R)
        stack, c_stack, _ = _run(maker, criterion="mac", theta=0.6,
                                 leaf_size=8, traversal="stack")
        batch, c_batch, _ = _run(maker, criterion="mac", theta=0.6,
                                 leaf_size=8, traversal="batched")
        assert_sum_close(batch, stack, n=len(R))
        assert c_stack == c_batch
        assert c_stack["traversal.approximated"] > 0

    def test_weighted_band_bitwise(self, data):
        Q, R = data
        rng = np.random.default_rng(7)
        w = rng.uniform(0.5, 2.0, size=len(R))

        def maker():
            expr = PortalExpr("weighted-kde-differential")
            expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
            expr.addLayer(PortalOp.SUM,
                          Storage(R, weights=w, name="reference"),
                          PortalFunc.GAUSSIAN, bandwidth=0.8)
            return expr

        stack, c_stack, _ = _run(maker, tau=1e-3, leaf_size=8, traversal="stack")
        batch, c_batch, _ = _run(maker, tau=1e-3, leaf_size=8, traversal="batched")
        assert_sum_close(batch, stack, n=len(R))
        assert c_stack == c_batch


class TestEngineSelection:
    def test_bound_rule_routes_to_bounded_batched(self, data):
        """k-NN's bound rule reads mutable best values mid-traversal —
        the frontier engine routes it to the epoch-based bound-aware
        variant (and stays correct)."""
        Q, R = data
        qs = Storage(Q, name="query")
        rs = Storage(R, name="reference")
        expr = PortalExpr("knn-routing")
        expr.addLayer(PortalOp.FORALL, qs)
        expr.addLayer((PortalOp.KARGMIN, 3), rs, PortalFunc.EUCLIDEAN)
        expr.execute(traversal="batched")
        assert expr.stats()["traversal_engine"] == "bounded-batched"
        assert expr.stats()["bounded"]["epochs"] > 0
        d_tree, i_tree = knn(Q, R, k=3, traversal="batched")
        d_brute, i_brute = knn(Q, R, k=3, backend="brute")
        assert np.array_equal(i_tree, i_brute)

    def test_stack_override_still_honoured(self, data):
        """traversal='stack' forces the scalar engine even for bound
        rules — the escape hatch the routing table documents."""
        Q, R = data
        qs = Storage(Q, name="query")
        rs = Storage(R, name="reference")
        expr = PortalExpr("knn-stack-override")
        expr.addLayer(PortalOp.FORALL, qs)
        expr.addLayer((PortalOp.KARGMIN, 3), rs, PortalFunc.EUCLIDEAN)
        expr.execute(traversal="stack")
        assert expr.stats()["traversal_engine"] == "stack"

    def test_no_rule_runs_batched(self, data):
        """Without any rule the frontier engine still handles the plain
        recursion + base cases (classify_batch is None)."""
        Q, R = data
        maker = lambda: _kde_expr(Q, R)
        # tau=0 keeps the approximation rule from ever firing but the
        # rule still exists; compare against an exact brute reference.
        stack, c_stack, _ = _run(maker, tau=0.0, leaf_size=8, traversal="stack")
        batch, c_batch, _ = _run(maker, tau=0.0, leaf_size=8, traversal="batched")
        assert_sum_close(batch, stack, n=len(R))
        assert c_stack == c_batch

    def test_invalid_engine_rejected(self, data):
        Q, R = data
        with pytest.raises(SpecificationError, match="traversal"):
            _kde_expr(Q, R).execute(traversal="warp")

    def test_stats_report_engine(self, data):
        Q, R = data
        expr = _kde_expr(Q, R)
        expr.execute(traversal="batched")
        assert expr.stats()["traversal_engine"] == "batched"
        expr.execute(traversal="stack")
        assert expr.stats()["traversal_engine"] == "stack"


class TestParallelBatched:
    def test_parallel_batched_matches_parallel_stack(self, data):
        """Same pinned task decomposition → the same approximated node
        pairs and identical counters between the engines under
        parallel; the sums differ only in rounding."""
        Q, R = data
        maker = lambda: _kde_expr(Q, R)
        stack, c_stack, _ = _run(maker, tau=1e-3, leaf_size=8, parallel=True, workers=2,
                                 min_tasks=8, traversal="stack")
        batch, c_batch, _ = _run(maker, tau=1e-3, leaf_size=8, parallel=True, workers=2,
                                 min_tasks=8, traversal="batched")
        assert_sum_close(batch, stack, n=len(R))
        assert c_stack == c_batch

    def test_parallel_batched_matches_serial_batched(self, data):
        Q, R = data
        maker = lambda: _range_count_expr(Q, R, h=1.2)
        serial, _, _ = _run(maker, leaf_size=8, traversal="batched")
        par, _, _ = _run(maker, leaf_size=8, parallel=True, workers=2,
                         min_tasks=8, traversal="batched")
        # Counts are order-independent integers: exact equality.
        assert np.array_equal(np.asarray(serial.values),
                              np.asarray(par.values))
