"""Differential tests: the batched engine's stateless form vs the scalar
stack engine.

On a stateless program the batched engine
(``src/repro/traversal/bounded_batched.py``) classifies one whole level
per epoch, so its ``TraversalStats`` counters are *identical* to the
stack engine's on every program.  Its outputs fall under the output
contract (DESIGN.md; ``tests/contract.py``): a float SUM is added in
other groupings — one gathered base case per query leaf — and is held
to ``n·ε·Σ|term|`` of the stack engine's; integer-valued sums (range
count) stay bit-identical, and range-search lists, which
``State.finalize`` returns sorted, equal.  These tests pin that across
tree kinds for both prune-heavy (range search / count) and
approximation-heavy (KDE band, KDE multipole-acceptance)
configurations, plus the engine's choice of its bound form for stateful
bound rules (``test_bounded_batched.py`` covers that form
differentially; ``test_grouped_sum.py`` the grouped kernel for every
stateless output kind), the cut of the deferred base-case flush, and
the one ``stats()["bounded"]`` block both forms report.
"""

import numpy as np
import pytest

from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, Storage, indicator, pow, sqrt, Var,
)
from repro.dsl.errors import SpecificationError
from repro.observe import collect
from repro.problems import knn, range_search
from repro.traversal import bounded_batched, run_engine

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
    trav = {k: v for k, v in counters.as_dict().items()
            if k.startswith("traversal.")}
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
        its kernels carry ``bound_key_batch``, so the batched engine
        runs its bound-aware form (and stays correct)."""
        Q, R = data
        qs = Storage(Q, name="query")
        rs = Storage(R, name="reference")
        expr = PortalExpr("knn-routing")
        expr.addLayer(PortalOp.FORALL, qs)
        expr.addLayer((PortalOp.KARGMIN, 3), rs, PortalFunc.EUCLIDEAN)
        expr.execute(traversal="batched")
        assert expr.stats()["traversal_engine"] == "batched"
        assert expr.program.kernels.bound_key_batch is not None
        assert expr.stats()["bounded"]["bound_refreshes"] > 0
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
        # The retired engine value gets no shim (a bound rule's request:
        # test_bounded_batched.py::test_explicit_bounded_request).
        with pytest.raises(SpecificationError, match="traversal"):
            _kde_expr(Q, R).execute(traversal="bounded-batched")

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


def _range_search_expr(Q, R, h):
    q, r = Var("q"), Var("r")
    expr = PortalExpr("range-search-flush")
    expr.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
    expr.addLayer(PortalOp.UNIONARG, r, Storage(R, name="reference"),
                  indicator(sqrt(pow(q - r, 2)) < h))
    return expr


class TestFlushCut:
    """A stateless traversal defers every base case to one flush, cut
    at query-leaf boundaries into slices of at most ``epoch_size`` leaf
    pairs.  A cut never splits a query leaf, so it moves no bit."""

    @staticmethod
    def _run(prog, **hooks):
        prog.state.reset()
        with collect() as counters:
            run_engine("batched", prog.qtree, prog.rtree, prog.kernels,
                       **hooks)
        out = prog.state.finalize(prog.qtree.perm, prog.rtree.perm)
        trav = {k: v for k, v in counters.as_dict().items()
                if k.startswith("traversal.")}
        return out, trav

    @pytest.mark.parametrize("program", ["kde", "unionarg"])
    def test_cut_flush_is_bitwise_the_default(self, data, program,
                                              monkeypatch):
        Q, R = data
        # Narrow kernels, so some query leaves meet few reference leaves
        # and a slice can hold several of them.
        if program == "kde":
            expr, options = _kde_expr(Q, R, bandwidth=0.2), {"tau": 1e-2}
        else:
            expr, options = _range_search_expr(Q, R, h=0.3), {}
        prog = expr.compile(leaf_size=8, cache=False, **options)
        whole, c_whole = self._run(prog)

        slices = []
        real_cuts = bounded_batched._flush_cuts

        def spy(bq, width):
            cuts = real_cuts(bq, width)
            slices.extend(bq[a:b] for a, b in zip(cuts[:-1], cuts[1:]))
            return cuts

        monkeypatch.setattr(bounded_batched, "_flush_cuts", spy)
        cut, c_cut = self._run(prog, epoch_size=8)

        assert c_cut == c_whole
        if program == "kde":
            assert np.asarray(cut.values).tobytes() == \
                np.asarray(whole.values).tobytes()
        else:
            assert len(cut.indices) == len(whole.indices)
            for a, b in zip(cut.indices, whole.indices):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        # Slices of several query leaves and slices of one leaf alone.
        assert any(np.unique(s).size > 1 for s in slices)
        ends = [s[-1] for s in slices[:-1]]
        starts = [s[0] for s in slices[1:]]
        assert all(e != s for e, s in zip(ends, starts))  # whole leaves
        for s in slices:
            assert s.size <= 8 or np.unique(s).size == 1
        assert sum(s.size for s in slices) == c_whole["traversal.base_cases"]

    def test_cuts_fall_between_query_leaves(self):
        bq = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 3])
        assert bounded_batched._flush_cuts(bq, 4) == [0, 3, 5, 11, 12]
        assert bounded_batched._flush_cuts(bq, 64) == [0, 12]


class TestBoundedStats:
    @pytest.mark.parametrize("bound", [False, True],
                             ids=["stateless", "bound"])
    def test_both_rule_kinds_report_the_epoch_loop(self, data, bound):
        """One loop serves both rule kinds, so both report
        ``stats()["bounded"]``; the node-pair counters still add up."""
        Q, R = data
        if bound:
            expr = PortalExpr("knn-epochs")
            expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
            expr.addLayer((PortalOp.KARGMIN, 3),
                          Storage(R, name="reference"), PortalFunc.EUCLIDEAN)
            expr.execute(leaf_size=8)
        else:
            expr = _kde_expr(Q, R)
            expr.execute(tau=1e-3, leaf_size=8)
        stats = expr.stats()
        assert stats["bounded"]["epochs"] >= 1
        assert stats["bounded"]["pending_peak"] >= 1
        t = stats["traversal"]
        assert t["visited"] == (t["pruned"] + t["approximated"]
                                + t["recursions"] + t["base_cases"])
        if bound:
            assert stats["bounded"]["bound_refreshes"] >= 1
        else:
            assert t["approximated"] > 0
            assert stats["bounded"]["bound_refreshes"] == 0
