"""Counter-identity tests for the traversal observability layer.

Every dual-tree traversal classifies each visited node pair exactly one
way — pruned, approximated, recursed, or leaf base case — so the stats
must satisfy ``visited == pruned + approximated + recursions +
base_cases`` on every tree type and problem class.  The same numbers
must surface through the :mod:`repro.observe` counters registry.
"""

import numpy as np
import pytest

from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, Storage, Var, indicator, pow, sqrt,
)
from repro.observe import collect

from tests.conftest import REMOVED_TREE, assert_tree_refused

TREES = ["kd", "octree"]


@pytest.fixture
def qr():
    rng = np.random.default_rng(77)
    return (rng.uniform(0, 10, size=(400, 3)),
            rng.uniform(0, 10, size=(450, 3)))


def _knn(Q, R):
    e = PortalExpr()
    e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    e.addLayer(PortalOp.ARGMIN, Storage(R, name="reference"),
               PortalFunc.EUCLIDEAN)
    return e, {}


def _range_search(Q, R):
    q, r = Var("q"), Var("r")
    e = PortalExpr()
    e.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
    e.addLayer(PortalOp.UNIONARG, r, Storage(R, name="reference"),
               indicator(sqrt(pow(q - r, 2)) < 1.2))
    return e, {}


def _kde(Q, R):
    e = PortalExpr()
    e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    e.addLayer(PortalOp.SUM, Storage(R, name="reference"),
               PortalFunc.GAUSSIAN, bandwidth=0.5)
    return e, {"tau": 1e-3}


BUILDERS = {"knn": _knn, "range_search": _range_search, "kde": _kde}


def _check_identity(st):
    assert st.visited == (st.pruned + st.approximated + st.recursions
                          + st.base_cases)
    assert st.visited > 0
    assert st.base_cases > 0


@pytest.mark.parametrize("tree", TREES + [REMOVED_TREE])
@pytest.mark.parametrize("problem", sorted(BUILDERS))
def test_identity_holds(problem, tree, qr):
    Q, R = qr
    expr, opts = BUILDERS[problem](Q, R)
    if tree == REMOVED_TREE:
        assert_tree_refused(expr.execute, tree=tree, **opts)
        return
    with collect() as counters:
        expr.execute(tree=tree, **opts)
    st = expr.program.stats
    _check_identity(st)
    # The observe registry mirrors the per-run stats exactly.
    for key in ("visited", "pruned", "approximated", "recursions",
                "base_cases", "base_case_pairs"):
        assert counters.get(f"traversal.{key}") == getattr(st, key), key


@pytest.mark.parametrize("problem", sorted(BUILDERS))
def test_brute_force_never_prunes(problem, qr):
    Q, R = qr
    expr, opts = BUILDERS[problem](Q, R)
    with collect() as counters:
        expr.execute(backend="brute", **opts)
    st = expr.program.stats
    assert st.pruned == 0
    assert st.approximated == 0
    assert st.base_case_pairs == len(Q) * len(R)
    assert counters.get("traversal.pruned") == 0
    assert counters.get("traversal.base_case_pairs") == len(Q) * len(R)


def test_pruning_problem_actually_prunes(qr):
    Q, R = qr
    expr, opts = BUILDERS["knn"](Q, R)
    expr.execute(leaf_size=8, **opts)
    st = expr.program.stats
    _check_identity(st)
    assert st.pruned > 0
    assert 0.0 < st.prune_rate < 1.0
    assert st.base_case_pairs < len(Q) * len(R)


def test_approximation_problem_approximates(qr):
    Q, R = qr
    # A narrow-bandwidth KDE collapses far node pairs to their centroid
    # contribution (the kernel band is below tau on both ends).
    e = PortalExpr()
    e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    e.addLayer(PortalOp.SUM, Storage(R, name="reference"),
               PortalFunc.GAUSSIAN, bandwidth=0.5)
    e.execute(tau=1e-3, leaf_size=8)
    st = e.program.stats
    _check_identity(st)
    assert st.approximated > 0
    assert st.approx_rate > 0.0


def test_stats_as_dict_round_trip(qr):
    Q, R = qr
    expr, opts = BUILDERS["knn"](Q, R)
    expr.execute(**opts)
    d = expr.program.stats.as_dict()
    assert d["visited"] == expr.program.stats.visited
    assert set(d) == {"visited", "pruned", "approximated", "recursions",
                      "base_cases", "base_case_pairs"}
