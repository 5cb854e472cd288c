"""Policy-routing differential battery: a policy-selected configuration
must compute exactly what the static default computes.

Nine problems × two trees.  Each combo runs once under the static
default, then again with a forged policy-cache entry forcing a
*different* valid configuration (rotating through the leaf sizes and
executors the search enumerates), and the
outputs are compared with the repo's differential discipline: exact for
indices/index lists/scalars, float tolerance for value arrays.  The
``ball`` column is the deleted tree kind, which every problem must
refuse.  A final case runs a real measured search end-to-end.
"""

import pytest

from repro.backend.jit import CompileOptions
from repro.policy import PolicyEntry, policy_key, policy_store

from tests.backend.test_differential import (
    _assert_same, _extract, make_problem,
)
from tests.conftest import REMOVED_TREE, assert_tree_refused

SEED = 101
# the Table IV problem set (two_point is the self-join oddity the
# serving battery also excludes)
NINE = ["knn", "nearest", "kde", "naive_bayes", "range_search",
        "range_count", "hausdorff", "em", "barnes_hut"]
TREES = ("kd", "octree")

#: forced configurations, rotated per problem and tree so every
#: executor / leaf size in the search space is exercised against the
#: default
FORCED = [
    {"executor": "serial", "leaf_size": 32},
    {"executor": "thread", "leaf_size": 128},
    {"executor": "process", "leaf_size": 16},
]


@pytest.mark.parametrize("tree", TREES + (REMOVED_TREE,))
@pytest.mark.parametrize("name", NINE)
def test_policy_config_matches_static(name, tree, policy_path):
    build, kind, base = make_problem(name, SEED)
    opts = dict(base, tree=tree)
    if tree == REMOVED_TREE:
        assert_tree_refused(build().execute, **opts)
        return

    ref_expr = build()
    ref = _extract(ref_expr.execute(**opts), kind)

    config = FORCED[(NINE.index(name) + TREES.index(tree)) % len(FORCED)]
    keyed = build()
    keyed.validate()
    key = policy_key(keyed.layers, CompileOptions.from_dict(dict(opts)))
    policy_store().put(key, PolicyEntry(config=dict(config)))

    expr = build()
    got = _extract(expr.execute(**opts, policy="auto"), kind)
    st = expr.stats()
    assert st["policy"]["source"] == "policy-cache"
    assert st["policy"]["applied"]  # the forced config really routed
    _assert_same(got, ref, kind)


def test_real_search_matches_static(policy_path):
    build, kind, base = make_problem("knn", SEED)
    ref = _extract(build().execute(**base), kind)
    expr = build()
    got = _extract(expr.execute(**base, policy="search"), kind)
    assert expr.stats()["policy"]["source"] == "fresh-search"
    _assert_same(got, ref, kind)
