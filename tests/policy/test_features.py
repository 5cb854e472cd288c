"""Policy-key feature extraction: the class digest must group runs that
behave alike and separate runs that don't."""

import pytest

from repro.backend.jit import CompileOptions
from repro.policy import PolicyKey, policy_key, size_bucket

from tests.backend.test_differential import make_problem
from tests.conftest import REMOVED_TREE, assert_tree_refused

SEED = 101


def _layers(name, **opts):
    build, _, base = make_problem(name, SEED)
    expr = build()
    expr.validate()
    return expr.layers, CompileOptions.from_dict({**base, **opts})


class TestSizeBucket:
    def test_log2_buckets(self):
        assert size_bucket(0) == 0
        assert size_bucket(1) == 0
        assert size_bucket(2) == 1
        assert size_bucket(1024) == 10
        # within a bucket: engine trade-offs are stable
        assert size_bucket(1500) == 10
        assert size_bucket(2048) == 11


class TestKeyString:
    def test_roundtrip(self):
        layers, opts = _layers("knn")
        key = policy_key(layers, opts)
        assert PolicyKey.from_str(key.as_str()) == key

    def test_roundtrip_without_k(self):
        layers, opts = _layers("kde")
        key = policy_key(layers, opts)
        assert key.k is None
        assert PolicyKey.from_str(key.as_str()) == key


class TestProgramClass:
    def test_parameter_values_abstracted(self):
        # kde and naive_bayes are the same program at different
        # bandwidths: one tuned decision must serve both.
        a, opts_a = _layers("kde")
        b, opts_b = _layers("naive_bayes")
        assert policy_key(a, opts_a) == policy_key(b, opts_b)

    def test_different_problems_never_share(self):
        knn, o1 = _layers("knn")
        kde, o2 = _layers("kde")
        assert (policy_key(knn, o1).program_class
                != policy_key(kde, o2).program_class)

    def test_bound_vs_stateless_separated(self):
        # nearest (MIN, bound-rule) vs range_count (SUM over an
        # indicator): different traversal engines, different classes.
        near, o1 = _layers("nearest")
        cnt, o2 = _layers("range_count")
        assert (policy_key(near, o1).program_class
                != policy_key(cnt, o2).program_class)

    def test_approximation_separates(self):
        exact, o1 = _layers("kde")
        approx_layers, o2 = _layers("kde", tau=1e-3)
        assert (policy_key(exact, o1).program_class
                != policy_key(approx_layers, o2).program_class)


class TestKeyDimensions:
    @pytest.mark.parametrize("tree", ["kd", "octree", REMOVED_TREE])
    def test_tree_kind_in_key(self, tree):
        if tree == REMOVED_TREE:
            # no options, hence no key, can name the deleted kind
            assert_tree_refused(_layers, "knn", tree=tree)
            return
        layers, opts = _layers("knn", tree=tree)
        assert policy_key(layers, opts).tree == tree

    def test_nq_override_rebuckets(self):
        layers, opts = _layers("knn")
        base = policy_key(layers, opts)
        warm = policy_key(layers, opts, nq=4096)
        assert warm.nq_bucket == 12
        assert warm.nq_bucket != base.nq_bucket
        assert warm.program_class == base.program_class
