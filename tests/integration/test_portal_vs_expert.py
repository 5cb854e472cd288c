"""Integration: compiler-generated code and hand-optimised expert code
compute identical answers on every Table-IV problem (the correctness half
of the Table-IV comparison; the benchmark harness measures the times)."""

import numpy as np
import pytest

from repro.baselines.expert import (
    expert_emst, expert_hausdorff, expert_kde, expert_knn,
    expert_range_count,
)
from repro.data import load
from repro.problems import (
    directed_hausdorff, emst, kde, knn, range_count,
)


@pytest.fixture(scope="module")
def datasets():
    return {name: load(name, 800, seed=3)
            for name in ("Yahoo!", "IHEPC", "HIGGS")}


class TestEquivalence:
    @pytest.mark.parametrize("name", ["Yahoo!", "IHEPC", "HIGGS"])
    def test_knn(self, datasets, name):
        X = datasets[name]
        Q, R = X[:300], X[300:]
        d_p, _ = knn(Q, R, k=5)
        d_e, _ = expert_knn(Q, R, k=5)
        assert np.allclose(d_p, d_e, atol=1e-6)

    @pytest.mark.parametrize("name", ["Yahoo!", "IHEPC"])
    def test_kde_exact(self, datasets, name):
        X = datasets[name]
        Q, R = X[:300], X[300:]
        bw = float(np.std(R)) * 2
        p = kde(Q, R, bandwidth=bw, tau=0.0)
        e = expert_kde(Q, R, bandwidth=bw, tau=0.0)
        assert np.allclose(p, e, rtol=1e-9)

    @pytest.mark.parametrize("name", ["Yahoo!", "IHEPC"])
    def test_range_count(self, datasets, name):
        X = datasets[name]
        Q, R = X[:300], X[300:]
        h = float(np.std(R)) * 1.5
        assert np.array_equal(range_count(Q, R, h=h),
                              expert_range_count(Q, R, h=h))

    def test_hausdorff(self, datasets):
        X = datasets["IHEPC"]
        A, B = X[:400], X[400:]
        assert directed_hausdorff(A, B) == pytest.approx(
            expert_hausdorff(A, B), abs=1e-6
        )

    def test_emst(self, datasets):
        X = datasets["Yahoo!"][:400]
        res = emst(X)
        _, _, total = expert_emst(X)
        assert res.total_weight == pytest.approx(total, rel=1e-9)


class TestBackendAgreement:
    """All three execution paths (tree, brute, parallel tree) agree."""

    def test_three_ways_knn(self, datasets):
        X = datasets["HIGGS"]
        Q, R = X[:200], X[200:600]
        d_tree, _ = knn(Q, R, k=3)
        d_brute, _ = knn(Q, R, k=3, backend="brute")
        d_par, _ = knn(Q, R, k=3, parallel=True, workers=3)
        assert np.allclose(d_tree, d_brute)
        assert np.allclose(d_tree, d_par)

    def test_tree_types_agree(self, datasets):
        X = datasets["IHEPC"]
        Q, R = X[:200, :3], X[200:600, :3]  # octrees need d <= 3
        d_kd, _ = knn(Q, R, k=2, tree="kd")
        d_oct, _ = knn(Q, R, k=2, tree="octree")
        assert np.allclose(d_kd, d_oct)
