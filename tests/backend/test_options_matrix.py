"""Coverage for the remaining execute()/compile() option combinations."""

import itertools

import numpy as np
import pytest

from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, SpecificationError, Storage,
)
from repro.baselines import brute

from tests.conftest import RETIRED_ENGINE
from tests.contract import assert_bitwise


@pytest.fixture
def rng():
    return np.random.default_rng(36)


def nn(rng, n=80, d=3):
    e = PortalExpr()
    e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(n, d)), name="q"))
    e.addLayer(PortalOp.ARGMIN, Storage(rng.normal(size=(n, d)), name="r"),
               PortalFunc.EUCLIDEAN)
    return e


class TestLayoutOverride:
    def test_bad_layout_rejected(self, rng):
        """There is one data layout: ``layout`` is an unknown option like
        any other, whatever its value."""
        for value in ("row", "column", "diagonal"):
            with pytest.raises(SpecificationError,
                               match=r"unknown execute\(\) options: \['layout'\]"):
                nn(rng).compile(layout=value)


class TestSplitOption:
    def test_bad_split_rejected(self, rng):
        """The kd split is the paper's median and the task decomposition
        is the host's: ``split`` and ``min_tasks`` are unknown options,
        whatever their value."""
        for name, value in (("split", "median"), ("split", "midpoint"),
                            ("min_tasks", 4)):
            with pytest.raises(SpecificationError,
                               match=rf"unknown execute\(\) options: "
                                     rf"\['{name}'\]"):
                nn(rng).execute(**{name: value})


class TestValidateAgainstBrute:
    def test_pruning_problem_exact(self, rng):
        e = nn(rng)
        e.execute()
        assert e.program.validate_against_brute() < 1e-10

    def test_approx_problem_within_tau(self, rng):
        rng2 = np.random.default_rng(2)
        X = rng2.uniform(0, 5, size=(200, 3))
        s = Storage(X)
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, s)
        e.addLayer(PortalOp.SUM, s, PortalFunc.GAUSSIAN, bandwidth=0.4)
        e.execute(tau=1e-3, exclude_self=False)
        assert e.program.validate_against_brute() <= 1e-3 * 200 + 1e-9

    def test_runs_before_output(self, rng):
        e = nn(rng)
        program = e.compile()
        # validate before run(): it must run the program itself.
        assert program.validate_against_brute() < 1e-10


class TestStatsAccounting:
    def test_counts_are_consistent(self, rng):
        e = nn(rng, n=300)
        e.execute()
        st = e.program.stats
        assert st.visited == st.pruned + st.approximated + st.base_cases + (
            st.visited - st.pruned - st.approximated - st.base_cases
        )
        assert st.base_case_pairs <= 300 * 300

    def test_brute_stats(self, rng):
        e = nn(rng, n=100)
        e.execute(backend="brute")
        assert e.program.stats.base_case_pairs == 100 * 100


class TestExecutorTraversalCodegenMatrix:
    """Joint ``executor × traversal × dimension`` sweep of the generated
    kernels (previously the dimensions were only tested pairwise): every
    cell must give the serial stack engine's ids and, bit for bit, its
    values.  The dimension axis spans d ≤ 4 and d > 4, where the paper
    would switch data layouts.  The full product is the slow tier; the
    fast tier keeps one representative cell per executor, engine and
    dimension.  The traversal axis carries the retired
    ``bounded-batched`` value as a stored policy entry still names it
    (``stored_traversal`` in ``tests/conftest.py``)."""

    TRAVERSALS = ("stack", "batched", RETIRED_ENGINE)
    EXECUTORS = ("serial", "thread", "process")
    DIMS = (3, 9)
    #: fast representatives: each executor, engine and dimension appears
    FAST_CELLS = (
        ("stack", "serial", 9),
        ("batched", "thread", 3),
        (RETIRED_ENGINE, "thread", 9),
        ("batched", "process", 9),
    )

    @staticmethod
    def _knn(dim):
        rng = np.random.default_rng(77)
        Q = rng.normal(size=(90, dim))
        R = rng.normal(size=(110, dim))

        def build():
            e = PortalExpr()
            e.addLayer(PortalOp.FORALL, Storage(Q, name="q"))
            e.addLayer((PortalOp.KARGMIN, 3), Storage(R, name="r"),
                       PortalFunc.EUCLIDEAN)
            return e

        return build

    @classmethod
    def _run(cls, build, traversal, executor, stored=None):
        kwargs = dict(traversal=traversal, leaf_size=16)
        if executor != "serial":
            kwargs.update(parallel=True, workers=2, executor=executor)
        if stored is not None:
            kwargs = stored(build, kwargs)
        return build().execute(**kwargs)

    def _check_cell(self, traversal, executor, dim, stored):
        build = self._knn(dim)
        ref = self._run(build, "stack", "serial")
        got = self._run(build, traversal, executor, stored)
        assert np.array_equal(np.asarray(got.indices),
                              np.asarray(ref.indices))
        assert_bitwise(got, ref)

    @pytest.mark.parametrize("traversal,executor,dim", FAST_CELLS)
    def test_matrix_fast(self, traversal, executor, dim, stored_traversal):
        self._check_cell(traversal, executor, dim, stored_traversal)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "traversal,executor,dim",
        list(itertools.product(TRAVERSALS, EXECUTORS, DIMS)),
    )
    def test_matrix_full(self, traversal, executor, dim, stored_traversal):
        self._check_cell(traversal, executor, dim, stored_traversal)


class TestMultilayerCLIIntrospection:
    def test_generated_source_placeholder(self, rng):
        from repro.dsl import Var, indicator, pow, sqrt

        X = Storage(rng.normal(size=(15, 2)))
        a, b, c = Var("a"), Var("b"), Var("c")
        k = (indicator(sqrt(pow(a - b, 2)) < 1.0)
             * indicator(sqrt(pow(b - c, 2)) < 1.0)
             * indicator(sqrt(pow(a - c, 2)) < 1.0))
        e = PortalExpr()
        e.addLayer(PortalOp.SUM, a, X)
        e.addLayer(PortalOp.SUM, b, X)
        e.addLayer(PortalOp.SUM, c, X, k)
        e.compile()
        assert "multi-layer" in e.generated_source()
        assert e.program.mode == "multilayer"
