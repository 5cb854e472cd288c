"""Cross-backend differential suite: ``native`` codegen vs the NumPy
reference.

The NumPy backend is the differential reference every other codegen
backend is held to.  Each paper problem runs twice — once per backend —
over every tree kind, traversal engine and executor, and the outputs
must agree to the same tolerances the interp-vs-vectorized suite uses:
indices exactly, values to float tolerance (the native scalar loops
reduce sequentially where NumPy reduces pairwise, and for row-major
high-dimensional data the NumPy side's GEMM norm expansion differs by
ulps — the row-GEMM caveat of docs/performance.md; the fixed d=3 harness
data takes the bitwise column-major path on both sides).

The native leg is guaranteed to exercise the native *emitter* on every
host: with numba installed the kernels JIT for real; without it the
fixture sets ``REPRO_NATIVE_JIT=python`` so the emitted loop nests run
as plain Python — the same generated code minus compilation.  Without
that, a numba-less host would silently fall back to NumPy kernels and
the suite would compare NumPy with itself (a no-op); the marker
assertions below pin the native section's presence.

Fast tier: all problems x 2 seeds on the default configuration, plus a
representative executor/engine subset.  Slow tier (``-m slow``): the
full problems x kd/ball/octree x stack/batched/bounded-batched x
serial/thread/process product.
"""

import itertools
import os

import numpy as np
import pytest

from repro.backend.native import NATIVE_MARKER, native_available

from tests.backend.test_differential import (
    PROBLEMS, SEEDS, _assert_same, _extract, make_problem,
)

TREES = ("kd", "ball", "octree")
ENGINES = ("stack", "batched", "bounded-batched")
EXECUTORS = ("serial", "thread", "process")


@pytest.fixture(scope="module", autouse=True)
def _native_leg():
    if native_available():
        yield
        return
    os.environ["REPRO_NATIVE_JIT"] = "python"
    try:
        yield
    finally:
        os.environ.pop("REPRO_NATIVE_JIT", None)


def _run_opts(opts, tree="kd", engine="batched", executor="serial"):
    run = dict(opts, tree=tree, traversal=engine)
    if executor != "serial":
        # min_tasks pins the decomposition so outputs are bit-stable
        # across worker counts (and across the two backends).
        run.update(parallel=True, workers=2, min_tasks=4, executor=executor)
    return run


def _compare(name, seed, **config):
    build, kind, opts = make_problem(name, seed)
    run = _run_opts(opts, **config)
    ref = _extract(build().execute(codegen="numpy", **run), kind)
    got = _extract(build().execute(codegen="native", **run), kind)
    _assert_same(got, ref, kind)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PROBLEMS)
def test_native_matches_numpy(name, seed):
    _compare(name, seed)


@pytest.mark.parametrize("engine", ENGINES)
def test_native_matches_numpy_across_engines(engine):
    for name in ("knn", "kde", "hausdorff"):
        _compare(name, SEEDS[0], engine=engine)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_native_matches_numpy_parallel(executor):
    for name in ("knn", "kde"):
        _compare(name, SEEDS[0], executor=executor)


@pytest.mark.parametrize("tree", TREES)
def test_native_matches_numpy_across_trees(tree):
    for name in ("knn", "barnes_hut"):
        _compare(name, SEEDS[0], tree=tree)


@pytest.mark.slow
@pytest.mark.parametrize(
    "tree,engine,executor", list(itertools.product(TREES, ENGINES, EXECUTORS))
)
@pytest.mark.parametrize("name", PROBLEMS)
def test_native_matches_numpy_full_matrix(name, tree, engine, executor):
    _compare(name, SEEDS[0], tree=tree, engine=engine, executor=executor)


# -- harness self-checks: the native leg really is native --------------------

def test_native_section_emitted():
    """A supported problem compiled under the native backend must carry
    the native kernel section — proof the suite above is not comparing
    NumPy with itself."""
    build, kind, opts = make_problem("kde", SEEDS[0])
    e = build()
    e.execute(codegen="native", cache=False, **opts)
    assert NATIVE_MARKER in e.generated_source()
    assert e.stats()["codegen"] == "native"


def test_unsupported_problem_runs_on_numpy_kernels():
    """UNIONARG (range_search) has no scalar lowering: the native
    artifact is the NumPy one, marked as a fallback, and still correct
    (asserted differentially above)."""
    build, kind, opts = make_problem("range_search", SEEDS[0])
    e = build()
    e.execute(codegen="native", cache=False, **opts)
    assert NATIVE_MARKER not in e.generated_source()
    assert "native backend: numpy fallback" in e.generated_source()


def test_numpy_requests_stay_numpy():
    build, kind, opts = make_problem("kde", SEEDS[0])
    e = build()
    e.execute(codegen="numpy", cache=False, **opts)
    assert NATIVE_MARKER not in e.generated_source()
    assert e.stats()["codegen"] == "numpy"


def test_outputs_identical_where_bitwise_expected():
    """On d=3 column-major data the per-pair base distances are computed
    in the same order by both backends; order-based reductions (k-NN
    indices *and* values) must then be bitwise equal, not just close."""
    build, kind, opts = make_problem("nearest", SEEDS[0])
    ref = build().execute(codegen="numpy", cache=False, **opts)
    got = build().execute(codegen="native", cache=False, **opts)
    assert np.array_equal(np.asarray(got.values), np.asarray(ref.values))
