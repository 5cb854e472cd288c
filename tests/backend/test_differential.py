"""Differential tests: interpreter backend vs vectorized NumPy codegen.

Every paper problem's Portal program runs through both backends on seeded
random inputs; the scalar IR interpreter and the generated NumPy code are
independent implementations of the same IR semantics, so they must agree
to float tolerance.  The same harness re-runs with each toggleable IR
optimisation pass disabled individually — an optimisation pass may never
change what a program computes.
"""

import numpy as np
import pytest

from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, Storage, Var, indicator, pow, sqrt,
)
from repro.ir.passes import TOGGLEABLE_PASSES

SEEDS = [101, 202]


def _data(seed, nq=28, nr=33, d=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(nq, d)), rng.normal(size=(nr, d))


def _two_layer(Q, R, outer, inner, func, **params):
    e = PortalExpr()
    e.addLayer(outer, Storage(Q, name="query"))
    e.addLayer(inner, Storage(R, name="reference"), func, **params)
    return e


def make_problem(name, seed):
    """Return ``(build, kind, opts)``: a fresh-expression factory, the
    output kind, and execute() options shared by both backends."""
    Q, R = _data(seed)
    q, r = Var("q"), Var("r")

    if name == "knn":
        def build():
            return _two_layer(Q, R, PortalOp.FORALL, (PortalOp.KARGMIN, 3),
                              PortalFunc.EUCLIDEAN)
        return build, "indices", {}
    if name == "nearest":  # the EMST component-step primitive
        def build():
            return _two_layer(Q, R, PortalOp.FORALL, PortalOp.MIN,
                              PortalFunc.EUCLIDEAN)
        return build, "values", {}
    if name == "kde":
        def build():
            return _two_layer(Q, R, PortalOp.FORALL, PortalOp.SUM,
                              PortalFunc.GAUSSIAN, bandwidth=0.9)
        return build, "values", {"tau": 0.0}
    if name == "naive_bayes":  # per-class Gaussian score = KDE at bandwidth σ
        def build():
            return _two_layer(Q, R, PortalOp.FORALL, PortalOp.SUM,
                              PortalFunc.GAUSSIAN, bandwidth=1.7)
        return build, "values", {"tau": 0.0}
    if name == "range_search":
        def build():
            e = PortalExpr()
            e.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
            e.addLayer(PortalOp.UNIONARG, r, Storage(R, name="reference"),
                       indicator(sqrt(pow(q - r, 2)) < 1.4))
            return e
        return build, "lists", {}
    if name == "range_count":
        def build():
            e = PortalExpr()
            e.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
            e.addLayer(PortalOp.SUM, r, Storage(R, name="reference"),
                       indicator(sqrt(pow(q - r, 2)) < 1.4))
            return e
        return build, "values", {}
    if name == "hausdorff":
        def build():
            return _two_layer(Q, R, PortalOp.MAX, PortalOp.MIN,
                              PortalFunc.EUCLIDEAN)
        return build, "scalar", {}
    if name == "two_point":
        def build():
            e = PortalExpr()
            data = Storage(Q, name="data")
            e.addLayer(PortalOp.SUM, q, data)
            e.addLayer(PortalOp.SUM, r, data,
                       indicator(sqrt(pow(q - r, 2)) < 1.1))
            return e
        # The interpreter never excludes self-pairs; pin the vectorized
        # side to the same convention.
        return build, "scalar", {"exclude_self": False}
    if name == "em":  # the E-step component-assignment primitive
        cov = np.diag([1.0, 2.0, 0.5])

        def build():
            return _two_layer(Q, R, PortalOp.FORALL, PortalOp.MIN,
                              PortalFunc.MAHALANOBIS, covariance=cov)
        return build, "values", {}
    if name == "barnes_hut":  # Plummer-softened inverse distance
        def build():
            e = PortalExpr()
            e.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
            e.addLayer(PortalOp.SUM, r, Storage(R, name="reference"),
                       pow(pow(q - r, 2) + 0.25, -0.5))
            return e
        return build, "values", {"tau": 0.0}
    raise AssertionError(f"unknown problem {name}")


PROBLEMS = ["knn", "nearest", "kde", "naive_bayes", "range_search",
            "range_count", "hausdorff", "two_point", "em", "barnes_hut"]


def _extract(out, kind):
    if kind == "values":
        return np.asarray(out.values, dtype=np.float64)
    if kind == "indices":
        return np.asarray(out.indices)
    if kind == "scalar":
        return out.scalar
    if kind == "lists":
        return [np.sort(np.asarray(v)) for v in out.indices]
    raise AssertionError(kind)


def _assert_same(got, ref, kind):
    if kind == "lists":
        assert len(got) == len(ref)
        for g, e in zip(got, ref):
            assert np.array_equal(g, e)
    elif kind == "scalar":
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)
    elif kind == "indices":
        assert np.array_equal(got, ref)
    else:
        np.testing.assert_allclose(got, ref, rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PROBLEMS)
def test_interp_matches_codegen(name, seed):
    build, kind, opts = make_problem(name, seed)
    ref = _extract(
        build().execute(backend="vectorized", **opts), kind)
    got = _extract(
        build().execute(backend="interp", **opts), kind)
    _assert_same(got, ref, kind)


@pytest.mark.parametrize("disabled", TOGGLEABLE_PASSES)
@pytest.mark.parametrize("name", ["kde", "range_count", "hausdorff"])
def test_pass_toggle_preserves_semantics(name, disabled):
    build, kind, opts = make_problem(name, SEEDS[0])
    ref = _extract(build().execute(**opts), kind)
    for backend in ("vectorized", "interp"):
        got = _extract(
            build().execute(backend=backend,
                            disable_passes=(disabled,), **opts), kind)
        _assert_same(got, ref, kind)


def test_all_passes_disabled_together():
    build, kind, opts = make_problem("kde", SEEDS[1])
    ref = _extract(build().execute(**opts), kind)
    got = _extract(
        build().execute(disable_passes=TOGGLEABLE_PASSES,
                        **opts), kind)
    _assert_same(got, ref, kind)
