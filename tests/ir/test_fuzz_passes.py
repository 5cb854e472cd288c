"""Property-based differential fuzzing of the IR optimisation pipeline.

Seeded random well-typed Portal programs are lowered and run through
every subset of the toggleable optimisation passes (2^6 = 64 subsets)
with the structural verifier on.  For each (program, subset) case the
interpreter — which executes the optimised IR directly — agrees with the
vectorized backend to float tolerance, so no pass subset changes what a
program computes.  (The vectorized kernel does not depend on the passes
at all: no compile builds the IR; ``tests/backend/test_jit.py`` pins it.)

A separate leg runs each program's emitted kernels through the stack
and bound-aware engines and the brute-force backend against the default
configuration.

Generated kernels maintain a closure invariant: every subexpression is
finite and non-negative on all inputs, so no case can hit a numerical
domain error (``sqrt`` of a negative, division by zero, ``pow`` of a
negative base) and mask a real miscompile behind a NaN-vs-NaN match.

The fast tier runs 4 programs x 64 subsets = 256 cases; the slow tier
(``-m slow``) sweeps 32 programs x 64 subsets = 2048 cases.
"""

import itertools

import numpy as np
import pytest

from repro.dsl import (
    Const, Expr, PortalExpr, PortalFunc, PortalOp, Storage, Var, exp,
    indicator, pow, sqrt,
)
from repro.backend.cache import clear_caches
from repro.ir.passes import TOGGLEABLE_PASSES

from tests.backend.test_differential import (
    _assert_same, _extract, interpreted,
)

ALL_SUBSETS = [
    tuple(c)
    for n in range(len(TOGGLEABLE_PASSES) + 1)
    for c in itertools.combinations(TOGGLEABLE_PASSES, n)
]
assert len(ALL_SUBSETS) == 64


# -- random well-typed kernel expressions ------------------------------------

def _gen_kernel(rng):
    """A random kernel over Vars q, r; every subexpression is finite and
    non-negative for all real inputs (closure invariant, see module doc)."""
    q, r = Var("q"), Var("r")
    d2 = pow(q - r, 2)  # squared distance: the non-negative seed leaf

    def leaf():
        if rng.random() < 0.7:
            return d2
        return Const(float(rng.integers(1, 5)) / 2.0)

    def grow(depth):
        if depth <= 0:
            return leaf()
        op = rng.choice(
            ["add", "mul", "sqrt", "exp_neg", "pow_int", "shift_pow",
             "div_const", "indicator"]
        )
        if op == "add":
            return grow(depth - 1) + grow(depth - 1)
        if op == "mul":
            return grow(depth - 1) * grow(depth - 1)
        if op == "sqrt":
            return sqrt(grow(depth - 1))
        if op == "exp_neg":
            # exp(-x / c): bounded in (0, 1] for non-negative x.
            return exp(-(grow(depth - 1)) / float(rng.integers(2, 6)))
        if op == "pow_int":
            return pow(grow(depth - 1), float(rng.integers(2, 4)))
        if op == "shift_pow":
            # Plummer-style softening: (x + c)^-1/2 with c > 0.
            return pow(grow(depth - 1) + 0.25, -0.5)
        if op == "div_const":
            return grow(depth - 1) / float(rng.integers(1, 4))
        if op == "indicator":
            return indicator(grow(depth - 1) < float(rng.integers(1, 4)))
        raise AssertionError(op)

    k = grow(int(rng.integers(1, 4)))
    if not _depends_on_data(k):
        # An all-constant kernel exercises nothing; anchor it to the
        # squared distance (preserves the non-negativity invariant).
        k = k + d2
    return k


def _depends_on_data(e):
    if isinstance(e, Var):
        return True
    children = (getattr(e, a, None) for a in ("lhs", "rhs", "operand"))
    return any(isinstance(c, Expr) and _depends_on_data(c) for c in children)


_NAMED = [
    (PortalFunc.EUCLIDEAN, {}),
    (PortalFunc.GAUSSIAN, {"bandwidth": 0.9}),
]

_SHAPES = [
    (PortalOp.FORALL, PortalOp.SUM, "values"),
    (PortalOp.FORALL, PortalOp.MIN, "values"),
    (PortalOp.FORALL, PortalOp.MAX, "values"),
    (PortalOp.MAX, PortalOp.MIN, "scalar"),
    (PortalOp.SUM, PortalOp.SUM, "scalar"),
]


def make_fuzz_problem(seed):
    """Seeded random two-layer problem: ``(build, kind, opts)``, same
    contract as ``test_differential.make_problem``."""
    rng = np.random.default_rng(seed)
    nq, nr = int(rng.integers(6, 10)), int(rng.integers(7, 11))
    d = int(rng.integers(2, 4))
    Q, R = rng.normal(size=(nq, d)), rng.normal(size=(nr, d))
    outer, inner, kind = _SHAPES[int(rng.integers(0, len(_SHAPES)))]
    if rng.random() < 0.25:
        func, params = _NAMED[int(rng.integers(0, len(_NAMED)))]
    else:
        func, params = _gen_kernel(rng), {}
    opts = dict(params)
    if inner is PortalOp.SUM:
        opts["tau"] = 0.0

    def build():
        e = PortalExpr()
        q, r = Var("q"), Var("r")
        e.addLayer(outer, q, Storage(Q, name="query"))
        e.addLayer(inner, r, Storage(R, name="reference"), func, **opts)
        return e

    exec_opts = {"tau": 0.0} if inner is PortalOp.SUM else {}
    return build, kind, exec_opts


def _sweep(seed):
    """One fuzz case-family: a seeded program's IR interpreted under all
    64 pass subsets against the vectorized backend."""
    build, kind, opts = make_fuzz_problem(seed)
    ref = _extract(build().execute(backend="vectorized", **opts),
                   kind)
    for subset in ALL_SUBSETS:
        got = _extract(interpreted(build, opts, subset), kind)
        _assert_same(got, ref, kind)


FAST_SEEDS = [9001, 9002, 9003, 9004]
SLOW_SEEDS = [7000 + i for i in range(32)]


def _sweep_paths(seed):
    """Execution-path leg: every generated program's emitted kernels also
    run through the stack engine and the brute-force backend and must
    match the default reference (the prune rules and grouped kernels see
    arbitrary strength-reduced kernel trees here, not just the named
    problems' shapes).  The test names date from when this leg ran a
    second, native emitter."""
    build, kind, opts = make_fuzz_problem(seed)
    ref = _extract(build().execute(**opts), kind)
    for path in ({"traversal": "stack"}, {"backend": "brute"}):
        got = _extract(build().execute(**path, **opts), kind)
        _assert_same(got, ref, kind)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_fuzz_pass_subsets_fast(seed):
    _sweep(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_fuzz_pass_subsets_slow(seed):
    _sweep(seed)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_fuzz_native_backend_fast(seed):
    _sweep_paths(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_fuzz_native_backend_slow(seed):
    _sweep_paths(seed)


def test_generator_is_deterministic():
    # Same seed must build the same program, or failures wouldn't repro.
    b1, k1, o1 = make_fuzz_problem(1234)
    b2, k2, o2 = make_fuzz_problem(1234)
    assert (k1, o1) == (k2, o2)
    r1 = _extract(b1().execute(**o1), k1)
    clear_caches()
    r2 = _extract(b2().execute(**o2), k2)
    _assert_same(r1, r2, k1)


def test_generator_produces_varied_shapes():
    kinds = {make_fuzz_problem(s)[1] for s in range(40)}
    assert kinds == {"values", "scalar"}
