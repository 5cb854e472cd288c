"""The GEMM spelling's scale fold (``codegen._scale_fold``).

At every d a squared-Euclidean kernel that is not an indicator takes t
as one augmented GEMM (``_gemm_operands``).  When the kernel is
``h(a·t)`` — t once, inside one chain of negations and of products or
quotients by a constant — the GEMM's query operand carries ``a``, the
clamp takes ``a``'s sign and the block kernels apply ``h`` alone; the
generated header's ``scale=`` records ``a``.  Each kernel here runs the
batched engine, the stack engine and brute force against the
interpreter, which never takes the GEMM, under the output contract
(``tests/contract.py``).
"""

import numpy as np
import pytest

from repro.backend.codegen import _scale_fold, _value_lines
from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, Storage, Var, exp, indicator, pow, sqrt,
)
from repro.dsl.expr import BinOp, Call, Const, Neg
from repro.ir.nodes import SymRef
from repro.problems import kde

from tests.contract import assert_bitwise, assert_sum_close

T = SymRef("t")


@pytest.mark.parametrize("g,a,h", [
    (Call("exp", Neg(BinOp("/", T, Const(2.0)))), -0.5, "np.exp(t)"),
    (BinOp("/", Neg(T), Const(4.0)), -0.25, "t"),
    (BinOp("*", Const(3.0), T), 3.0, "t"),
    (BinOp("+", BinOp("*", T, Const(0.5)), Const(1.0)), 0.5, "(t + 1.0)"),
    (BinOp("*", Call("exp", Neg(BinOp("*", T, Const(2.0)))), Const(3.0)),
     -2.0, "(np.exp(t) * 3.0)"),
    (Call("sqrt", T), 1.0, "np.sqrt(t)"),
    (T, 1.0, "t"),
    # no fold: t twice, t as a divisor, a zero or infinite factor
    (BinOp("*", T, BinOp("*", T, Const(2.0))), 1.0, "(t * (t * 2.0))"),
    (BinOp("/", Const(2.0), T), 1.0, "(2.0 / t)"),
    (BinOp("*", T, Const(0.0)), 1.0, "(t * 0.0)"),
    (BinOp("/", T, Const(0.0)), 1.0, "(t / 0.0)"),
])
def test_scale_fold(g, a, h):
    """``h`` is the folded kernel spelt in NumPy by hand: it, the DSL's
    own evaluation of the fold's ``h`` and the emitted lines agree
    bitwise, owned (``out=``) and not."""
    got_a, got_h = _scale_fold(g)
    assert got_a == a
    t = np.random.default_rng(0).uniform(0.0, 30.0, (5, 7))
    with np.errstate(divide="ignore"):
        want = np.broadcast_to(got_h.evaluate({"t": t.copy()}), t.shape)
        assert_bitwise(np.broadcast_to(eval(h, {"np": np, "t": t.copy()}),
                                       t.shape), want)
        for owned in (False, True):
            ns = {"np": np, "t": t.copy()}
            lines, name = _value_lines(got_h, owned=owned)
            exec("\n".join(lines), ns)
            assert_bitwise(np.broadcast_to(ns[name], t.shape), want)


q, r = Var("q"), Var("r")
#: name → (kernel, header scale or None, the clamp, the kernel's v line:
#: h evaluated into t where t is not read again)
KERNELS = {
    "gaussian": (PortalFunc.GAUSSIAN, "-0.5", "np.minimum(t, 0.0, out=t)",
                 "v = np.exp(t, out=t)"),
    "cauchy": (1.0 / (1.0 + pow(q - r, 2) * 0.5), "0.5",
               "np.maximum(t, 0.0, out=t)", "v = np.divide(1.0, t, out=t)"),
    "t-twice": (exp(-pow(q - r, 2) / 2.0) * (1.0 + pow(q - r, 2)), "1.0",
                "np.maximum(t, 0.0, out=t)",
                "v = np.multiply(_t1, t, out=_t1)"),
    "indicator": (indicator(sqrt(pow(q - r, 2)) < 2.0), None, None, None),
}


def _points(n, dim, seed):
    rng = np.random.default_rng(seed)
    return np.ascontiguousarray(rng.uniform(0.0, 5.0, size=(n, dim)))


def _run(kernel, Q, R, **options):
    expr = PortalExpr("fold")
    expr.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
    if kernel is PortalFunc.GAUSSIAN:
        expr.addLayer(PortalOp.SUM, r, Storage(R, name="reference"), kernel,
                      bandwidth=1.0)
    else:
        expr.addLayer(PortalOp.SUM, r, Storage(R, name="reference"), kernel)
    out = expr.execute(tau=0.0, leaf_size=8, **options)
    return out, expr.generated_source()


@pytest.mark.parametrize("name", KERNELS)
def test_fold_fires_only_where_legal(name):
    kernel, scale, clamp, value = KERNELS[name]
    Q, R = _points(48, 6, 1), _points(64, 6, 2)
    want, _ = _run(kernel, Q, R, backend="interp")
    for options in ({}, {"traversal": "stack"}, {"backend": "brute"}):
        got, source = _run(kernel, Q, R, **options)
        header = source.splitlines()[2]
        if scale is None:   # an indicator keeps the difference form
            assert "scale=" not in header and "_gemm_operands" not in source
            assert_bitwise(got, want)
            continue
        assert header.endswith(f" scale={scale}")
        for kernel_fn in ("def base_case(", "def base_case_group"):
            body = source[source.index(kernel_fn):].split("\n\n")[0]
            assert f"_gemm_operands({scale})" in body
            assert clamp in body and value in body
        assert_sum_close(got, want, n=len(R))


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_low_dimensions_take_the_fold(dim):
    """The form is a function of the metric alone: at d ≤ 4 too a
    Gaussian sum takes the folded GEMM, within the sum rule of the
    interpreter's difference form."""
    Q, R = _points(60, dim, 3), _points(70, dim, 4)
    want, _ = _run(PortalFunc.GAUSSIAN, Q, R, backend="interp")
    for options in ({}, {"traversal": "stack"}, {"backend": "brute"}):
        got, source = _run(PortalFunc.GAUSSIAN, Q, R, **options)
        assert source.splitlines()[2].endswith(" scale=-0.5")
        assert_sum_close(got, want, n=len(R))


def test_folded_kernel_thread_process_bitwise():
    """A process worker re-binds the emitted code and rebuilds the GEMM
    operands about the same origin: one parallel plan gives the same
    bits on threads and processes."""
    Q, R = _points(300, 6, 5) + 50.0, _points(360, 6, 6) + 50.0
    par = dict(bandwidth=1.0, tau=1e-3, leaf_size=8, parallel=True,
               workers=2)
    assert_bitwise(kde(Q, R, executor="thread", **par),
                   kde(Q, R, executor="process", **par))
