"""Tests for the vectorising code generator: emitted source structure and
compiled closure behaviour."""

import numpy as np
import pytest

from repro.backend.codegen import CodegenSpec, _value_lines, emit, generate
from repro.dsl.errors import CompileError
from repro.dsl.expr import BinOp, Const, Indicator
from repro.dsl.ops import PortalOp
from repro.ir.nodes import IRCall, SymRef
from repro.ir.strength_reduction import reduce_expr
from repro.rules.spec import RuleSpec


class TestEmitExpr:
    """The one expression emitter, :func:`codegen._value_lines`: one line
    per value of g, in the operator spelling, the last into ``v``."""

    def test_symref(self):
        assert _value_lines(SymRef("t"), "tv") == ([], "tv")

    def test_unbound_symref_rejected(self):
        with pytest.raises(CompileError, match="no binding for IR symbol"):
            _value_lines(SymRef("zz"))

    def test_binop(self):
        e = BinOp("*", SymRef("t"), Const(2.0))
        assert _value_lines(e) == (["v = (t * 2.0)"], "v")
        assert _value_lines(e, owned=True) == (
            ["v = np.multiply(t, 2.0, out=t)"], "v")

    def test_calls_map_to_numpy(self):
        t = SymRef("t")
        assert _value_lines(IRCall("sqrt", (t,)))[0] == ["v = np.sqrt(t)"]
        assert _value_lines(IRCall("pow", (t, Const(2.5))))[0] == [
            "v = np.power(t, 2.5)"]
        assert _value_lines(IRCall("pow", (t, t)))[0] == [
            "v = np.power(t, t)"]
        # The fast inverse square root is not an emitted function.
        with pytest.raises(CompileError, match="cannot emit IR function"):
            _value_lines(IRCall("fast_inverse_sqrt", (t,)))

    def test_indicator(self):
        e = Indicator("<", IRCall("sqrt", (SymRef("t"),)), Const(1.0))
        # the comparison is never written in place; its operand is
        assert _value_lines(e, owned=True)[0] == [
            "np.sqrt(t, out=t)", "v = np.multiply((t) < (1.0), 1.0)"]

    def test_unknown_call_rejected(self):
        with pytest.raises(CompileError, match="cannot emit IR function"):
            _value_lines(IRCall("mystery", ()))

    @pytest.mark.parametrize("g, spelt", [
        (IRCall("min", (SymRef("t"), Const(np.inf))),
         "v = np.minimum(t, np.inf)"),
        (IRCall("max", (SymRef("t"), Const(-np.inf))),
         "v = np.maximum(t, -np.inf)"),
        (BinOp("+", SymRef("t"), Const(np.nan)), "v = (t + np.nan)"),
    ])
    @pytest.mark.parametrize("owned", [False, True])
    def test_non_finite_constants_run(self, g, spelt, owned):
        """A constant whose ``repr`` is not an expression (``inf``,
        ``nan``) is spelt through ``np``, and the lines run bitwise
        ``g.evaluate``."""
        lines, name = _value_lines(g, owned=owned)
        if not owned:
            assert lines == [spelt]
        t = np.array([-np.inf, -1.5, 0.0, 2.0, np.inf, np.nan])
        env = {"np": np, "t": t.copy()}
        exec("\n".join(lines), env)
        want = np.asarray(g.evaluate({"t": t}))
        assert env[name].tobytes() == want.tobytes()


def _spec(**kw):
    defaults = dict(
        dim=3, base="sqeuclidean",
        g_ir=SymRef("t"), monotone="increasing",
        outer_op=PortalOp.FORALL, inner_op=PortalOp.SUM,
    )
    defaults.update(kw)
    return CodegenSpec(**defaults)


def _bindings(Q, R, state_arrays, **extra):
    b = dict(
        QROW=Q, RROW=R,
        K=1, H=0.0, TAU=0.0, THETA2=0.25, rw=None,
    )
    if "best" in state_arrays:
        # a comparative state keeps ids and a signed bound beside its
        # values, as allocate_state gives it
        shape = state_arrays["best"].shape
        b.update(best_idx=np.full(shape, -1), qbound=np.full(shape[0], np.inf))
    b.update(state_arrays)
    b.update(extra)
    return b


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestSourceStructure:
    @pytest.mark.parametrize("base", ["sqeuclidean", "manhattan",
                                      "chebyshev"])
    def test_distance_form_is_a_function_of_the_metric(self, base):
        """The emitted source does not depend on the dimensionality: the
        GEMM for a squared-Euclidean kernel, the difference form folded
        in dimension order otherwise."""
        sources = {emit(_spec(dim=dim, base=base))[0]
                   for dim in (1, 3, 4, 5, 9)}
        assert len(sources) == 1
        (source,) = sources
        assert ("_gemm_operands" in source) == (base == "sqeuclidean")
        assert ("for _c in range(1, " in source) == (base != "sqeuclidean")

    def test_row_layout_uses_gemm_norm_expansion(self, rng):
        Q = rng.normal(size=(8, 6))
        gk = generate(_spec(dim=6), _bindings(Q, Q, {"acc": np.zeros(8)}))
        assert "_gemm_operands(1.0)" in gk.source and "@" in gk.source
        assert "_d = " not in gk.source

    def test_row_layout_manhattan_uses_diff_tensor(self, rng):
        Q = rng.normal(size=(8, 6))
        R = rng.normal(size=(9, 6))
        acc = np.zeros(8)
        gk = generate(_spec(dim=6, base="manhattan"),
                      _bindings(Q, R, {"acc": acc}))
        assert "t += np.abs(_d)" in gk.source
        gk.base_case(0, 8, 0, 9)
        # folded in dimension order, bit for bit
        diff = np.abs(Q[:, None, :] - R[None, :, :])
        want = diff[:, :, 0].copy()
        for c in range(1, 6):
            want += diff[:, :, c]
        assert np.array_equal(acc, want.sum(axis=1))

    def test_strength_reduced_kernel_visible(self, rng):
        Q = rng.normal(size=(8, 3))
        g = reduce_expr(IRCall("pow", (SymRef("t"), Const(4.0))))
        gk = generate(_spec(g_ir=g, inner_op=PortalOp.MIN),
                      _bindings(Q, Q, {"best": np.full(8, np.inf)}))
        # pow(t, 4) as one shared square, multiplied by itself, both
        # evaluated into the distance buffer.
        assert "    np.multiply(t, t, out=t)\n" in gk.source
        assert "v = np.multiply(t, t, out=t)" in gk.source
        assert "np.power" not in gk.source

    def test_header_mentions_config(self, rng):
        Q = rng.normal(size=(8, 3))
        gk = generate(_spec(), _bindings(Q, Q, {"acc": np.zeros(8)}))
        assert "base=sqeuclidean" in gk.source
        assert "inner=SUM" in gk.source
        assert "layout" not in gk.source

    def test_prod_weighted_rejected(self, rng):
        Q = rng.normal(size=(8, 3))
        with pytest.raises(CompileError, match="PROD"):
            generate(_spec(inner_op=PortalOp.PROD, weighted=True),
                     _bindings(Q, Q, {"acc": np.ones(8)}))


class TestCompiledClosures:
    def test_sum_base_case(self, rng):
        Q = rng.normal(size=(8, 3))
        R = rng.normal(size=(9, 3))
        acc = np.zeros(8)
        gk = generate(_spec(), _bindings(Q, R, {"acc": acc}))
        gk.base_case(0, 8, 0, 9)
        d2 = ((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1)
        assert np.allclose(acc, d2.sum(axis=1))

    def test_weighted_sum(self, rng):
        Q = rng.normal(size=(6, 3))
        R = rng.normal(size=(7, 3))
        w = rng.uniform(1, 2, size=7)
        acc = np.zeros(6)
        gk = generate(_spec(weighted=True),
                      _bindings(Q, R, {"acc": acc}, rw=w))
        gk.base_case(0, 6, 0, 7)
        d2 = ((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1)
        assert np.allclose(acc, d2 @ w)

    def test_argmin_updates(self, rng):
        Q = rng.normal(size=(6, 3))
        R = rng.normal(size=(7, 3))
        best = np.full(6, np.inf)
        bidx = np.full(6, -1, dtype=np.int64)
        gk = generate(_spec(inner_op=PortalOp.ARGMIN),
                      _bindings(Q, R, {"best": best, "best_idx": bidx}))
        gk.base_case(0, 6, 0, 7)
        d2 = ((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1)
        assert np.allclose(best, d2.min(axis=1))
        assert np.array_equal(bidx, d2.argmin(axis=1))

    def test_exclude_self_diagonal(self, rng):
        Q = rng.normal(size=(5, 3))
        best = np.full(5, np.inf)
        bidx = np.full(5, -1, dtype=np.int64)
        gk = generate(
            _spec(inner_op=PortalOp.ARGMIN, same_tree=True, exclude_self=True),
            _bindings(Q, Q, {"best": best, "best_idx": bidx}),
        )
        gk.base_case(0, 5, 0, 5)
        assert np.all(bidx != np.arange(5))

    def test_kmin_sorted(self, rng):
        Q = rng.normal(size=(5, 3))
        R = rng.normal(size=(9, 3))
        best = np.full((5, 3), np.inf)
        bidx = np.full((5, 3), -1, dtype=np.int64)
        gk = generate(_spec(inner_op=PortalOp.KMIN),
                      dict(_bindings(Q, R, {"best": best, "best_idx": bidx}),
                           K=3))
        gk.base_case(0, 5, 0, 9)
        d2 = ((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1)
        assert np.allclose(best, np.sort(d2, axis=1)[:, :3])
        # a K-operator keeps its winners' ids too
        assert np.array_equal(bidx, np.argsort(d2, axis=1)[:, :3])

    def test_pair_dist_closures(self, rng):
        Q = rng.normal(size=(8, 3))
        rule = RuleSpec(kind="bound-min")
        qlo = Q.min(0)[None].repeat(1, 0)
        gk = generate(
            _spec(inner_op=PortalOp.MIN, rule=rule),
            _bindings(
                Q, Q, {"best": np.full(8, np.inf)},
                qlo=Q.min(0)[None], qhi=Q.max(0)[None],
                rlo=Q.min(0)[None], rhi=Q.max(0)[None],
                qstart=np.array([0]), qend=np.array([8]),
                rstart=np.array([0]), rend=np.array([8]),
            ),
        )
        assert gk.pair_min_dist(0, 0) == 0.0
        # the bound rule's one prune spelling is the batch key; the
        # stack engine calls it on one pair
        assert gk.bound_key_batch is not None
        assert "prune_or_approx" not in gk.source
