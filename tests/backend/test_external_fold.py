"""External kernels fold through the emitted base case.

Every inner operator, with its kernel spelt once as an opaque callable
(``f(Q, R)`` or ``f(Q, R, qs, rs)``) and once as a metric kernel, must
give the same answer under the output contract (``tests/contract.py``):
the external program runs the same generated self-exclusion and fold as
the metric program's brute force, only the block of kernel values comes
from the callable.
"""

import numpy as np
import pytest

from contract import (
    assert_lists_equal, assert_ranked_equal, assert_sum_close,
)
from repro.dsl import (
    CompileError, PortalExpr, PortalFunc, PortalOp, Storage, Var, indicator,
    pow, sqrt,
)

H = 1.2


def _fold(Q, R, term):
    """The difference form, each coordinate's term summed in dimension
    order — the spelling of the emitted kernels' exact values."""
    t = term(Q[:, None, 0] - R[None, :, 0])
    for c in range(1, Q.shape[1]):
        t += term(Q[:, None, c] - R[None, :, c])
    return t


def _sqdist(Q, R):
    return _fold(Q, R, np.square)


#: kernel name → (the metric kernel's addLayer arguments, its keyword
#: parameters, the same kernel as a two-argument callable)
KERNELS = {
    "gaussian": ((PortalFunc.GAUSSIAN,), {"bandwidth": 1.0},
                 lambda Q, R: np.exp(-(_sqdist(Q, R) / 2.0))),
    "wide": ((PortalFunc.GAUSSIAN,), {"bandwidth": 4.0},
             lambda Q, R: np.exp(-(_sqdist(Q, R) / 32.0))),
    "euclidean": ((PortalFunc.EUCLIDEAN,), {},
                  lambda Q, R: np.sqrt(_sqdist(Q, R))),
    "ball": ((indicator(sqrt(pow(Var("q") - Var("r"), 2)) < H),), {},
             lambda Q, R: (_sqdist(Q, R) < H * H).astype(np.float64)),
    "manhattan": ((PortalFunc.MANHATTAN,), {},
                  lambda Q, R: _fold(Q, R, np.abs)),
}

#: operator → (k, kernel name, contract rule)
OPS = {
    PortalOp.SUM: (None, "gaussian", "sum"),
    PortalOp.PROD: (None, "wide", "sum"),
    PortalOp.MIN: (None, "euclidean", "ranked"),
    PortalOp.MAX: (None, "euclidean", "ranked"),
    PortalOp.ARGMIN: (None, "euclidean", "ranked"),
    PortalOp.ARGMAX: (None, "euclidean", "ranked"),
    PortalOp.KMIN: (3, "euclidean", "ranked"),
    PortalOp.KMAX: (3, "euclidean", "ranked"),
    PortalOp.KARGMIN: (3, "euclidean", "ranked"),
    PortalOp.KARGMAX: (3, "euclidean", "ranked"),
    PortalOp.UNION: (None, "ball", "lists"),
    PortalOp.UNIONARG: (None, "ball", "lists"),
    PortalOp.FORALL: (None, "manhattan", "cells"),
}


def _expr(op, q, r, kernel_args, params):
    k = OPS[op][0]
    expr = PortalExpr()
    expr.addLayer(PortalOp.FORALL, Var("q"), q)
    expr.addLayer((op, k) if k else op, Var("r"), r, *kernel_args, **params)
    return expr


def _external(name, arity):
    f = KERNELS[name][2]
    return f if arity == 2 else (lambda Q, R, qs, rs: f(Q, R))


def _run_pair(op, q, r, arity=2, **options):
    """(external output, metric brute-force output) of ``op`` over the
    storages ``q`` and ``r``."""
    args, params, _ = KERNELS[OPS[op][1]]
    ext = _expr(op, q, r, (_external(OPS[op][1], arity),), {})
    program = ext.compile(**options)
    assert program.mode == "brute"
    got = program.run()
    want = _expr(op, q, r, args, params).execute(backend="brute", **options)
    return got, want


def _assert_contract(op, got, want, nr):
    rule = OPS[op][2]
    if rule == "sum":
        assert_sum_close(got, want, n=nr)
    elif rule == "cells":
        assert_sum_close(got, want, n=1)
    elif rule == "lists":
        assert_lists_equal(
            *((got.indices, want.indices) if op is PortalOp.UNIONARG
              else (got.values, want.values)))
    else:
        assert_ranked_equal(got.values, want.values, got.indices,
                            want.indices)


@pytest.fixture
def data():
    rng = np.random.default_rng(52)
    return rng.normal(size=(37, 3)), rng.normal(size=(53, 3))


@pytest.mark.parametrize("arity", [2, 4])
@pytest.mark.parametrize("op", list(OPS), ids=lambda op: op.name)
def test_every_operator_matches_the_metric_kernel(data, op, arity):
    Q, R = data
    got, want = _run_pair(op, Storage(Q), Storage(R), arity)
    _assert_contract(op, got, want, len(R))


@pytest.mark.parametrize("exclude_self", [True, False])
@pytest.mark.parametrize("op", list(OPS), ids=lambda op: op.name)
def test_self_join(op, exclude_self):
    """One Storage on both sides, over 600 points: brute force's 512-row
    blocks put self pairs in the diagonal blocks only."""
    X = np.random.default_rng(7).normal(size=(600, 3))
    s = Storage(X)
    got, want = _run_pair(op, s, s, 4, exclude_self=exclude_self)
    _assert_contract(op, got, want, len(X))


def test_self_join_excludes_by_default():
    X = np.random.default_rng(8).normal(size=(40, 2))
    s = Storage(X)
    out = _expr(PortalOp.MIN, s, s, (KERNELS["euclidean"][2],), {}).execute()
    assert (out.values > 0).all()


def test_weighted_sum_is_k_at_w(data):
    Q, R = data
    w = np.random.default_rng(3).uniform(0.5, 3.0, len(R))
    f = KERNELS["gaussian"][2]
    r = Storage(R, weights=w)
    got = _expr(PortalOp.SUM, Storage(Q), r, (f,), {}).execute()
    np.testing.assert_allclose(got.values, f(Q, R) @ w, rtol=1e-13)
    args, params, _ = KERNELS["gaussian"]
    want = _expr(PortalOp.SUM, Storage(Q), r, args, params).execute(
        backend="brute")
    assert_sum_close(got, want, n=len(R))


def test_weighted_prod_raises(data):
    Q, R = data
    r = Storage(R, weights=np.ones(len(R)))
    args, params, f = KERNELS["wide"]
    for kernel_args, kw in (((f,), {}), (args, params)):
        expr = _expr(PortalOp.PROD, Storage(Q), r, kernel_args, kw)
        with pytest.raises(CompileError, match="weighted"):
            expr.compile(backend="brute")


def test_offsets_name_the_block():
    """A four-argument kernel is called with each block's first query
    and reference row."""
    rng = np.random.default_rng(9)
    Q, R = rng.normal(size=(700, 2)), rng.normal(size=(2100, 2))

    def ids(Qb, Rb, qs, rs):
        return ((qs + np.arange(len(Qb)))[:, None] * 10_000.0
                + (rs + np.arange(len(Rb)))[None, :])

    out = _expr(PortalOp.FORALL, Storage(Q), Storage(R), (ids,), {}).execute()
    want = np.arange(700)[:, None] * 10_000.0 + np.arange(2100)[None, :]
    np.testing.assert_array_equal(out.values, want)


def test_nan_follows_the_merge_rule():
    """Comparative operators fold through ``_merge``, so a NaN kernel
    value never enters the state: NaN sorts last.  ``argmin`` picks a
    row's NaN cell first, so a block whose pick is NaN selects again
    with its NaNs written over by the exclusion value, in the
    single-value and the K forms alike."""
    rng = np.random.default_rng(10)
    Q, R = rng.normal(size=(5, 2)), rng.normal(size=(8, 2))

    def f(Qb, Rb):
        v = _sqdist(Qb, Rb)
        v[:, 0] = np.nan
        return v

    q, r = Storage(Q), Storage(R)
    out = _expr(PortalOp.MIN, q, r, (f,), {}).execute()
    np.testing.assert_array_equal(out.values, _sqdist(Q, R)[:, 1:].min(1))
    out = _expr(PortalOp.KMIN, q, r, (f,), {}).execute()
    np.testing.assert_array_equal(out.values,
                                  np.sort(_sqdist(Q, R)[:, 1:])[:, :3])


@pytest.mark.parametrize("op", [PortalOp.MIN, PortalOp.ARGMIN,
                                PortalOp.MAX])
def test_nan_leaves_the_answer_to_the_block_cut(op):
    """A NaN in the first block must not cost its row that block: an
    external ``MIN`` over several brute-force blocks equals ``np.nanmin``
    of each row (``ARGMIN`` its ``np.nanargmin``, ``MAX`` ``np.nanmax``),
    not the minimum of the blocks after the NaN's."""
    rng = np.random.default_rng(11)
    Q, R = rng.normal(size=(40, 3)), rng.normal(size=(5000, 3))

    def f(Qb, Rb, qs, rs):
        v = _sqdist(Qb, Rb)
        if rs == 0:
            v[:, 0] = np.nan
        return v

    want = _sqdist(Q, R)
    want[:, 0] = np.nan
    out = _expr(op, Storage(Q), Storage(R), (f,), {}).execute()
    if op is PortalOp.ARGMIN:
        np.testing.assert_array_equal(out.indices, np.nanargmin(want, 1))
    elif op is PortalOp.MIN:
        np.testing.assert_array_equal(out.values, np.nanmin(want, 1))
    else:
        np.testing.assert_array_equal(out.values, np.nanmax(want, 1))


def test_generated_source_is_the_emitted_base_case(data):
    Q, R = data
    expr = _expr(PortalOp.KARGMIN, Storage(Q), Storage(R),
                 (KERNELS["euclidean"][2],), {})
    program = expr.compile()
    source = program.generated_source()
    assert "def base_case(qs, qe, rs, re):" in source
    assert "EXTERNAL(QROW[qs:qe], RROW[rs:re], qs, rs)" in source
    assert "_merge = _k_merge(best, best_idx, None, K, " in source
    assert program.cache_state is None  # an opaque callable is never cached
