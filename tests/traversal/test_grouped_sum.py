"""The grouped SUM base case: one gathered call per query leaf.

For SUM programs the batched engine applies approximation actions as it
classifies and then evaluates each query leaf once, against the gathered
points of all its base-case reference leaves
(``codegen._sum_group_source``, chunked to ``SUM_CHUNK_CELLS`` cells).
Against the stack engine, outputs are held to the output contract
(``tests/contract.py``), traversal counters are identical, and
integer-valued sums stay bit-identical.  The replay is left to the
outputs whose side effects depend on order.
"""

import numpy as np
import pytest

from repro.backend.codegen import SUM_CHUNK_CELLS, CodegenSpec, bind_kernels, emit
from repro.backend.layout import Layout
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.ir.nodes import SymRef
from repro.observe import collect
from repro.problems import range_count, range_search, two_point_correlation
from repro.traversal import batched

from tests.contract import (
    assert_bitwise, assert_lists_equal, assert_ranked_equal, assert_sum_close,
)

#: case → (dimension, weighted, one shared tree, shards)
CASES = {
    "column": (3, False, False, 1),
    "row": (6, False, False, 1),
    "weighted": (3, True, False, 1),
    "self": (3, False, True, 1),
    "shards2-self": (3, False, True, 2),
}


def _points(n, dim, seed):
    rng = np.random.default_rng(seed)
    return np.ascontiguousarray(rng.uniform(0.0, 5.0, size=(n, dim)))


def _traversal_counts(counters):
    return {k: v for k, v in counters.as_dict().items()
            if k.startswith("traversal.") and k != "traversal.frontier_peak"}


@pytest.fixture
def no_replay(monkeypatch):
    """Fail any call of the batched engine's stack-order replay."""
    def replay(*args):
        raise AssertionError("a SUM program replayed")
    monkeypatch.setattr(batched, "_replay", replay)


@pytest.mark.parametrize("case", CASES)
def test_kde_against_stack(case, no_replay):
    dim, weighted, shared, shards = CASES[case]
    R = _points(360, dim, 1)
    Q = R if shared else _points(300, dim, 2)
    w = np.random.default_rng(3).uniform(0.5, 2.0, len(R)) if weighted else None

    def run(traversal):
        rs = Storage(R, weights=w, name="reference")
        expr = PortalExpr(f"grouped-kde-{case}")
        expr.addLayer(PortalOp.FORALL, rs if shared else Storage(Q, name="query"))
        expr.addLayer(PortalOp.SUM, rs, PortalFunc.GAUSSIAN, bandwidth=0.8)
        with collect() as counters:
            out = expr.execute(tau=1e-3, leaf_size=8, exclude_self=shared,
                               shards=shards, traversal=traversal)
        return out, _traversal_counts(counters), expr.generated_source()

    stack, c_stack, _ = run("stack")
    grouped, c_grouped, source = run("batched")
    assert_sum_close(grouped, stack, n=len(R))
    assert c_grouped == c_stack
    assert c_stack["traversal.approximated"] > 0
    group = source[source.index("def base_case_group"):]
    assert ("RCOL[:, ridx]" in group) == (dim <= 4)
    assert ("rw[ridx]" in group) == weighted
    assert ("RSELF[ridx]" in group) == (shards > 1)


def _sum_kernels(dim, nq, nr, weighted, shared):
    """The SUM kernels of ``g(t) = t`` (the squared distance) over one
    shared or two random point sets, bound by hand."""
    spec = CodegenSpec(
        dim=dim, layout=Layout.COLUMN if dim <= 4 else Layout.ROW,
        base="sqeuclidean", g_ir=SymRef("t"), monotone="increasing",
        weighted=weighted, same_tree=shared, exclude_self=shared)
    R = _points(nr, dim, 4)
    Q = R if shared else _points(nq, dim, 5)
    arrays = dict(QROW=Q, QCOL=np.ascontiguousarray(Q.T), QN2=(Q * Q).sum(1),
                  RROW=R, RCOL=np.ascontiguousarray(R.T), RN2=(R * R).sum(1),
                  acc=np.zeros(len(Q)))
    if weighted:
        arrays["rw"] = np.random.default_rng(6).uniform(0.5, 2.0, nr)
    source, code = emit(spec)
    return bind_kernels(source, code, arrays), arrays["acc"]


@pytest.mark.parametrize("tail", [1, 7])
@pytest.mark.parametrize("dim,weighted,shared", [
    (3, False, False), (6, True, False), (3, False, True)])
def test_chunked_kernel_matches_leaf_base_cases(dim, weighted, shared, tail):
    """A gathered list of several chunks — ending in a one-column chunk
    or a short one — sums what per-leaf ``base_case`` calls sum."""
    qs, qe = 4, 9
    step = SUM_CHUNK_CELLS // (qe - qs)
    nr = 2 * step + tail
    kernels, acc = _sum_kernels(dim, 12, nr + 40, weighted, shared)
    # leaves [0, 20) [40, nr + 40) in two slices: a gap, and the query
    # rows inside the gathered list when the tree is shared
    leaves = [(0, 20), (40, 40 + nr - 20)]
    ridx = np.concatenate([np.arange(s, e) for s, e in leaves])
    assert ridx.size == 2 * step + tail
    kernels.base_case_group(qs, qe, ridx)
    grouped = acc.copy()
    acc[:] = 0.0
    for s, e in leaves:
        kernels.base_case(qs, qe, s, e)
    assert_sum_close(grouped, acc, n=ridx.size)
    assert grouped[qs:qe].min() > 0 and not grouped[:qs].any()


def test_integer_sums_bitwise(no_replay):
    """Range count and the two-point count are sums of exact small
    integers, whatever their grouping."""
    Q, R = _points(300, 3, 7), _points(360, 3, 8)
    for h in (0.6, 1.4):
        stack = range_count(Q, R, h=h, leaf_size=8, traversal="stack")
        assert_bitwise(range_count(Q, R, h=h, leaf_size=8), stack)
        assert_bitwise(range_count(R, h=h, leaf_size=8, shards=2),
                       range_count(R, h=h, leaf_size=8, traversal="stack"))
        assert (two_point_correlation(R, h, leaf_size=8)
                == two_point_correlation(R, h, leaf_size=8, traversal="stack"))


def test_list_outputs_still_replay(monkeypatch):
    calls = []
    replay = batched._replay
    monkeypatch.setattr(batched, "_replay",
                        lambda *a: calls.append(1) or replay(*a))
    Q, R = _points(200, 3, 9), _points(240, 3, 10)
    got = range_search(Q, R, h=0.9, leaf_size=8)
    assert calls
    assert_lists_equal(got, range_search(Q, R, h=0.9, leaf_size=8,
                                         traversal="stack"))


def test_contract_helper_catches_planted_errors():
    vals = np.array([[1.0, 2.0, 2.0], [0.5, 0.5, 3.0]])
    ids = np.array([[4, 7, 9], [1, 2, 5]])
    # rows reordered inside ties: at the k-th value, and before it
    assert_ranked_equal(vals, vals, np.array([[4, 9, 7], [2, 1, 5]]), ids)
    for bad_vals, bad_ids in [(vals + [[0, 0, 1e-12], [0, 0, 0]], ids),
                              (vals, np.array([[4, 7, 9], [1, 3, 5]]))]:
        with pytest.raises(AssertionError):
            assert_ranked_equal(bad_vals, vals, bad_ids, ids)
    s = np.array([10.0, 20.0])
    assert_sum_close(s * (1 + 100 * np.finfo(float).eps), s, n=1000)
    with pytest.raises(AssertionError):
        assert_sum_close(s * (1 + 1e-9), s, n=1000)
    assert_sum_close(s + 0.9, s, n=1000, tau=1e-3)
    with pytest.raises(AssertionError):
        assert_sum_close(s + 1.1, s, n=1000, tau=1e-3)
    with pytest.raises(AssertionError):
        assert_lists_equal([np.array([1, 2])], [np.array([1, 3])])
    with pytest.raises(AssertionError):
        assert_bitwise(np.array([0.0]), np.array([-0.0]))
