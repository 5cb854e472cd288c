"""The grouped base case: one gathered call per query leaf, for every
stateless program.

The batched engine applies approximation and inside actions as it
classifies, then evaluates each query leaf once, against the gathered
points of all its base-case reference leaves
(``codegen._base_case_group_source``, chunked to ``CHUNK_CELLS``
cells): sums, products, lists and merges over an indicator kernel
alike.  Against the stack engine, outputs are held to the output
contract (``tests/contract.py``), traversal counters are identical, and
integer-valued sums and lists stay exact.  The engine never calls the
per-leaf-pair ``base_case``.
"""

import dataclasses

import numpy as np
import pytest

from repro.backend.codegen import CHUNK_CELLS, CodegenSpec, bind_kernels, emit
from repro.data.synthetic import ihepc
from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, Storage, Var, exp, indicator, pow, sqrt,
)
from repro.dsl.expr import BinOp, Call, Const, Indicator, Neg
from repro.ir.nodes import SymRef
from repro.observe import collect
from repro.problems import knn, range_count, two_point_correlation
from repro.traversal import engines

from tests.conftest import REMOVED_TREE, assert_tree_refused
from tests.contract import (
    assert_bitwise, assert_lists_equal, assert_ranked_equal, assert_sum_close,
)

TREES = ["kd", "octree"]

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
            if k.startswith("traversal.")}


@pytest.fixture
def no_leaf_base_case(monkeypatch):
    """Run the batched engine with a kernel set whose per-leaf-pair
    ``base_case`` fails; yields the list its runs are counted in."""
    runs = []
    batched = engines.ENGINES["batched"]

    def refuse(*args):
        raise AssertionError("the batched engine called base_case")

    def guarded(qtree, rtree, kk, **kw):
        runs.append(1)
        return batched(qtree, rtree, dataclasses.replace(kk, base_case=refuse),
                       **kw)

    monkeypatch.setitem(engines.ENGINES, "batched", guarded)
    return runs


@pytest.mark.parametrize("case", CASES)
def test_kde_against_stack(case, no_leaf_base_case):
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
    assert no_leaf_base_case
    assert_sum_close(grouped, stack, n=len(R))
    assert c_grouped == c_stack
    assert c_stack["traversal.approximated"] > 0
    group = source[source.index("def base_case_group"):]
    assert "_gemm_operands(" in group   # at every d
    assert ("rw[ridx]" in group) == weighted
    assert ("RLABEL[ridx]" in group) == (shards > 1)


# -- the formerly replayed kinds ----------------------------------------------
#: kind → (inner operator, one shared tree, shards).  Lists and merges run
#: over an indicator kernel; the product over a Gaussian whose values
#: stay in (0, 1] at τ = 0.
KINDS = {
    "unionarg": (PortalOp.UNIONARG, False, 1),
    "unionarg-self": (PortalOp.UNIONARG, True, 1),
    "unionarg-shards2": (PortalOp.UNIONARG, True, 2),
    "union": (PortalOp.UNION, False, 1),
    "prod": (PortalOp.PROD, False, 1),
    "min": (PortalOp.MIN, False, 1),
    "argmin": (PortalOp.ARGMIN, False, 1),
    "kargmin": ((PortalOp.KARGMIN, 3), False, 1),
}


def _kind_expr(kind, Q, R):
    op, shared, _ = KINDS[kind]
    q, r = Var("q"), Var("r")
    rs = Storage(R, name="reference")
    expr = PortalExpr(f"grouped-{kind}")
    expr.addLayer(PortalOp.FORALL, q, rs if shared else Storage(Q, name="query"))
    if op is PortalOp.PROD:
        expr.addLayer(op, r, rs, exp(-pow(q - r, 2) / 400.0))
    else:
        expr.addLayer(op, r, rs, indicator(sqrt(pow(q - r, 2)) < 0.9))
    return expr


def _run_kind(kind, Q, R, **options):
    _, shared, shards = KINDS[kind]
    expr = _kind_expr(kind, Q, R)
    with collect() as counters:
        out = expr.execute(tau=0.0, leaf_size=8, exclude_self=shared,
                           shards=shards, **options)
    return out, _traversal_counts(counters)


def _assert_kind_contract(kind, got, want, n):
    op = KINDS[kind][0]
    if op in (PortalOp.UNIONARG, PortalOp.UNION):
        lists = "indices" if op is PortalOp.UNIONARG else "values"
        got, want = getattr(got, lists), getattr(want, lists)
        assert_lists_equal(got, want)
    elif op is PortalOp.PROD:
        assert_sum_close(got, want, n=n)
    else:
        assert_ranked_equal(got.values, want.values, got.indices, want.indices)


@pytest.mark.parametrize("tree", TREES + [REMOVED_TREE])
@pytest.mark.parametrize("kind", KINDS)
def test_stateless_kinds_against_stack(kind, tree, no_leaf_base_case):
    """Every formerly replayed output kind, through the grouped base
    case, meets the contract against the stack engine, with identical
    traversal counters — and no per-leaf-pair ``base_case`` call."""
    Q, R = _points(300, 3, 11), _points(360, 3, 12)
    if tree == REMOVED_TREE:
        assert_tree_refused(_run_kind, kind, Q, R, tree=tree)
        return
    stack, c_stack = _run_kind(kind, Q, R, tree=tree, traversal="stack")
    assert not no_leaf_base_case
    grouped, c_grouped = _run_kind(kind, Q, R, tree=tree)
    assert no_leaf_base_case
    _assert_kind_contract(kind, grouped, stack, n=len(R))
    assert c_grouped == c_stack
    assert c_stack["traversal.base_cases"] > 0
    if KINDS[kind][0] is PortalOp.PROD:
        # a product of factors in (0, 1], approximated pairs included
        # (at τ = 0 the octree still approximates its one-point leaves)
        assert (0.0 < stack.values).all() and (stack.values <= 1.0).all()
    else:
        assert c_stack["traversal.pruned"] > 0


@pytest.mark.parametrize("kind", ["unionarg-self", "prod", "kargmin"])
def test_thread_process_bitwise(kind):
    """One parallel plan gives the same bits on threads and processes."""
    Q, R = _points(300, 3, 13), _points(360, 3, 14)
    par = dict(parallel=True, workers=2)
    thread, _ = _run_kind(kind, Q, R, executor="thread", **par)
    process, _ = _run_kind(kind, Q, R, executor="process", **par)
    if KINDS[kind][0] is PortalOp.UNIONARG:
        for a, b in zip(thread.indices, process.indices):
            assert_bitwise(a, b)
    else:
        assert_bitwise(thread, process)
        if thread.indices is not None:
            assert_bitwise(thread.indices, process.indices)


# -- the kernel, called directly ----------------------------------------------
#: g(t) for each operator: the squared distance summed, a slowly decaying
#: exponential multiplied (the product stays well inside float range), a
#: threshold indicator listed.
_G = {
    PortalOp.SUM: SymRef("t"),
    PortalOp.PROD: Call("exp", Neg(BinOp("*", SymRef("t"), Const(1e-4)))),
    PortalOp.UNIONARG: Indicator("<", SymRef("t"), Const(4.0)),
}


def _kernels(op, dim, nq, nr, weighted, shared):
    """The ``op`` kernels over one shared or two random point sets,
    bound by hand; returns them with the state they write."""
    spec = CodegenSpec(
        dim=dim, base="sqeuclidean", g_ir=_G[op], monotone="increasing",
        inner_op=op, weighted=weighted, same_tree=shared,
        exclude_self=shared, is_indicator=op is PortalOp.UNIONARG)
    R = _points(nr, dim, 4)
    Q = R if shared else _points(nq, dim, 5)
    arrays = dict(QROW=Q, RROW=R,
                  acc=np.full(len(Q), 1.0 if op is PortalOp.PROD else 0.0),
                  out_lists=[[] for _ in Q])
    if weighted:
        arrays["rw"] = np.random.default_rng(6).uniform(0.5, 2.0, nr)
    source, code = emit(spec)
    return bind_kernels(source, code, arrays), arrays


def _collect(arrays, op):
    """What the kernels wrote: each row's list sorted, or the accumulator
    (a copy); the state is then reset."""
    if op is PortalOp.UNIONARG:
        out = [np.sort(np.concatenate(row)) if row else np.empty(0, np.int64)
               for row in arrays["out_lists"]]
        for row in arrays["out_lists"]:
            row.clear()
        return out
    out = arrays["acc"].copy()
    arrays["acc"][:] = 1.0 if op is PortalOp.PROD else 0.0
    return out


def _check_chunked(op, dim, weighted, shared, tail):
    """A gathered list of several chunks — ending in a one-column chunk
    or a short one — does what per-leaf ``base_case`` calls do."""
    qs, qe = 4, 9
    step = CHUNK_CELLS // (qe - qs)
    nr = 2 * step + tail
    kernels, arrays = _kernels(op, dim, 12, nr + 40, weighted, shared)
    # two leaves and a gap between them; on a shared tree the first leaf
    # is the query leaf itself, whose diagonal holds the self pairs
    first = (qs, qe) if shared else (0, 20)
    leaves = [first, (40, 40 + nr - (first[1] - first[0]))]
    ridx = np.concatenate([np.arange(s, e) for s, e in leaves])
    assert ridx.size == 2 * step + tail
    kernels.base_case_group(qs, qe, ridx)
    grouped = _collect(arrays, op)
    for s, e in leaves:
        kernels.base_case(qs, qe, s, e)
    leafwise = _collect(arrays, op)
    if op is PortalOp.UNIONARG:
        assert_lists_equal(grouped, leafwise)
        assert all(row.size for row in grouped[qs:qe])
        assert not any(row.size for row in grouped[:qs] + grouped[qe:])
        if shared:
            assert not any(i in grouped[i] for i in range(qs, qe))
        return
    assert_sum_close(grouped, leafwise, n=ridx.size)
    untouched = 1.0 if op is PortalOp.PROD else 0.0
    assert (grouped[qs:qe] != untouched).all()
    assert (grouped[:qs] == untouched).all()


@pytest.mark.parametrize("tail", [1, 7])
@pytest.mark.parametrize("dim,weighted,shared", [
    (3, False, False), (6, True, False), (3, False, True)])
def test_chunked_kernel_matches_leaf_base_cases(dim, weighted, shared, tail):
    """The SUM form, chunked, sums what per-leaf ``base_case`` calls sum."""
    _check_chunked(PortalOp.SUM, dim, weighted, shared, tail)


@pytest.mark.parametrize("tail", [1, 7])
@pytest.mark.parametrize("op,dim,shared", [
    (PortalOp.PROD, 3, False), (PortalOp.PROD, 6, True),
    (PortalOp.UNIONARG, 3, False), (PortalOp.UNIONARG, 6, True)],
    ids=lambda x: getattr(x, "name", str(x)))
def test_chunked_list_and_product_kernels(op, dim, shared, tail):
    """The product and list forms, chunked, do what per-leaf
    ``base_case`` calls do."""
    _check_chunked(op, dim, False, shared, tail)


def test_integer_sums_bitwise(no_leaf_base_case):
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
    assert no_leaf_base_case


def test_contract_helper_catches_planted_errors():
    vals = np.array([[1.0, 2.0, 2.0], [0.5, 0.5, 3.0]])
    ids = np.array([[4, 7, 9], [1, 2, 5]])
    # rows reordered inside ties: at the k-th value, and before it
    assert_ranked_equal(vals, vals, np.array([[4, 9, 7], [2, 1, 5]]), ids)
    for bad_vals, bad_ids in [(vals + [[0, 0, 1e-12], [0, 0, 0]], ids),
                              (vals, np.array([[4, 7, 9], [1, 3, 5]]))]:
        with pytest.raises(AssertionError):
            assert_ranked_equal(bad_vals, vals, bad_ids, ids)
    # a rounding bound: values move within it, ids swap only near the k-th
    near = np.array([[1.0, 2.0, 2.0 + 1e-13], [0.5, 0.5, 3.0]])
    assert_ranked_equal(near * (1 + 1e-13), near,
                        np.array([[4, 9, 7], [2, 1, 5]]), ids, rtol=1e-12)
    for bad_vals, bad_ids in [(near * (1 + 1e-11), ids),
                              (near, np.array([[9, 7, 4], [1, 2, 5]]))]:
        with pytest.raises(AssertionError):
            assert_ranked_equal(bad_vals, near, bad_ids, ids, rtol=1e-12)
    s = np.array([10.0, 20.0])
    assert_sum_close(s * (1 + 100 * np.finfo(float).eps), s, n=1000)
    with pytest.raises(AssertionError):
        assert_sum_close(s * (1 + 1e-9), s, n=1000)
    assert_sum_close(s + 0.9, s, n=1000, tau=1e-3)
    with pytest.raises(AssertionError):
        assert_sum_close(s + 1.1, s, n=1000, tau=1e-3)
    for bad in ([1, 3], [2, 1]):
        with pytest.raises(AssertionError):
            assert_lists_equal([np.array(bad)], [np.array([1, 2])])
    with pytest.raises(AssertionError):
        assert_bitwise(np.array([0.0]), np.array([-0.0]))


def _dimension_order(Q, R):
    """Every squared distance ``|q − r|²`` summed in dimension order:
    the difference form the winners are re-evaluated in."""
    diff = Q[:, None, :] - R[None, :, :]
    t = diff[..., 0] * diff[..., 0]
    for c in range(1, Q.shape[1]):
        t += diff[..., c] * diff[..., c]
    return t


def test_norm_expansion_values_agree_to_rounding():
    """DESIGN.md §8: a squared-Euclidean distance takes the GEMM form
    ‖q‖² + ‖r‖² − 2q·r, whose last bits depend on the block shape — leaf
    size, brute force's blocks, the blocked base case's batched GEMM
    against brute force's one GEMM per block.  The GEMM only selects:
    the winners are re-evaluated in the difference form, so leaf 16 and
    32 and brute force give leaf 64's values bit for bit, and its ids
    up to exact ties."""
    Q, R = ihepc(4000, seed=2), ihepc(4000, seed=1)
    assert Q.shape[1] == 9
    want_v, want_i = knn(Q, R, k=5, leaf_size=64)
    for options in ({"leaf_size": 16}, {"leaf_size": 32}, {"backend": "brute"}):
        got_v, got_i = knn(Q, R, k=5, **options)
        assert_ranked_equal(got_v, want_v, got_i, want_i)


def test_norm_expansion_far_from_origin():
    """d = 9 rows offset by 1e4, so ‖q‖² + ‖r‖² ≈ 2e9 dwarfs δ².  The
    blocked base case's augmented GEMM, taken about the reference box's
    centre, selects the k nearest; their values are the difference
    form's, summed in dimension order, bit for bit — exactly 0 where a
    query row is also a reference row — and the ids are its ids up to
    exact ties."""
    rng = np.random.default_rng(41)
    d, k = 9, 5
    R = rng.uniform(0.0, 5.0, (700, d)) + 1e4
    Q = rng.uniform(0.0, 5.0, (500, d)) + 1e4
    Q[:40] = R[::7][:40]   # coincident points: exact t = 0
    expr = PortalExpr("far-knn")
    expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    expr.addLayer((PortalOp.KARGMIN, k), Storage(R, name="reference"),
                  PortalFunc.EUCLIDEAN)
    out = expr.execute()
    assert "_gemm_operands(1.0)" in expr.generated_source()
    got_v, got_i = np.asarray(out.values), np.asarray(out.indices)
    full = _dimension_order(Q, R)
    want_i = np.argsort(full, axis=1, kind="stable")[:, :k]
    want_v = np.sqrt(np.take_along_axis(full, want_i, axis=1))
    assert np.array_equal(got_i[:40, 0], np.arange(0, 280, 7))
    assert (got_v[:40, 0] == 0.0).all()
    assert_ranked_equal(got_v, want_v, got_i, want_i)


@pytest.mark.parametrize("offset", [0.0, 1e2, 1e4])
def test_kde_norm_expansion_far_from_origin(offset):
    """DESIGN.md §8's sum rule holds wherever the data sits: the GEMM
    spelling takes the norm expansion about the reference box's centre
    ``o``, so its rounding scales with ‖q−o‖² + ‖r−o‖², not with
    ‖q‖² + ‖r‖² (about the origin, d = 9 rows offset by 1e2 were
    ≈ 1e-11 relative off, by 1e4 ≈ 1e-7).  The batched engine, the stack
    engine and brute force each meet the rule against the difference
    form, unapproximated."""
    rng = np.random.default_rng(7)
    R = rng.standard_normal((1500, 9)) + offset
    Q = rng.standard_normal((700, 9)) + offset
    want = np.array([np.exp(-((q - R) ** 2).sum(1) / 2.0).sum() for q in Q])
    for options in ({}, {"traversal": "stack"}, {"backend": "brute"}):
        expr = PortalExpr("far-kde")
        expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        expr.addLayer(PortalOp.SUM, Storage(R, name="reference"),
                      PortalFunc.GAUSSIAN, bandwidth=1.0)
        got = expr.execute(tau=0.0, **options)
        assert "_gemm_operands(-0.5)" in expr.generated_source()
        assert_sum_close(got, want, n=len(R))
