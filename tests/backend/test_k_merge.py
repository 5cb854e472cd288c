"""The K-operator merge: the ordered k-array of paper section IV-F.

The emitted base cases (the stack engine's ``base_case``, the batched
engine's ``base_case_blocks`` and its row regime's ``base_case_rows``)
merge a candidate block into each query's K best, and all skip every row
whose candidates are all strictly worse than its k-th best.  A merged
row's K best candidates come from K arg-select passes and meet the old
k-array in one stable sort, so a tie at the k-th value keeps the old
entry, then the lowest block column.  ``base_case_blocks`` runs once per
leaf-bearing epoch: it packs the epoch's query leaves into padded
blocks, and a pad cell holds the operator's exclusion value.  All three
merge through one ``_merge``, which each program binds from the fixed
``codegen._k_merge``.
These tests pin that merge where it is easiest to get wrong: coincident
points whose tie spans the k-th slot, both bound signs, the k edges
under self-exclusion, pads and blocks narrower than K that must never
reach an output, repeat runs, a NaN query row and a NaN candidate —
through the public surface under every engine, and on the bound kernels
directly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.cache import clear_caches
from repro.backend.codegen import (
    CodegenSpec, _k_merge, _single_merge, bind_kernels, emit,
)
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.dsl.errors import SpecificationError
from repro.dsl.ops import MIN_LIKE
from repro.ir.nodes import SymRef
from repro.observe import collect
from repro.problems import knn
from repro.rules.spec import RuleSpec
from repro.traversal import engines

from tests.traversal.test_bounded_batched import K_OPS, _furthest_expr

ENGINES = {
    "default": {},
    "stack": {"traversal": "stack"},
    "shards2": {"shards": 2},
}


@pytest.fixture(scope="module")
def grid():
    """Integer points, every reference point present two or three times:
    squared distances are exact small integers, so ties are real ties
    under any GEMM grouping, and many rows' k-th slot falls inside one."""
    rng = np.random.default_rng(27)
    base = rng.integers(0, 6, size=(40, 3)).astype(np.float64)
    R = np.concatenate([base, base, base[:15]])
    Q = rng.integers(0, 6, size=(50, 3)).astype(np.float64)
    return Q, R


def _distances(Q, R):
    return np.sqrt(((Q[:, None, :] - R[None, :, :]) ** 2).sum(-1))


def _assert_tie_aware(full, d, i, k, largest):
    """``d`` is the K best of each row of ``full`` in order, and every id
    is a distinct reference at exactly its reported distance."""
    want = np.sort(full, axis=1)
    want = want[:, ::-1][:, :k] if largest else want[:, :k]
    assert np.array_equal(d, want)
    if i is not None:
        assert np.array_equal(full[np.arange(len(full))[:, None], i], d)
        assert all(len(set(row)) == k for row in i.tolist())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("op", K_OPS, ids=lambda op: op.name)
def test_ties_across_kth_slot(grid, op, engine):
    """Every engine against one exact reference, so the value-only forms
    (``KMIN``/``KMAX``) also match the stack engine byte for byte."""
    Q, R = grid
    k = 4
    full = _distances(Q, R)
    largest = op not in MIN_LIKE
    ordered = np.sort(full, axis=1)
    if largest:
        ordered = ordered[:, ::-1]
    # the fixture really puts a tie across the k-th slot
    assert np.sum(ordered[:, k - 1] == ordered[:, k]) >= 10
    clear_caches()
    out = _furthest_expr(Q, R, k, op).execute(leaf_size=4, **ENGINES[engine])
    idx = None if out.indices is None else np.asarray(out.indices)
    _assert_tie_aware(full, np.asarray(out.values), idx, k, largest)


@pytest.mark.parametrize("op", K_OPS, ids=lambda op: op.name)
def test_tied_outputs_repeat_bitwise(grid, op, monkeypatch):
    """Ties at the k-th value resolve one way every time: a plan's
    outputs repeat bitwise, and its parallel form gives the same bytes
    on threads and on processes (``REPRO_EXECUTOR``).  Serial and
    parallel are two plans, so their tied ids need not agree."""
    Q, R = grid
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    def run(executor="serial", **kw):
        clear_caches()
        expr = _furthest_expr(Q, R, 4, op)
        out = expr.execute(leaf_size=4, **kw)
        assert expr.stats()["plan"]["executor"]["value"] == executor
        return (np.asarray(out.values).tobytes(),
                None if out.indices is None
                else np.asarray(out.indices).tobytes())

    assert run() == run()
    parallel = dict(parallel=True, workers=2)
    threads = run("thread", **parallel)
    assert run("thread", **parallel) == threads
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    assert run("process", **parallel) == threads


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("edge", ["1", "n", "n+1"])
def test_k_edges_with_exclude_self(grid, edge, engine):
    """Self-join k-NN over coincident points at k = 1, k = n (one slot
    can never fill: it stays ``inf`` / ``-1``) and k = n + 1 (a typed
    error)."""
    P = grid[1][:24]
    n = len(P)
    k = {"1": 1, "n": n, "n+1": n + 1}[edge]
    clear_caches()
    if k > n:
        with pytest.raises(SpecificationError, match="exceeds dataset size"):
            knn(P, k=k, leaf_size=4, **ENGINES[engine])
        return
    d, i = knn(P, k=k, leaf_size=4, **ENGINES[engine])
    full = _distances(P, P)
    np.fill_diagonal(full, np.inf)
    if k == 1:
        d, i = d[:, None], i[:, None]
    else:
        assert np.all(np.isinf(d[:, -1])) and np.all(i[:, -1] == -1)
        d, i, k = d[:, :-1], i[:, :-1], k - 1
    assert not np.any(i == np.arange(n)[:, None])
    _assert_tie_aware(full, d, i, k, largest=False)


# -- blocks and their pads ----------------------------------------------------

@pytest.fixture
def blocks_spy(monkeypatch):
    """Run the batched engine with a ``base_case_blocks`` that records
    each call's gathered widths; yields the list of them."""
    widths = []
    batched = engines.ENGINES["batched"]

    def guarded(qtree, rtree, kk, **kw):
        blocks = kk.base_case_blocks

        def spy(qs, qe, ridx, redge):
            widths.append(np.diff(redge))
            return blocks(qs, qe, ridx, redge)

        return batched(qtree, rtree,
                       dataclasses.replace(kk, base_case_blocks=spy), **kw)

    monkeypatch.setitem(engines.ENGINES, "batched", guarded)
    return widths


def _k_expr(Q, R, k, op):
    """A K-operator over ``R`` (one shared Storage when ``R`` is None)."""
    qs = Storage(Q, name="query")
    rs = qs if R is None else Storage(R, name="reference")
    expr = PortalExpr("k-merge")
    expr.addLayer(PortalOp.FORALL, qs)
    expr.addLayer((op, k), rs, PortalFunc.EUCLIDEAN)
    return expr


PAD_CASES = ["k=n", "self-k=n-1", "grid", "narrow"]


@pytest.mark.parametrize("case", PAD_CASES)
@pytest.mark.parametrize("op", [PortalOp.KARGMIN, PortalOp.KARGMAX],
                         ids=lambda op: op.name)
def test_pads_never_reach_an_output(grid, op, case, blocks_spy):
    """Bound-min pads hold +inf, bound-max pads −inf, both id −1: at
    k = n_r every row keeps every reference, at k = n_r − 1 under
    self-exclusion every reference but itself, and on the duplicate
    grid the K best tie-aware — never a pad.  ``narrow`` (leaf 2,
    k = 12) runs whole calls whose every block is narrower than K, so
    the merge takes ``min(K, W)`` picks, some of them pads."""
    Q, R = grid
    largest = op is PortalOp.KARGMAX
    leaf = 2 if case == "narrow" else 4
    if case == "self-k=n-1":
        Q, R = R, None
        n = len(Q)
        k, exclude = n - 1, True
        full = _distances(Q, Q)
        np.fill_diagonal(full, -np.inf if largest else np.inf)
    else:
        n = len(R)
        k, exclude = {"k=n": n, "grid": 4, "narrow": 12}[case], False
        full = _distances(Q, R)
    clear_caches()
    out = _k_expr(Q, R, k, op).execute(leaf_size=leaf, exclude_self=exclude)
    d, i = np.asarray(out.values), np.asarray(out.indices)
    # the engine ran blocks whose leaves gathered unequal widths: pads
    assert blocks_spy and any(np.ptp(w) > 0 for w in blocks_spy)
    if case == "narrow":
        assert any(w.max() < k for w in blocks_spy)
    assert np.isfinite(d).all() and (i >= 0).all()
    _assert_tie_aware(full, d, i, k, largest)
    if k >= n - 1:
        expect = np.arange(n)
        for row, ids in enumerate(i.tolist()):
            want = expect if R is not None else np.delete(expect, row)
            assert sorted(ids) == want.tolist()


def test_one_blocked_call_per_leaf_bearing_epoch(blocks_spy):
    """The leaf regime's bound form calls ``base_case_blocks`` once per
    epoch that ran base cases — the epochs that refresh the bounds."""
    rng = np.random.default_rng(37)
    Q, R = rng.uniform(0, 5, (600, 3)), rng.uniform(0, 5, (700, 3))
    clear_caches()
    with collect() as counters:
        knn(Q, R, k=5, leaf_size=8)
    refreshes = counters.as_dict()["bounded.bound_refreshes"]
    assert refreshes > 1
    assert len(blocks_spy) == refreshes


# -- the bound kernels, called directly --------------------------------------
# A Storage refuses NaN, so a NaN query row reaches a merge only here.  The
# stack engine runs ``base_case``; the default engine and every shard of
# ``shards=2`` run ``base_case_blocks``, or ``base_case_rows`` in the row
# regime.

#: bound sign -> (reference points, the K best every query row starts
#: with, the query that has a winning candidate).  Query (0, 0) sees only
#: candidates strictly worse than its k-th best (9 and 16 against 4;
#: 9 and 8 against 16), so its row is skipped; query 2 is NaN.
CASES = {
    "min": ([[3.0, 0.0], [0.0, 4.0]], [1.0, 1.0, 1.0, 4.0], [3.0, 0.0]),
    "max": ([[3.0, 0.0], [2.0, 2.0]], [25.0, 25.0, 25.0, 16.0], [-3.0, 0.0]),
}
START_IDX = [7, 3, 5, 9]   # the three tied entries in no canonical order
BOUND_KERNELS = ["base_case", "base_case_blocks", "base_case_rows"]


def _kernels(op, Q, R, best, best_idx, difference=False):
    """The bound kernels of a K-operator over the squared distance, bound
    to query rows ``Q``, references ``R`` and the k-arrays given: in the
    GEMM, or — ``difference`` — in the difference form an indicator's
    spec takes."""
    kind = "min" if op in MIN_LIKE else "max"
    spec = CodegenSpec(
        dim=Q.shape[1], base="sqeuclidean", g_ir=SymRef("t"),
        monotone="increasing", inner_op=op,
        rule=RuleSpec(kind=f"bound-{kind}"), is_indicator=difference,
    )
    state = dict(best=best, best_idx=best_idx, qbound=np.full(len(Q), np.inf))
    source, code = emit(spec)
    kernels = bind_kernels(source, code, dict(
        QROW=Q, RROW=R, K=best.shape[1], **state))
    return kernels, state


def _bound_kernels(op, nan_ref=False):
    """The bound kernels over ``CASES``; ``nan_ref`` appends a NaN
    reference point (in the difference form, which keeps the NaN to its
    own cells — the GEMM's origin would spread it)."""
    kind = "min" if op in MIN_LIKE else "max"
    R, start, winner = (np.array(x) for x in CASES[kind])
    if nan_ref:
        R = np.vstack([R, [np.nan, np.nan]])
    Q = np.array([[0.0, 0.0], winner, [np.nan, np.nan]])
    kernels, state = _kernels(
        op, Q, R, np.tile(start, (3, 1)),
        np.tile(np.array(START_IDX, dtype=np.int64), (3, 1)),
        difference=nan_ref)
    return kernels, state, kind, len(R)


def _run_kernel(kernels, kernel, nr, nq=3):
    """Every query row against all ``nr`` references."""
    if kernel == "base_case":
        kernels.base_case(0, nq, 0, nr)
    elif kernel == "base_case_blocks":   # one query leaf of every row
        kernels.base_case_blocks(np.array([0]), np.array([nq]),
                                 np.arange(nr), np.array([0, nr]))
    else:  # the row regime's flat (query, reference) candidate list
        kernels.base_case_rows(np.repeat(np.arange(nq), nr),
                               np.tile(np.arange(nr), nq))


def _assert_row_one_merged(state, before, kind):
    """Rows 0 (strictly worse candidates) and 2 (a NaN query) are
    untouched; row 1 holds its winners first.  Returns their count."""
    best, best_idx = state["best"], state["best_idx"]
    for row in (0, 2):
        assert best[row].tobytes() == before["best"][row].tobytes()
        assert best_idx[row].tobytes() == before["best_idx"][row].tobytes()
    if kind == "min":
        assert best[1].tolist() == [0.0, 1.0, 1.0, 1.0]
        new_ids = [0]
    else:
        assert best[1].tolist() == [36.0, 29.0, 25.0, 25.0]
        new_ids = [0, 1]
    # every K-operator keeps its winners' ids
    assert best_idx[1, :len(new_ids)].tolist() == new_ids
    return len(new_ids)


@pytest.mark.parametrize("kernel", BOUND_KERNELS)
@pytest.mark.parametrize("op", K_OPS, ids=lambda op: op.name)
def test_bound_kernel_skips_rows_that_cannot_win(op, kernel):
    kernels, state, kind, nr = _bound_kernels(op)
    before = {name: arr.copy() for name, arr in state.items()}
    _run_kernel(kernels, kernel, nr)
    best, best_idx = state["best"], state["best_idx"]
    new = _assert_row_one_merged(state, before, kind)
    # a tie at the k-th value keeps the old entries, in their order
    assert best_idx[1, new:].tolist() == START_IDX[:4 - new]
    # every kernel merges through the one ``_merge``, which refreshes
    # the merged row's bound and only that row's
    sign = 1.0 if kind == "min" else -1.0
    assert state["qbound"][1] == sign * best[1, -1]
    assert np.array_equal(state["qbound"][[0, 2]], before["qbound"][[0, 2]])


@pytest.mark.parametrize("kernel", BOUND_KERNELS)
@pytest.mark.parametrize("op", K_OPS, ids=lambda op: op.name)
def test_bound_kernel_merges_a_winner_beside_a_nan_candidate(op, kernel):
    """A NaN candidate sorts last: the row holding it and a winner merges
    the winner.  The block kernels take the NaN cell into the merge
    (``argmin``/``argmax`` return it first); the row regime drops it
    with the strictly worse candidates before padding."""
    kernels, state, kind, nr = _bound_kernels(op, nan_ref=True)
    before = {name: arr.copy() for name, arr in state.items()}
    _run_kernel(kernels, kernel, nr)
    _assert_row_one_merged(state, before, kind)
    assert not np.isnan(state["best"]).any()
    assert (state["best_idx"] != nr - 1).all()


@pytest.mark.parametrize("kernel", BOUND_KERNELS)
@pytest.mark.parametrize("op", K_OPS, ids=lambda op: op.name)
def test_bound_kernel_breaks_ties_old_first_then_by_column(op, kernel):
    """The merged k-array is a stable sort of the old k-array followed by
    the block's candidates in column order: at equal values the old
    entry comes first, then the lowest column.  Squared distances from
    small integers on a line tie often, inside and across the k-th
    slot."""
    rng = np.random.default_rng(11)
    largest = op not in MIN_LIKE
    k, nq, nr = 4, 24, 9
    Q = np.zeros((nq, 1))
    R = rng.integers(-3, 4, size=(nr, 1)).astype(np.float64)
    old = np.sort(rng.choice([0.0, 1.0, 4.0, 9.0, 16.0], size=(nq, k)),
                  axis=1)
    if largest:
        old = old[:, ::-1].copy()
    old_idx = 100 + np.arange(nq * k, dtype=np.int64).reshape(nq, k)
    kernels, state = _kernels(op, Q, R, old.copy(), old_idx.copy())
    _run_kernel(kernels, kernel, nr, nq)
    cand_v = np.concatenate([old, np.tile(R[:, 0] ** 2, (nq, 1))], axis=1)
    cand_i = np.concatenate([old_idx, np.tile(np.arange(nr), (nq, 1))], axis=1)
    order = np.argsort(-cand_v if largest else cand_v, axis=1,
                       kind="stable")[:, :k]
    rows = np.arange(nq)[:, None]
    # the draw puts real ties across the k-th slot
    kth = cand_v[rows, order][:, -1:]
    assert ((cand_v == kth).sum(axis=1) > 1).sum() >= 5
    assert np.array_equal(state["best"], cand_v[rows, order])
    assert np.array_equal(state["best_idx"], cand_i[rows, order])


# -- the merge as a function -------------------------------------------------
# ``_k_merge`` / ``_single_merge`` against a sort-based reference: each
# row's candidates with NaN read as the exclusion value; a row whose best
# candidate is not strictly better than its k-th best is untouched; any
# other row's new k-array is a stable sort of [old k-array | its K best
# candidates in (value, column) order].  Values come from a few small
# integers, so ties inside and across the k-th slot are common.

def _reference_merge(best, best_idx, qbound, v, q, rid, K, descending):
    excl = -np.inf if descending else np.inf
    s = v.shape[0] // rid.shape[0]
    for i, row in enumerate(q.tolist()):
        vals = np.where(np.isnan(v[i]), excl, v[i])
        key = -vals if descending else vals
        old = best[row] if K else best[row:row + 1]
        old_key = -old if descending else old
        if not key.min() < old_key[-1]:
            continue
        if not K:
            j = int(np.argmin(key))
            best[row], best_idx[row] = vals[j], rid[i // s, j]
            if qbound is not None:
                qbound[row] = -vals[j] if descending else vals[j]
            continue
        cols = np.argsort(key, kind="stable")[:min(K, vals.size)]
        order = np.argsort(np.concatenate([old_key, key[cols]]),
                           kind="stable")[:K]
        best[row] = np.concatenate([old, vals[cols]])[order]
        best_idx[row] = np.concatenate([best_idx[row],
                                        rid[i // s, cols]])[order]
        if qbound is not None:
            qbound[row] = -best[row, -1] if descending else best[row, -1]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), descending=st.booleans(),
       form=st.sampled_from(["single", "1", "3", "W+2"]),
       width=st.integers(1, 6), share=st.sampled_from([1, 2]),
       bound=st.booleans())
def test_merge_functions_match_a_sort(seed, descending, form, width, share,
                                      bound):
    rng = np.random.default_rng(seed)
    K = {"single": 0, "1": 1, "3": 3, "W+2": width + 2}[form]
    excl = -np.inf if descending else np.inf
    n, nrow = 12, 2 * share * rng.integers(1, 4)
    pool = np.array([0.0, 1.0, 2.0, 4.0, np.nan, excl])
    # candidates: ties, NaN, and pad columns holding the exclusion value
    v = rng.choice(pool, size=(nrow, width), p=[.25, .25, .2, .15, .05, .1])
    q = rng.permutation(n)[:nrow].astype(np.int64)
    rid = rng.permutation(50)[:nrow // share * width].reshape(-1, width)
    # the old state: sorted rows, some slots unfilled (identity, id -1)
    old = rng.choice([0.0, 1.0, 2.0, 4.0, 9.0, excl], size=(n, max(K, 1)))
    old = np.sort(-old if descending else old, axis=1, kind="stable")
    old = -old if descending else old
    old_idx = np.where(np.isinf(old), -1, 100 + rng.permutation(
        n * old.shape[1]).reshape(old.shape))
    if not K:
        old, old_idx = old[:, 0].copy(), old_idx[:, 0].copy()
    qbound = np.full(n, np.inf) if bound else None
    got = (old.copy(), old_idx.copy(), None if qbound is None
           else qbound.copy())
    want = (old.copy(), old_idx.copy(), None if qbound is None
            else qbound.copy())
    merge = (_single_merge(*got, descending=descending) if not K else
             _k_merge(*got, K, descending=descending))
    merge(v.copy(), q, rid)
    _reference_merge(*want, v, q, rid, K, descending)
    for g, w in zip(got, want):
        assert (g is None and w is None) or g.tobytes() == w.tobytes()
