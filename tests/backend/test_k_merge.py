"""The K-operator merge: the ordered k-array of paper section IV-F.

The emitted base cases (the stack engine's ``base_case`` and the bounded
engine's ``base_case_group`` and ``base_case_rows``) merge a candidate
block into each query's K best, and all skip every row whose candidates
are all strictly worse than its k-th best.  These tests pin that merge
where it is easiest to get wrong: coincident points whose tie spans the
k-th slot, both bound signs, the k edges under self-exclusion and a NaN
query row — through the public surface under every engine, and on the
bound kernels directly.
"""

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.backend.codegen import CodegenSpec, bind_kernels, emit
from repro.backend.layout import Layout
from repro.dsl import PortalOp
from repro.dsl.errors import SpecificationError
from repro.dsl.ops import MIN_LIKE
from repro.ir.nodes import SymRef
from repro.problems import knn
from repro.rules.spec import RuleSpec

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


# -- the bound kernels, called directly --------------------------------------
# A Storage refuses NaN, so a NaN query row reaches a merge only here.  The
# stack engine runs ``base_case``; the default engine and every shard of
# ``shards=2`` run ``base_case_group``, or ``base_case_rows`` in the row
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


def _bound_kernels(op):
    kind = "min" if op in MIN_LIKE else "max"
    R, start, winner = (np.array(x) for x in CASES[kind])
    Q = np.array([[0.0, 0.0], winner, [np.nan, np.nan]])
    spec = CodegenSpec(
        dim=2, layout=Layout.ROW, base="sqeuclidean", g_ir=SymRef("t"),
        monotone="increasing", inner_op=op,
        rule=RuleSpec(kind=f"bound-{kind}"),
    )
    state = dict(
        best=np.tile(start, (3, 1)),
        best_idx=np.tile(np.array(START_IDX, dtype=np.int64), (3, 1)),
        qbound=np.full(3, np.inf),
    )
    source, code = emit(spec)
    kernels = bind_kernels(source, code, dict(
        QROW=Q, QN2=(Q * Q).sum(1), RROW=R, RN2=(R * R).sum(1), K=4,
        **state))
    return kernels, state, kind


@pytest.mark.parametrize("kernel",
                         ["base_case", "base_case_group", "base_case_rows"])
@pytest.mark.parametrize("op", K_OPS, ids=lambda op: op.name)
def test_bound_kernel_skips_rows_that_cannot_win(op, kernel):
    kernels, state, kind = _bound_kernels(op)
    before = {name: arr.copy() for name, arr in state.items()}
    if kernel == "base_case":
        kernels.base_case(0, 3, 0, 2)
    elif kernel == "base_case_group":
        kernels.base_case_group(0, 3, np.arange(2))
    else:  # the row regime's flat (query, reference) candidate list
        kernels.base_case_rows(np.repeat(np.arange(3), 2),
                               np.tile(np.arange(2), 3))
    best, best_idx = state["best"], state["best_idx"]
    returns_index = op in (PortalOp.KARGMIN, PortalOp.KARGMAX)
    for row in (0, 2):   # strictly worse candidates; a NaN query
        assert best[row].tobytes() == before["best"][row].tobytes()
        assert best_idx[row].tobytes() == before["best_idx"][row].tobytes()
    if kind == "min":
        assert best[1].tolist() == [0.0, 1.0, 1.0, 1.0]
        new_ids, kept = [0], 3
    else:
        assert best[1].tolist() == [36.0, 29.0, 25.0, 25.0]
        new_ids, kept = [0, 1], 2
    if returns_index:
        assert best_idx[1, :len(new_ids)].tolist() == new_ids
        tied = best_idx[1, len(new_ids):].tolist()
        assert len(set(tied)) == kept and set(tied) <= {7, 3, 5}
    else:
        assert np.array_equal(best_idx, before["best_idx"])
    sign = 1.0 if kind == "min" else -1.0
    if kernel == "base_case_group":
        assert np.array_equal(state["qbound"], sign * best[:, -1])
    elif kernel == "base_case_rows":
        # only the merged row's bound moves
        assert state["qbound"][1] == sign * best[1, -1]
        assert np.array_equal(state["qbound"][[0, 2]],
                              before["qbound"][[0, 2]])
    else:
        assert np.array_equal(state["qbound"], before["qbound"])
