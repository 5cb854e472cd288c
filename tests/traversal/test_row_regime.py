"""The bounded engine's row regime: (query row × reference node) epochs.

When the whole query set is small against the reference set
(``N_q · ROW_REGIME_RATIO ≤ N_r``) the bounded engine classifies each
query *row* against reference nodes with its own live bound, expands only
the reference side and runs one ``base_case_rows`` kernel per epoch.  The
contract is the engine's: exact outputs.  These tests hold every bound
operator, tree and executor to the stack engine (values bitwise at
every d, ids tie-aware) and a k-NN batch to its
rows run one at a time, check that the regime is taken exactly where the
size rule says, and that it never computes more pairs than the leaf
regime.
"""

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.dsl.ops import MIN_LIKE, op_info
from repro.observe import collect
from repro.traversal import bounded_batched
from repro.traversal.bounded_batched import ROW_REGIME_RATIO

from tests.backend.test_k_merge import _assert_tie_aware, _distances
from tests.conftest import REMOVED_TREE, assert_tree_refused

NR = 800
THRESHOLD = NR // ROW_REGIME_RATIO
N_QS = [1, 32, THRESHOLD, THRESHOLD + 1]
TREES = ["kd", "octree"]
PAR = {"parallel": True, "workers": 2}
EXECUTORS = {
    "serial": {},
    "thread": dict(PAR, executor="thread"),
    "process": dict(PAR, executor="process"),
    "shards2": {"shards": 2},
}
K = 3
#: the four K-operators, nearest / furthest (ARGMIN / ARGMAX) and the
#: directed Hausdorff distance (MAX over rows of a MIN)
PROBLEMS = ["KARGMIN", "KMIN", "KARGMAX", "KMAX", "ARGMIN", "ARGMAX",
            "hausdorff"]


def _expr(problem, Q, R, k=K):
    expr = PortalExpr(problem)
    if problem == "hausdorff":
        expr.addLayer(PortalOp.MAX, Storage(Q, name="setA"))
        expr.addLayer(PortalOp.MIN, Storage(R, name="setB"),
                      PortalFunc.EUCLIDEAN)
        return expr
    op = PortalOp[problem]
    expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    expr.addLayer((op, k) if op_info(op).requires_k else op,
                  Storage(R, name="reference"), PortalFunc.EUCLIDEAN)
    return expr


def _execute(problem, Q, R, k=K, **options):
    """(output, stats, counters) of one fresh execute."""
    clear_caches()
    expr = _expr(problem, Q, R, k)
    with collect() as counters:
        out = expr.execute(leaf_size=16, **options)
    return out, expr.stats(), counters.as_dict()


def _largest(problem):
    return problem != "hausdorff" and PortalOp[problem] not in MIN_LIKE


def _assert_matches(problem, out, ref, Q, R):
    """``out`` answers the same query as ``ref``: values bitwise (the
    winners are re-evaluated in one difference form, whatever arithmetic
    selected them); ids tie-aware (distinct, each at its reported
    distance, any choice among equal distances)."""
    if out.scalar is not None:
        assert out.scalar == ref.scalar
        return
    got, want = np.asarray(out.values), np.asarray(ref.values)
    assert got.tobytes() == want.tobytes()
    if out.indices is None:
        return
    idx = np.asarray(out.indices)
    if idx.ndim == 1:
        idx, got = idx[:, None], got[:, None]
    full = _distances(Q, R)
    assert np.allclose(full[np.arange(len(Q))[:, None], idx], got,
                       rtol=1e-12, atol=1e-12)
    assert all(len(set(row)) == idx.shape[1] for row in idx.tolist())


def _expected_regime(nq, nr, options):
    """The size rule over the trees the engine is handed: under
    ``shards=2`` each traversal's reference tree is one shard."""
    nr_handed = nr // 2 if "shards" in options else nr
    return "row" if nq * ROW_REGIME_RATIO <= nr_handed else "leaf"


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(30)
    return (np.ascontiguousarray(rng.normal(size=(THRESHOLD + 1, 3))),
            np.ascontiguousarray(rng.normal(size=(NR, 3))))


_STACK: dict = {}


def _stack_ref(problem, tree, nq, Q, R):
    key = (problem, tree, nq)
    if key not in _STACK:
        _STACK[key] = _execute(problem, Q, R, tree=tree,
                               traversal="stack")[0]
    return _STACK[key]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("nq", N_QS)
@pytest.mark.parametrize("tree", TREES + [REMOVED_TREE])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_matches_stack(data, problem, tree, nq, executor):
    """d = 3: the row regime's pair form and the stack engine's block
    GEMM select the same winners, whose values are bitwise equal."""
    Q, R = data[0][:nq], data[1]
    options = dict(EXECUTORS[executor], tree=tree)
    if tree == REMOVED_TREE:
        assert_tree_refused(_execute, problem, Q, R, **options)
        return
    out, stats, _ = _execute(problem, Q, R, **options)
    assert stats["traversal_engine"] == "batched"
    assert stats["bounded"]["regime"] == _expected_regime(nq, NR, options)
    ref = _stack_ref(problem, tree, nq, Q, R)
    _assert_matches(problem, out, ref, Q, R)


@pytest.mark.parametrize("tree", ["kd", REMOVED_TREE])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_row_layout_matches_stack_and_brute(problem, tree):
    """d = 6 (octrees need d ≤ 3): the row regime takes the norm
    expansion's dot products per row, the stack engine and brute force
    their block GEMMs; the re-evaluated winners are bitwise equal, ids
    tie-aware."""
    rng = np.random.default_rng(6)
    Q, R = rng.normal(size=(32, 6)), rng.normal(size=(NR, 6))
    if tree == REMOVED_TREE:
        assert_tree_refused(_execute, problem, Q, R, tree=tree)
        return
    out, stats, _ = _execute(problem, Q, R, tree=tree)
    assert stats["bounded"]["regime"] == "row"
    for ref_opts in ({"traversal": "stack"}, {"backend": "brute"}):
        ref = _execute(problem, Q, R, tree=tree, **ref_opts)[0]
        _assert_matches(problem, out, ref, Q, R)


@pytest.mark.parametrize("tree", TREES + [REMOVED_TREE])
def test_knn_matches_single_tree_walk(data, tree):
    """The row regime is Algorithm 1 with point query nodes: one query row
    alone is the single-tree walk, and a batch answers every row exactly
    as that row's own walk does."""
    Q, R = data[0][:32], data[1]
    if tree == REMOVED_TREE:
        assert_tree_refused(_execute, "KARGMIN", Q, R, tree=tree)
        return
    out, stats, _ = _execute("KARGMIN", Q, R, tree=tree)
    assert stats["bounded"]["regime"] == "row"
    walks = [_expr("KARGMIN", Q[i:i + 1], R).execute(leaf_size=16, tree=tree)
             for i in range(len(Q))]
    for name in ("values", "indices"):
        assert (np.asarray(getattr(out, name)).tobytes()
                == np.concatenate([np.asarray(getattr(w, name))
                                   for w in walks]).tobytes())
    _assert_tie_aware(_distances(Q, R), np.asarray(out.values),
                      np.asarray(out.indices), K, largest=False)


@pytest.mark.parametrize("problem", ["KARGMIN", "KARGMAX", "hausdorff"])
@pytest.mark.parametrize("nq", [1, 32, THRESHOLD])
def test_prunes_no_worse_than_leaf_regime(data, problem, nq, monkeypatch):
    Q, R = data[0][:nq], data[1]
    out, stats, counters = _execute(problem, Q, R)
    assert stats["bounded"]["regime"] == "row"
    assert counters["bounded.row_regime"] == 1
    assert stats["bounded"]["bound_refreshes"] == 0
    monkeypatch.setattr(bounded_batched, "ROW_REGIME_RATIO", NR + 1)
    leaf_out, leaf_stats, leaf_counters = _execute(problem, Q, R)
    assert leaf_stats["bounded"]["regime"] == "leaf"
    assert leaf_counters["bounded.row_regime"] == 0
    _assert_matches(problem, out, leaf_out, Q, R)
    assert (stats["traversal"]["base_case_pairs"]
            <= leaf_stats["traversal"]["base_case_pairs"])
    t = stats["traversal"]
    assert t["visited"] == t["pruned"] + t["recursions"] + t["base_cases"]


# -- adversarial inputs -------------------------------------------------------

@pytest.mark.parametrize("op", ["KARGMIN", "KMIN", "KARGMAX", "KMAX"])
def test_coincident_references_span_kth_slot(op):
    """Integer points, each reference present three times: exact ties
    across the k-th slot under any arithmetic grouping."""
    rng = np.random.default_rng(27)
    base = rng.integers(0, 6, size=(40, 3)).astype(np.float64)
    R = np.concatenate([base, base, base])
    Q = rng.integers(0, 6, size=(6, 3)).astype(np.float64)
    k = 4
    full = _distances(Q, R)
    ordered = np.sort(full, axis=1)
    ordered = ordered[:, ::-1] if _largest(op) else ordered
    assert np.sum(ordered[:, k - 1] == ordered[:, k]) >= 3
    out, stats, _ = _execute(op, Q, R, k=k)
    assert stats["bounded"]["regime"] == "row"
    idx = None if out.indices is None else np.asarray(out.indices)
    _assert_tie_aware(full, np.asarray(out.values), idx, k, _largest(op))


def test_query_row_equal_to_a_reference_point(data):
    Q, R = data[1][[5, 400, 799]].copy(), data[1]
    out, stats, _ = _execute("KARGMIN", Q, R)
    assert stats["bounded"]["regime"] == "row"
    assert np.array_equal(np.asarray(out.values)[:, 0], np.zeros(3))
    assert np.array_equal(np.asarray(out.indices)[:, 0], [5, 400, 799])


@pytest.mark.parametrize("op", ["KARGMIN", "KARGMAX"])
def test_k_equals_reference_size(op):
    rng = np.random.default_rng(4)
    Q, R = rng.normal(size=(2, 3)), rng.normal(size=(40, 3))
    out, stats, _ = _execute(op, Q, R, k=len(R))
    assert stats["bounded"]["regime"] == "row"
    _assert_tie_aware(_distances(Q, R), np.asarray(out.values),
                      np.asarray(out.indices), len(R), _largest(op))


@pytest.mark.parametrize("problem", ["KARGMIN", "ARGMAX", "hausdorff"])
def test_one_dimension(problem):
    rng = np.random.default_rng(1)
    Q, R = rng.normal(size=(20, 1)), rng.normal(size=(NR, 1))
    out, stats, _ = _execute(problem, Q, R)
    assert stats["bounded"]["regime"] == "row"
    ref = _execute(problem, Q, R, traversal="stack")[0]
    _assert_matches(problem, out, ref, Q, R)
