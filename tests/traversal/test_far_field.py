"""The far field is data: an approximated pair meets one pseudo-point.

An approximation rule's reference side binds one pseudo-point per node
(the node's mass at its weighted centroid) after the real rows of
``RROW``, ``rw`` and ``RLABEL`` (``codegen.Bindings.reference``), and an
approximated node pair is its query node against that row: one more
column of the grouped base case, in the batched engine's flush and in
the stack engine alike.  These tests hold that design:

* classification does not move: every ``traversal.*`` counter of
  Barnes–Hut (octree, ``mac``, θ 0.5 and 0.9, 8 000 particles), KDE at
  τ = 1e-3 and 1e-1 on the ``kde_approx`` inputs, naive Bayes and a
  PROD approximation equals the value pinned when approximated pairs
  ran through a per-pair action, serial, on threads and on processes,
  over one and two shards; a process run is bitwise the thread run;
* outputs meet the output contract (DESIGN.md §8) against the IR
  interpreter with the reference set offset by 0, 1e2 and 1e4 from
  the origin, and the stack reference engine meets the batched one;
* a sharded self-excluding KDE labels its pseudo-rows −1, which no
  query position equals;
* a process worker's reference tree keeps the real rows alone.
"""

from __future__ import annotations

import functools
import importlib.util
import pathlib

import numpy as np
import pytest

from repro.backend.codegen import Bindings
from repro.data.synthetic import ihepc
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage, Var, exp, pow
from repro.observe import collect
from repro.parallel.worker import _tree
from repro.problems.barnes_hut import barnes_hut_potential
from repro.rules.spec import RuleSpec
from repro.trees import build_tree

from tests.contract import assert_bitwise, assert_sum_close

q, r = Var("q"), Var("r")

RUNNERS = {
    "serial": {},
    "thread": dict(parallel=True, workers=2, executor="thread"),
    "process": dict(parallel=True, workers=2, executor="process"),
}
SHARDS = (1, 2)

#: the ``traversal.*`` counters, in this order …
COUNTERS = ("visited", "pruned", "approximated", "recursions", "base_cases",
            "base_case_pairs")
#: … per case and ``runner/shards``, as the per-pair approximation
#: action gave them (``REPRO_WORKERS=2``: the parallel task count
#: follows the worker count of the host)
PINNED = {
    "bh-0.5": {
        "serial/1": (130305, 0, 81644, 6758, 41903, 24382234),
        "serial/2": (171402, 0, 108822, 16459, 46121, 24262185),
        "thread/1": (152192, 0, 96182, 14107, 41903, 24382234),
        "thread/2": (171402, 0, 108822, 16459, 46121, 24262185),
        "process/1": (152192, 0, 96182, 14107, 41903, 24382234),
        "process/2": (171402, 0, 108822, 16459, 46121, 24262185),
    },
    "bh-0.9": {
        "serial/1": (103393, 0, 80990, 4396, 18007, 12424669),
        "serial/2": (110058, 0, 81458, 9185, 19415, 10969877),
        "thread/1": (107049, 0, 80378, 8664, 18007, 12424669),
        "thread/2": (110058, 0, 81458, 9185, 19415, 10969877),
        "process/1": (107049, 0, 80378, 8664, 18007, 12424669),
        "process/2": (110058, 0, 81458, 9185, 19415, 10969877),
    },
    "kde-0.001": {
        "serial/1": (21729, 0, 982, 5432, 15315, 23359444),
        "serial/2": (26766, 0, 800, 10651, 15315, 23359444),
        "thread/1": (30760, 0, 749, 14696, 15315, 23359444),
        "thread/2": (26766, 0, 800, 10651, 15315, 23359444),
        "process/1": (30760, 0, 749, 14696, 15315, 23359444),
        "process/2": (26766, 0, 800, 10651, 15315, 23359444),
    },
    "kde-0.1": {
        "serial/1": (16949, 0, 3104, 4237, 9608, 14639018),
        "serial/2": (20204, 0, 2894, 7702, 9608, 14639018),
        "thread/1": (23096, 0, 2615, 10873, 9608, 14639018),
        "thread/2": (20204, 0, 2894, 7702, 9608, 14639018),
        "process/1": (23096, 0, 2615, 10873, 9608, 14639018),
        "process/2": (20204, 0, 2894, 7702, 9608, 14639018),
    },
    "naive_bayes": {
        "serial/1": (5425, 0, 529, 1356, 3540, 310752),
        "serial/2": (6612, 0, 450, 2622, 3540, 310752),
        "thread/1": (7608, 0, 436, 3632, 3540, 310752),
        "thread/2": (6612, 0, 450, 2622, 3540, 310752),
        "process/1": (7608, 0, 436, 3632, 3540, 310752),
        "process/2": (6612, 0, 450, 2622, 3540, 310752),
    },
    "prod": {
        "serial/1": (4437, 0, 1005, 1109, 2323, 317558),
        "serial/2": (5204, 0, 900, 1981, 2323, 317558),
        "thread/1": (5962, 0, 829, 2810, 2323, 317558),
        "thread/2": (5204, 0, 900, 1981, 2323, 317558),
        "process/1": (5962, 0, 829, 2810, 2323, 317558),
        "process/2": (5204, 0, 900, 1981, 2323, 317558),
    },
}


@pytest.fixture(autouse=True)
def _two_workers(monkeypatch):
    # the parallel task decomposition, and so its counters, follows the
    # host's core count unless pinned
    monkeypatch.setenv("REPRO_WORKERS", "2")


def _kde(Q, R, bandwidth, **options):
    e = PortalExpr("kde")
    e.addLayer(PortalOp.FORALL, q, Q)
    e.addLayer(PortalOp.SUM, r, R, PortalFunc.GAUSSIAN, bandwidth=bandwidth)
    return e, options


def _kernel(op, g, Q, R, **options):
    e = PortalExpr("kernel")
    e.addLayer(PortalOp.FORALL, q, Q)
    e.addLayer(op, r, R, g)
    return e, options


@functools.cache
def _spine_kde():
    path = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "spine" / "datagen.py")
    spec = importlib.util.spec_from_file_location("spine_datagen", path)
    datagen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(datagen)
    data = datagen.inputs("kde_approx", 0)
    return (Storage(data["query"], name="query"),
            Storage(data["reference"], name="reference"), data["bandwidth"])


def _case(name):
    """``(run(extra options) -> values)`` of a pinned case."""
    if name.startswith("bh-"):
        X = np.random.default_rng(8).standard_normal((8000, 3))
        theta = float(name[3:])
        return lambda **o: barnes_hut_potential(X, np.ones(len(X)),
                                                theta=theta, **o)
    if name.startswith("kde-"):
        Q, R, bandwidth = _spine_kde()
        expr, options = _kde(Q, R, bandwidth, tau=float(name[4:]),
                             exclude_self=False)
    elif name == "naive_bayes":
        expr, options = _kernel(
            PortalOp.SUM, exp(-(pow(q - r, 2) / 2.42)),
            Storage(ihepc(600, seed=2), name="query"),
            Storage(ihepc(600, seed=1), name="reference"),
            tau=1e-3, leaf_size=16)
    else:
        rng = np.random.default_rng(9)
        expr, options = _kernel(
            PortalOp.PROD, exp(-(pow(q - r, 2) / 2.0)) * 1e-3 + 1.0,
            Storage(rng.uniform(0.0, 10.0, (700, 3)), name="query"),
            Storage(rng.uniform(0.0, 10.0, (800, 3)), name="reference"),
            tau=1e-6, leaf_size=16)
    return lambda **o: np.asarray(expr.execute(**options, **o).values)


CASES = ["bh-0.5", "bh-0.9", "kde-0.001", "kde-0.1", "naive_bayes", "prod"]


@functools.cache
def _run(name, runner, shards):
    with collect() as counters:
        values = _case(name)(**RUNNERS[runner],
                             **({"shards": shards} if shards > 1 else {}))
    return values, {k: v for k, v in counters.as_dict().items()
                    if k.startswith("traversal.")}


@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("case", CASES)
def test_counters_are_pinned(case, runner, shards):
    _, counters = _run(case, runner, shards)
    assert counters["traversal.approximated"] > 0
    assert counters == {f"traversal.{name}": value for name, value in
                        zip(COUNTERS, PINNED[case][f"{runner}/{shards}"])}


@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("case", CASES)
def test_process_is_bitwise_the_thread_executor(case, shards):
    assert_bitwise(_run(case, "process", shards)[0],
                   _run(case, "thread", shards)[0])


# -- the contract against the interpreter, far from the origin --------------

#: program → (kernel, operator, τ); the data are standard normal, scaled
CONTRACT = {
    "kde": (PortalFunc.GAUSSIAN, PortalOp.SUM, 1e-2),
    "naive_bayes": (exp(-(pow(q - r, 2) / 2.42)), PortalOp.SUM, 1e-2),
    "prod": (exp(-(pow(q - r, 2) / 2.0)) * 1e-3 + 1.0, PortalOp.PROD, 1e-5),
}
NQ, NR = 60, 120


def _contract_expr(program, offset):
    rng = np.random.default_rng(11)
    Q = rng.standard_normal((NQ, 3)) * 2.0 + offset
    R = rng.standard_normal((NR, 3)) * 2.0 + offset
    g, op, tau = CONTRACT[program]
    e = PortalExpr(program)
    e.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
    if program == "kde":
        e.addLayer(op, r, Storage(R, name="reference"), g, bandwidth=1.0)
    else:
        e.addLayer(op, r, Storage(R, name="reference"), g)
    return e, tau


@functools.cache
def _interpreted(program, offset):
    e, _ = _contract_expr(program, offset)
    return np.asarray(e.execute(backend="interp").values)


@pytest.mark.parametrize("offset", [0.0, 1e2, 1e4])
@pytest.mark.parametrize("program", CONTRACT)
def test_far_field_meets_the_contract_of_the_interpreter(program, offset):
    """A sum within τ per reference point plus rounding of the
    interpreter; a product of terms in [1, 1.001], each moved by at
    most τ, within τ·|Π| per point.  The stack engine approximates the
    same pairs as the batched one, so the two meet the rounding rule."""
    e, tau = _contract_expr(program, offset)
    want = _interpreted(program, offset)
    runs = {}
    for engine in ("batched", "stack"):
        with collect() as counters:
            runs[engine] = np.asarray(e.execute(
                tau=tau, leaf_size=4, traversal=engine).values)
        runs[engine, "counters"] = {
            k: v for k, v in counters.as_dict().items()
            if k.startswith("traversal.")}
    assert runs["batched", "counters"]["traversal.approximated"] > 0
    assert runs["batched", "counters"] == runs["stack", "counters"]
    scale = np.abs(want).max() if program == "prod" else 1.0
    for engine in ("batched", "stack"):
        assert_sum_close(runs[engine], want, n=NR, tau=tau * scale)
    assert_sum_close(runs["stack"], runs["batched"], n=NR)


def test_an_approximation_emits_no_action():
    e, tau = _contract_expr("kde", 0.0)
    e.execute(tau=tau, leaf_size=4)
    source = e.generated_source()
    assert "apply_action" not in source and "rcentroid" not in source
    assert "rw[ridx[far]]" in source


# -- labels and process workers ----------------------------------------------

def test_sharded_self_excluding_kde_labels_its_pseudo_rows():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((NR, 3)) * 2.0
    data = Storage(X, name="data")
    e, options = _kde(data, data, 1.0, tau=1e-1, leaf_size=4,
                      exclude_self=True)
    prog = e.compile(shards=2, **options)
    got = np.asarray(prog.run().values)
    assert prog.stats.approximated > 0
    pack = prog.shard_exec.pack
    for tree, bound in zip(pack.trees, pack.bindings):
        label = bound.arrays["RLABEL"]
        assert label.shape[0] == bound.arrays["RROW"].shape[0]
        assert label.shape[0] == tree.n + tree.n_nodes
        assert (label[tree.n:] == -1).all() and (label[:tree.n] >= 0).all()
    # the interpreter takes no self pair out: each row's own g(0) = 1
    want = np.asarray(_kde(Storage(X, name="query"),
                           Storage(X, name="reference"), 1.0)[0]
                      .execute(backend="interp").values) - 1.0
    assert_sum_close(got, want, n=NR, tau=1e-1)


@pytest.mark.parametrize("weighted", [False, True])
def test_a_process_worker_tree_keeps_the_real_rows(weighted):
    rng = np.random.default_rng(13)
    X = rng.standard_normal((300, 3))
    w = rng.uniform(0.5, 2.0, len(X)) if weighted else None
    rtree = build_tree("kd", X, leaf_size=8, weights=w)
    arrays = Bindings.reference(rtree, RuleSpec("approx")).arrays
    assert arrays["RROW"].shape[0] == rtree.n + rtree.n_nodes
    assert arrays["rw"].shape[0] == rtree.n + rtree.n_nodes
    mass = rtree.wsum if weighted else rtree.end - rtree.start
    assert (arrays["rw"][rtree.n:] == mass).all()
    views = {**arrays, "r_child_offset": rtree.child_offset,
             "r_child_list": rtree.child_list}
    worker = _tree(views, "r")
    assert worker.n == rtree.n
    assert worker.points.tobytes() == rtree.points.tobytes()
