"""Stateless actions over arrays of pairs, and block values in place.

An inside-region action's ``apply_action(qis, ris)`` applies many node
pairs at once: the batched engine calls it once per epoch with every
code-2 pair in pool order, the stack engine with its one pair.  It
accumulates with ``np.add.at`` in pair order, so range count (weighted,
with positional and label self-exclusion) is held *bitwise* to a replay
that applies the same pairs one at a time through a test-local copy of
the per-pair action the emitter produced before (``_per_pair_source``).

An approximated pair has no action: it is its query node against the
reference node's pseudo-point, a column of ``base_case_group``.  The
replay takes those columns out of each grouped call and applies them
one pair at a time through the old per-pair approximation (the node's
mass times g at its centroid, in the difference form, with the mass
read off the tree), so KDE at τ, the naive-Bayes density, a weighted
Barnes–Hut potential (``mac``) and a PROD approximation are held to it
by the output contract's sum and product rules, with equal
``traversal.*`` counters.  Every program runs serial, on threads, on
processes and over two shards, self-join and bichromatic, d ∈ {3, 9}.

The one expression emitter (``codegen._value_lines``) writes ``g`` one
value per line, into a buffer of ``t`` where it is read for the last
time; its lines, owned and scalar, are held bitwise to the DSL's own
evaluation (``Expr.evaluate``) for every suite kernel and a few more.
``classify_batch`` takes both box-distance bounds from one gather of
the four box arrays; they are held bitwise to the node-distance
functions.
"""

import dataclasses

import numpy as np
import pytest

from repro.backend import codegen, jit
from repro.backend.codegen import (
    CHUNK_CELLS, _pair_chunks, _pair_edges_lines, _scale_fold, _value_lines,
)
from repro.data.synthetic import ihepc
from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, Storage, Var, exp, indicator, pow, sqrt,
)
from repro.dsl.expr import BinOp, Call, Const, Indicator, Neg
from repro.ir.nodes import IRCall, SymRef
from repro.ir.strength_reduction import reduce_expr
from repro.observe import collect
from repro.problems import (
    hausdorff, kde, knn, naive_bayes_fit, range_count, range_search,
    two_point_correlation,
)
from repro.problems.barnes_hut import gravity_kernel
from repro.traversal import engines

from tests.contract import assert_bitwise, assert_sum_close

q, r = Var("q"), Var("r")


def _per_pair_source(spec) -> str:
    """``_pair_action(qi, ri)``: the per-pair action as the emitter
    spelt it before actions took arrays of pairs (a test-local copy,
    with g evaluated by the DSL, ``G``), for the replay; an
    approximation's takes the query slice ``(s, e)`` for ``qi``."""
    rule = spec.rule
    if rule.kind == "approx":
        assert spec.base == "sqeuclidean"
        g = "G.evaluate({'t': tc})"
        body = ["s, e = qi", "c = rcentroid[ri]",
                "dqc = QROW[s:e] - c",
                "tc = np.einsum('ij,ij->i', dqc, dqc)",
                f"acc[s:e] *= np.power({g}, rweight[ri])"
                if spec.inner_op is PortalOp.PROD
                else f"acc[s:e] += rweight[ri] * {g}"]
    else:
        assert rule.inside_action == "count_per_query"
        body = ["s = qstart[qi]; e = qend[qi]", "acc[s:e] += rweight[ri]"]
        if spec.labels:
            body += ["sp = RLABEL[rstart[ri]:rend[ri]]",
                     "m = (sp >= s) & (sp < e)",
                     "acc[sp[m]] -= rw[rstart[ri]:rend[ri]][m]"
                     if spec.weighted else "acc[sp[m]] -= 1.0"]
        elif spec.same_tree and spec.exclude_self:
            body += ["lo = max(s, rstart[ri]); hi = min(e, rend[ri])",
                     "if lo < hi:",
                     "    acc[lo:hi] -= rw[lo:hi]" if spec.weighted
                     else "    acc[lo:hi] -= 1.0"]
    return "\n".join(["def _pair_action(qi, ri):",
                      *("    " + line for line in body)])


@pytest.fixture
def specs(monkeypatch):
    """Emitted source → its ``CodegenSpec``, for every program compiled
    while the test runs."""
    seen = {}
    emit = jit.emit

    def recording(spec):
        source, code = emit(spec)
        seen[source] = spec
        return source, code

    monkeypatch.setattr(jit, "emit", recording)
    return seen


def _replayed(kk, spec, rtree):
    """``kk`` with its actions, or its pseudo-point columns, applied one
    pair at a time through :func:`_per_pair_source`."""
    weighted = rtree.weights is not None
    ns = {**kk.namespace, "G": spec.g_ir,
          "rcentroid": rtree.wcentroid if weighted else rtree.centroid,
          "rweight": rtree.wsum if weighted
          else (rtree.end - rtree.start).astype(np.float64)}
    exec(_per_pair_source(spec), ns)
    one = ns["_pair_action"]
    if kk.apply_action is not None:
        def action(qis, ris):
            for qi, ri in zip(qis.tolist(), ris.tolist()):
                one(qi, ri)
        return dataclasses.replace(kk, apply_action=action)
    group = kk.base_case_group

    def grouped(qs, qe, ridx):
        far = ridx >= rtree.n
        if not far.all():
            group(qs, qe, ridx[~far])
        for ri in (ridx[far] - rtree.n).tolist():
            one((qs, qe), ri)
    return dataclasses.replace(kk, base_case_group=grouped)


def _counted(kk, rtree, sizes):
    """``kk`` recording the pairs of each action call, or the
    pseudo-point columns of each grouped call that has any."""
    if kk.apply_action is not None:
        batched = kk.apply_action

        def action(qis, ris):
            sizes.append(len(qis))
            batched(qis, ris)
        return dataclasses.replace(kk, apply_action=action)
    group = kk.base_case_group

    def grouped(qs, qe, ridx):
        far = int(np.count_nonzero(ridx >= rtree.n))
        if far:
            sizes.append(far)
        group(qs, qe, ridx)
    return dataclasses.replace(kk, base_case_group=grouped)


@pytest.fixture
def replay(monkeypatch, specs):
    """Route every traversal's actions and far field (both engines)
    through the per-pair replay.  After ``calls["on"] = False`` the
    emitted kernels run instead, and ``calls["sizes"]`` records the
    pairs of each action call (the pseudo-points of each grouped
    call)."""
    calls = {"on": True, "sizes": []}
    originals = dict(engines.ENGINES)

    def wrap(name):
        def run(qtree, rtree, kk, **kw):
            if kk.apply_action is not None or " rule=approx" in kk.source:
                kk = (_replayed(kk, specs[kk.source], rtree) if calls["on"]
                      else _counted(kk, rtree, calls["sizes"]))
            return originals[name](qtree, rtree, kk, **kw)
        return run

    for name in originals:
        monkeypatch.setitem(engines.ENGINES, name, wrap(name))
    return calls


def _data(d, seed):
    if d == 3:
        return np.random.default_rng(seed).uniform(0.0, 10.0, (900, 3))
    return ihepc(900, seed=seed)


def _expr(program, Q, R, w):
    """The program's expression and its execute options."""
    if R is None:
        qs = rs = Storage(Q, weights=w, name="data")
    else:
        qs, rs = Storage(Q, name="query"), Storage(R, weights=w, name="reference")
    expr = PortalExpr(f"actions-{program}")
    expr.addLayer(PortalOp.FORALL, q, qs)
    if program == "kde":
        expr.addLayer(PortalOp.SUM, r, rs, PortalFunc.GAUSSIAN, bandwidth=0.3)
        options = dict(tau=1e-3, leaf_size=16)
    elif program == "naive_bayes":
        expr.addLayer(PortalOp.SUM, r, rs, exp(-(pow(q - r, 2) / 2.42)))
        options = dict(tau=1e-3, leaf_size=16)
    elif program == "barnes_hut":
        expr.addLayer(PortalOp.SUM, r, rs, gravity_kernel())
        options = dict(criterion="mac", theta=0.5, leaf_size=16)
    elif program == "prod":
        expr.addLayer(PortalOp.PROD, r, rs,
                      exp(-(pow(q - r, 2) / 2.0)) * 1e-3 + 1.0)
        options = dict(tau=1e-6, leaf_size=16)
    else:
        h = 3.0 if Q.shape[1] == 3 else 1.5
        expr.addLayer(PortalOp.SUM, r, rs, indicator(sqrt(pow(q - r, 2)) < h))
        options = dict(leaf_size=8)
    options["exclude_self"] = R is None
    return expr, options


#: program → weighted reference
PROGRAMS = {"kde": False, "naive_bayes": False, "barnes_hut": True,
            "prod": False, "range_count": True}
EXECUTORS = {
    "serial": {},
    "stack": dict(traversal="stack"),
    "thread": dict(parallel=True, workers=2, executor="thread"),
    "process": dict(parallel=True, workers=2, executor="process"),
    "shards2": dict(shards=2),
}


def _run(program, d, join, executor, **extra):
    R = _data(d, 1)
    w = (np.random.default_rng(3).uniform(0.5, 2.0, len(R))
         if PROGRAMS[program] else None)
    Q, R = (R, None) if join == "self" else (_data(d, 2), R)
    expr, options = _expr(program, Q, R, w)
    with collect() as counters:
        out = expr.execute(**{**options, **extra}, **EXECUTORS[executor])
    return out, {k: v for k, v in counters.as_dict().items()
                 if k.startswith("traversal.")}


def _assert_replayed(program, got, want):
    """Range count bitwise; an approximation within the sum (or product)
    rule over the 900 reference points, τ = 0: both sides approximate
    the same pairs."""
    if program == "range_count":
        assert_bitwise(got, want)
    else:
        assert_sum_close(got, want, n=900)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("join", ["self", "bichromatic"])
@pytest.mark.parametrize("d", [3, 9])
@pytest.mark.parametrize("program", PROGRAMS)
def test_actions_bitwise_against_per_pair_replay(program, d, join, executor,
                                                 replay):
    # a process worker binds its own kernels, out of the replay's reach:
    # it is held to the thread executor's replay, the same plan
    want, c_want = _run(program, d, join,
                        "thread" if executor == "process" else executor)
    replay["on"] = False
    got, c_got = _run(program, d, join, executor)
    _assert_replayed(program, got, want)
    assert c_got == c_want
    assert c_want["traversal.approximated"] > 0
    if executor != "process":
        batched = executor != "stack"
        assert replay["sizes"]
        assert (max(replay["sizes"]) > 1) == batched


def test_prod_of_two_point_nodes(replay):
    """A node of two points raises its pseudo-point's value to the power
    2.0 (``np.power`` over an array of exponents, where the replay
    squares a scalar): within the product rule of the per-pair bits."""
    want, c_want = _run("prod", 9, "bichromatic", "serial", leaf_size=2)
    replay["on"] = False
    got, _ = _run("prod", 9, "bichromatic", "serial", leaf_size=2)
    assert_sum_close(got, want, n=900)
    assert c_want["traversal.approximated"] > 0


def test_chunked_actions_move_no_bit(monkeypatch):
    """Cutting an epoch's pairs into slices, down to one pair each,
    changes no output: the slices run in order."""
    want, _ = _run("range_count", 3, "self", "serial")
    monkeypatch.setattr(codegen, "_pair_chunks",
                        lambda cells: ((a, a + 1) for a in range(len(cells))))
    got, _ = _run("range_count", 3, "self", "serial")
    assert_bitwise(got, want)


@pytest.mark.parametrize("cells", [
    [], [5], [3, 3, 3], [CHUNK_CELLS, 1, 1], [1, 2 * CHUNK_CELLS, 1],
    list(np.random.default_rng(0).integers(1, CHUNK_CELLS // 3, 40)),
])
def test_pair_chunks_cover_in_order(cells):
    cells = np.asarray(cells, dtype=np.int64)
    edges = list(_pair_chunks(cells))
    bounds = [0, *(b for _, b in edges)]
    assert [a for a, _ in edges] == bounds[:-1]
    assert bounds[-1] == cells.size
    for a, b in edges:
        assert b - a == 1 or cells[a:b].sum() <= CHUNK_CELLS


# -- block values in place ----------------------------------------------------
T = SymRef("t")

#: kernels beyond the suite's: g reading t twice, value-numbered shared
#: squares, t on the right of a constant sub-tree, nested max/min, an
#: indicator and Barnes–Hut's softened potential
EXTRA = {
    "t-twice": BinOp("*", Call("exp", BinOp("/", Neg(T), Const(2.0))),
                     BinOp("+", Const(1.0), T)),
    "t-exp": BinOp("*", T, Call("exp", Neg(T))),
    "pow4-shared": reduce_expr(IRCall("pow", (T, Const(4.0)))),
    "pow8-shared": reduce_expr(IRCall("pow", (T, Const(8.0)))),
    "constant-subtree": BinOp("/", Call("sqrt", BinOp("+", Const(1.0),
                                                       Const(2.0))),
                              BinOp("+", T, Const(0.25))),
    "max-min": IRCall("min", (IRCall("max", (T, Const(0.5))), Const(9.0))),
    "indicator": Indicator("<", Call("sqrt", T), Const(4.0)),
    "barnes-hut": IRCall("pow", (BinOp("+", T, Const(0.25)), Const(-0.5))),
}


def _suite_kernels(specs):
    """g of every Table III program the suite compiles, as emitted."""
    rng = np.random.default_rng(5)
    P, Q = rng.normal(size=(120, 3)), rng.normal(size=(90, 3))
    kde(Q, P, bandwidth=0.7)
    knn(Q, P, k=3)
    range_search(Q, P, h=0.5)
    range_count(Q, P, h=0.5)
    hausdorff(Q, P)
    two_point_correlation(P, 0.4)
    naive_bayes_fit(P, rng.integers(0, 2, len(P))).predict(Q)
    for program in ("naive_bayes", "barnes_hut", "prod"):
        expr, options = _expr(program, Q, P, None)
        expr.execute(**options)
    return {f"{i}:{s.g_ir!r}": s.g_ir for i, s in enumerate(specs.values())}


def test_in_place_values_match_out_of_place(specs):
    """The emitted lines of every g (and its scale-folded h) give
    ``Expr.evaluate``'s bits: owned, on an array they may overwrite;
    not, on an array and on ``np.float64`` scalars (the stack engine's
    node pairs)."""
    kernels = {**_suite_kernels(specs), **EXTRA}
    assert len(kernels) > 12
    t0 = np.random.default_rng(7).uniform(0.0, 30.0, (37, 41))
    in_place = 0
    for g in kernels.values():
        for h in (g, _scale_fold(g)[1]):
            want = np.broadcast_to(h.evaluate({"t": t0.copy()}), t0.shape)
            for t, owned in ((t0.copy(), True), (t0.copy(), False),
                             *((np.float64(x), False) for x in t0[0, :9])):
                ns = {"np": np, "t": t}
                lines, v = _value_lines(h, owned=owned)
                exec("\n".join(lines), ns)
                got = ns[v]
                if np.ndim(t):
                    assert_bitwise(np.broadcast_to(got, t0.shape), want)
                else:
                    assert_bitwise(np.float64(got),
                                   np.float64(h.evaluate({"t": t})))
                in_place += owned and "out=" in "".join(lines)
    assert in_place > 12
    # shared squares are computed once; t read again is not overwritten
    assert _value_lines(EXTRA["pow4-shared"], owned=True) == (
        ["np.multiply(t, t, out=t)", "v = np.multiply(t, t, out=t)"], "v")
    assert _value_lines(EXTRA["pow8-shared"])[0] == [
        "_t1 = (t * t)", "_t2 = (_t1 * _t1)", "v = (_t2 * _t2)"]
    assert _value_lines(EXTRA["t-exp"], owned=True)[0] == [
        "_t1 = (-(t))", "np.exp(_t1, out=_t1)",
        "v = np.multiply(t, _t1, out=t)"]


def test_classify_edges_match_node_distances(monkeypatch):
    """Both bounds from one gather equal ``pair_min_base_dist`` /
    ``pair_max_base_dist`` bitwise, for every pair of nodes.  (The
    programs call no far-edge function, so the test emits its own.)"""
    checked = []
    run = engines.ENGINES["batched"]

    def check(qtree, rtree, kk, **kw):
        spec = codegen.CodegenSpec(dim=qtree.dim, base="sqeuclidean",
                                   g_ir=T, monotone=None)
        qis, ris = np.meshgrid(np.arange(qtree.n_nodes),
                               np.arange(rtree.n_nodes), indexing="ij")
        ns = {**kk.namespace, "qis": qis.ravel(), "ris": ris.ravel()}
        exec(codegen._node_distance_source(spec, "max"), ns)
        exec("\n".join(_pair_edges_lines(spec)), ns)
        assert_bitwise(ns["tmin"], kk.pair_min_dist(ns["qis"], ns["ris"]))
        assert_bitwise(ns["tmax"],
                       ns["pair_max_base_dist"](ns["qis"], ns["ris"]))
        assert "pair_min_base_dist(qis" not in kk.source
        checked.append(kk.source)
        return run(qtree, rtree, kk, **kw)

    monkeypatch.setitem(engines.ENGINES, "batched", check)
    _run("kde", 9, "bichromatic", "serial")
    _run("range_count", 3, "self", "serial")
    assert len(checked) == 2
