"""Narrow rows are gathered with ``take``, and ``take`` changes no byte.

The emitted kernels, the tree write path and ``State.finalize`` spell
every integer-index gather of narrow rows ``X.take(i, axis=0)``
(``codegen._rows``), which copies exactly the bytes ``X[i]`` copies.
These tests hold that equality where it could break:

* no emitted source gathers a point (pseudo-points included),
  GEMM-operand or box array by an index array (slices stay
  subscripts);
* the suite programs of the benchmark spine, run with their emitted
  source as it is and with every ``.take(i, axis=0)`` rewritten back to
  ``[i]``, give byte-equal values, ids and ``traversal.*`` counters in
  the batched, stack and brute forms;
* across the spine's mutation cycles, a tree refit through a local copy
  of the fancy-indexing refit and one refit as the library does it hold
  byte-equal boxes, centres, diameters and changed-node ids.
"""

from __future__ import annotations

import pathlib
import re
import types

import numpy as np
import pytest

from repro.backend import codegen, jit
from repro.backend.cache import clear_caches
from repro.dsl import (
    PortalExpr, PortalOp, Storage, Var, exp, indicator, pow, sqrt,
)
from repro.dsl.parser import parse_program
from repro.trees import build_tree
from repro.trees.node import _ranges

SPINE = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "spine"
PROGRAMS = sorted(p.stem for p in (SPINE / "programs").glob("*.portal"))
#: the approximated sums take the spine's threshold
TAU = {"kde": 1e-3, "naive_bayes": 1e-3, "barnes_hut": 1e-3}
FORMS = {"batched": {}, "stack": {"traversal": "stack"},
         "brute": {"backend": "brute"}}
#: the arrays whose rows the kernels gather
GATHERED = ("QA", "RA", "QROW", "RROW", "rlo", "rhi", "qlo", "qhi")


@pytest.fixture(scope="module")
def suite_data(spine_datagen):
    return spine_datagen.inputs("compile_suite", 0)


def _parsed(prog, data, rows=None):
    text = (SPINE / "programs" / f"{prog}.portal").read_text()
    query = data["query"] if rows is None else data["query"][:rows]
    parsed = parse_program(text, {"query": query,
                                  "reference": data["reference"]})
    return parsed.portal_exprs[parsed.executed[0]]


def _kde_tau(data):
    """A Gaussian KDE whose threshold approximates many node pairs."""
    q, r = Var("q"), Var("r")
    e = PortalExpr("kde_tau")
    e.addLayer(PortalOp.FORALL, q, Storage(data["query"], name="query"))
    e.addLayer(PortalOp.SUM, r, Storage(data["reference"], name="reference"),
               exp(-(pow(q - r, 2) / 4.0)))
    return e


def _self_range_count(data):
    """A range count of one dataset against itself: the inside-region
    count takes its self pairs out by position."""
    q, r = Var("q"), Var("r")
    points = Storage(data["reference"], name="data")
    e = PortalExpr("self_range_count")
    e.addLayer(PortalOp.FORALL, q, points)
    e.addLayer(PortalOp.SUM, r, points, indicator(sqrt(pow(q - r, 2)) < 2.0))
    return e


#: case → (expression factory over the suite data, execute options)
CASES = {
    **{prog: (lambda data, p=prog: _parsed(p, data),
              {"tau": TAU[prog]} if prog in TAU else {})
       for prog in PROGRAMS},
    # 32 rows against 1 024: the bound rules' row regime
    "knn_rows": (lambda data: _parsed("knn", data, rows=32), {}),
    "kde_tau": (_kde_tau, {"tau": 1e-2}),
    "barnes_hut_mac": (lambda data: _parsed("barnes_hut", data),
                       {"criterion": "mac", "theta": 0.5}),
    "self_range_count": (_self_range_count, {}),
}


def _fancy(source: str) -> str:
    """``source`` with every ``X.take(i, axis=0)`` spelt ``X[i]``."""
    return re.sub(r"\.take\(([^()]+), axis=0\)", r"[\1]", source)


def _run(case, form, data, leaf_size=8):
    make, options = CASES[case]
    clear_caches()
    expr = make(data)
    out = expr.execute(leaf_size=leaf_size, **options, **FORMS[form])
    stats = expr.stats()
    return out, stats["traversal"], expr.generated_source()


def _assert_bytes_equal(a, b):
    if isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_bytes_equal(x, y)
    elif a is None or b is None:
        assert a is None and b is None
    else:
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_the_suite_is_the_spine_s_nine():
    assert len(PROGRAMS) == 9


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("case", CASES)
def test_take_gathers_the_bytes_fancy_indexing_gathers(case, form,
                                                      suite_data,
                                                      monkeypatch):
    out, counters, source = _run(case, form, suite_data)

    # no gather of a narrow-row array by an index array is left
    for name, index in re.findall(
            rf"\b({'|'.join(GATHERED)})\[([^\]]*)\]", source):
        assert ":" in index, f"{name}[{index}] in the {case} source"
    assert ".take(" in source

    def emit_fancy(spec):
        fancy = _fancy(codegen.emit(spec)[0])
        assert ".take(" not in fancy
        return fancy, compile(fancy, "<fancy>", "exec")

    monkeypatch.setattr(jit, "emit", emit_fancy)
    fancy_out, fancy_counters, fancy_source = _run(case, form, suite_data)
    assert fancy_source == _fancy(source)

    assert counters == fancy_counters
    for field in ("values", "indices", "scalar"):
        _assert_bytes_equal(getattr(out, field), getattr(fancy_out, field))


# -- the tree write path ------------------------------------------------------

def _fancy_refit_boxes(self, arrivals, departures):
    """``ArrayTree._refit_boxes`` with every row gather spelt ``X[i]``."""
    lo, hi = self.lo.copy(), self.hi.copy()
    touched = np.zeros(self.n_nodes, dtype=bool)
    if arrivals is not None:
        leaf, pts = arrivals
        cell = (leaf[:, None] * self.dim + np.arange(self.dim)).ravel()
        np.minimum.at(lo.reshape(-1), cell, pts.ravel())
        np.maximum.at(hi.reshape(-1), cell, pts.ravel())
        touched[leaf] = True
    boxes = 0
    if departures is not None:
        leaf, pts = departures
        edge = ((pts == self.lo[leaf]) | (pts == self.hi[leaf])).any(axis=1)
        rescan = np.zeros(self.n_nodes, dtype=bool)
        rescan[leaf[edge]] = True
        rescan = np.flatnonzero(rescan)
        counts = (self.end - self.start)[rescan]
        full, cnt = rescan[counts > 0], counts[counts > 0]
        if full.size:
            P = self.points[_ranges(self.start[full], cnt)]
            seg = np.cumsum(cnt) - cnt
            lo[full] = np.minimum.reduceat(P, seg, axis=0)
            hi[full] = np.maximum.reduceat(P, seg, axis=0)
        empty = rescan[counts == 0]
        lo[empty] = np.inf
        hi[empty] = -np.inf
        touched[rescan] = True
        boxes = rescan.size
    leaves = np.flatnonzero(touched)
    changed = np.zeros(self.n_nodes, dtype=bool)
    changed[leaves] = ((lo[leaves] != self.lo[leaves])
                       | (hi[leaves] != self.hi[leaves])).any(axis=1)
    kidmat = self._child_matrix()
    for ids, kids, seg in self._level_plan():
        kid_changed = changed[kids]
        if not kid_changed.any():
            continue
        p = ids[np.logical_or.reduceat(kid_changed, seg)]
        plo = lo[kidmat[p]].min(axis=1)
        phi = hi[kidmat[p]].max(axis=1)
        changed[p] = ((plo != lo[p]) | (phi != hi[p])).any(axis=1)
        lo[p], hi[p] = plo, phi
        boxes += p.size
    ids = np.flatnonzero(changed)
    diam = self.diameter.copy()
    with np.errstate(invalid="ignore"):
        span = hi[ids] - lo[ids]
        finite = np.isfinite(span).all(axis=1)
        diam[ids] = np.where(finite, span.max(axis=1), 0.0)
    self.lo, self.hi = lo, hi
    self.diameter = diam
    return ids, boxes


def _recording(tree) -> list:
    """The ``(changed ids, boxes recomputed)`` of every ``_refit`` of
    ``tree`` from now on."""
    log, refit = [], tree._refit

    def recorded(*args, **kwargs):
        changed, boxes = refit(*args, **kwargs)
        log.append((changed.tolist(), boxes))
        return changed, boxes

    tree._refit = recorded
    return log


def test_refit_by_take_matches_refit_by_fancy_indexing(spine_datagen):
    """``mutate_query``'s write path: each cycle moves half of 1 % of
    200 000 points out and the previous cycle's half back."""
    original = spine_datagen.inputs("mutate_query", 0)["reference"]
    take = build_tree("kd", original, leaf_size=64)
    fancy = take.snapshot()
    fancy._refit_boxes = types.MethodType(_fancy_refit_boxes, fancy)
    logs = [_recording(take), _recording(fancy)]

    moved = np.zeros(0, dtype=np.int64)
    for cycle in range(50):
        idx, delta = spine_datagen.mutation(0, cycle)
        back = np.setdiff1d(moved, idx)
        rows = np.concatenate([back, idx])
        points = np.concatenate([original[back], original[idx] + delta])
        for tree in (take, fancy):
            tree.update_batch(rows, points)
        moved = idx
        for name in ("lo", "hi", "diameter", "points"):
            a, b = getattr(take, name), getattr(fancy, name)
            assert a.tobytes() == b.tobytes(), (cycle, name)
        assert logs[0] == logs[1], cycle
    assert len(logs[0]) == 50
