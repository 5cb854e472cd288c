"""Measured policy search over the joint execution-configuration space.

The generalisation of ``tune_leaf_size``'s subsample-timing approach
(paper V-B) from one knob to the joint space

    {executor × leaf size}.

The engine and the shard count are no axes (plans run the batched
engine, and only an explicit option shards).  The cross product is
3 executors × 3 leaf sizes = 9 configurations, so the search is
structured:

* **pruned enumeration**: per-axis candidate lists drop everything the
  existing validity rules forbid (the process/thread executors on
  single-core hosts);
* **coordinate descent**: starting from the plan the static rules
  resolve (:func:`repro.backend.plan.resolve_plan` with no policy),
  one axis is swept at a time (executor first — the biggest lever —
  then leaf size), keeping the incumbent for every other axis.
  ~5 timed configurations instead of 9;
* **budgeted timing**: measurements run through
  :func:`repro.util.tune.measure_candidates` on *subsampled* inputs
  (stride subsample, spatially unbiased) under a total wall-clock
  budget — when the budget runs out the best-so-far wins.

A candidate *is* an :class:`~repro.backend.plan.ExecutionPlan`: each
one is timed by executing the program under ``plan.to_options()``
through the real compiler (with ``policy="static"`` pinned so it can
never recurse into itself).
"""

from __future__ import annotations

import time
from dataclasses import asdict, replace

import numpy as np

from ..backend.plan import ExecutionPlan
from ..observe import contribute, span
from ..util.tune import measure_candidates
from .store import PolicyEntry

__all__ = [
    "SEARCH_LEAF_CANDIDATES", "SEARCH_SUBSAMPLE_Q", "SEARCH_SUBSAMPLE_R",
    "SEARCH_BUDGET_S", "enumerate_axes", "search_policy",
]

#: leaf sizes the search sweeps (a subset of the tune_leaf_size grid —
#: the extremes rarely win and each costs a fresh tree build)
SEARCH_LEAF_CANDIDATES = (32, 64, 128)

#: subsample caps: searches over larger inputs run on a stride draw
#: (relative ranking is the product, not absolute seconds)
SEARCH_SUBSAMPLE_Q = 4096
SEARCH_SUBSAMPLE_R = 16384

#: total measurement budget per search (seconds); best-so-far wins when
#: it runs out
SEARCH_BUDGET_S = 5.0

#: timed repeats per candidate (best-of, after one warm run)
SEARCH_REPEATS = 2


def enumerate_axes(*, workers: int) -> dict[str, list]:
    """Pruned per-axis candidate lists (validity rules applied here)."""
    executors = ["serial"]
    if workers > 1:
        executors += ["thread", "process"]
    return {
        "executor": executors,
        "leaf_size": sorted({int(l) for l in SEARCH_LEAF_CANDIDATES}),
    }


#: axis (plan field) sweep order: biggest lever first
AXIS_ORDER = ("executor", "leaf_size")


def _stride_subsample(data: np.ndarray, cap: int) -> np.ndarray:
    """Deterministic, spatially unbiased subsample: every ``ceil(n/cap)``-th
    row.  Slicing (``data[:cap]``) would keep one spatial corner of a
    sorted dataset and bias every tree-shape measurement."""
    n = len(data)
    if n <= cap:
        return data
    step = -(-n // cap)
    return np.ascontiguousarray(data[::step])


def subsampled_layers(layers, max_q: int = SEARCH_SUBSAMPLE_Q,
                      max_r: int = SEARCH_SUBSAMPLE_R):
    """A fresh :class:`~repro.dsl.portal_expr.PortalExpr` factory over
    subsampled copies of the layer datasets.

    Layers sharing one Storage (monochromatic problems) keep sharing the
    subsampled Storage, as :meth:`PortalExpr.rebind` guarantees.
    """
    from ..dsl.portal_expr import PortalExpr
    from ..dsl.storage import Storage

    caps = [max_q] + [max_r] * (len(layers) - 1)
    subs: dict[Storage, Storage] = {}
    for layer, cap in zip(layers, caps):
        st = layer.storage
        if st in subs:
            continue
        data = _stride_subsample(st.data, cap)
        weights = None
        if st.weights is not None:
            weights = _stride_subsample(st.weights, cap)
        subs[st] = Storage(data, weights=weights, name=f"{st.name}@tune")

    template = PortalExpr.from_layers(layers, "policy-tune")
    return (lambda: template.rebind(subs),
            subs[layers[0].storage].n, subs[layers[-1].storage].n)


def search_policy(run, axes: dict[str, list], start: ExecutionPlan, *,
                  repeats: int = SEARCH_REPEATS,
                  budget_s: float | None = SEARCH_BUDGET_S,
                  clock=None) -> tuple[ExecutionPlan, dict]:
    """Coordinate-descent minimisation of ``run(plan)`` wall-clock;
    returns the best plan and every measured ``plan → seconds``.

    One axis at a time in :data:`AXIS_ORDER`; each sweep replaces only
    that axis on the incumbent, reusing timings for configurations
    already measured.  ``budget_s`` bounds the *total* measurement time
    across all sweeps.
    """
    now = clock if clock is not None else time.perf_counter
    t_start = now()
    timings: dict[ExecutionPlan, float] = {}
    best = start
    for axis in AXIS_ORDER:
        sweep = []
        for cand in [best] + [replace(best, **{axis: v})
                              for v in axes.get(axis, [])]:
            if cand not in timings and cand not in sweep:
                sweep.append(cand)
        if not sweep:
            continue
        remaining = (None if budget_s is None
                     else max(0.0, budget_s - (now() - t_start)))
        if remaining == 0.0 and timings:
            contribute({"policy.search_budget_exhausted": 1})
            break
        measured = measure_candidates(
            run, sweep, repeats=repeats, clock=now, budget_s=remaining)
        timings.update(measured)
        best = min(timings, key=timings.get)
    return best, timings


def run_search(layers, opts, start: ExecutionPlan, *,
               repeats: int = SEARCH_REPEATS,
               budget_s: float | None = SEARCH_BUDGET_S,
               max_q: int = SEARCH_SUBSAMPLE_Q,
               max_r: int = SEARCH_SUBSAMPLE_R) -> PolicyEntry:
    """End-to-end measured search for one program: subsample, sweep,
    return the storable entry.

    ``opts`` are the caller's :class:`~repro.backend.plan.CompileOptions`;
    each candidate's own options override them, and ``policy`` is
    pinned to ``"static"`` so the timed executions never re-enter the
    policy layer.  ``start`` is the static rules' plan — the descent's
    start point, and the fallback when every measurement fails.
    """
    build, sub_nq, sub_nr = subsampled_layers(layers, max_q, max_r)
    base = asdict(replace(opts, policy="static"))

    def run(cand: ExecutionPlan) -> None:
        build().execute(**{**base, **cand.to_options()})

    axes = enumerate_axes(workers=start.workers)
    t0 = time.perf_counter()
    with span("policy.search", nq=sub_nq, nr=sub_nr):
        # Warm once outside the timings: the first execution pays
        # compile + tree build for the subsample; candidates after it
        # share the code/tree caches exactly as serving traffic does.
        try:
            run(start)
        except Exception:
            contribute({"policy.search_failed": 1})
            return PolicyEntry(config=start.to_config(),
                               measured_nq=sub_nq, measured_nr=sub_nr)
        best, timings = search_policy(
            run, axes, start, repeats=repeats, budget_s=budget_s)
    contribute({"policy.search": 1})
    contribute({"policy.search_s": time.perf_counter() - t0})
    return PolicyEntry(
        config=best.to_config(),
        timings={plan.label(): round(t, 6) for plan, t in timings.items()},
        measured_nq=sub_nq, measured_nr=sub_nr,
    )
