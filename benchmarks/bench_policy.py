"""Self-tuning policy benchmark (the nine Table IV problems).

For each problem, three execution strategies are timed at the same
problem size:

* **hard-coded auto** — the static defaults, exactly what ``execute()``
  picks with no options;
* **best-static** — exhaustive best-of over the pruned joint candidate
  grid {engine × executor × codegen × leaf size × shards} (the oracle
  the measured search tries to approximate);
* **tuned-auto** — one budgeted policy search
  (:func:`repro.policy.ensure_policy`) followed by ``policy="auto"``
  runs that hit the persisted entry.

Rows land in ``benchmarks/results/BENCH_policy.json``.  The acceptance
gates — tuned-auto within 10% of best-static on every problem, and
strictly faster than hard-coded auto on at least 3 of the 9 — are only
meaningful where the candidate axes actually differ (multi-core hosts
widen the executor/shard axes), so like the parallel and shard
benchmarks they are enforced on >= 4-core full runs and recorded
honestly everywhere else.

Usage::

    PYTHONPATH=src python benchmarks/bench_policy.py [--smoke]
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import format_table, update_bench_json  # noqa: E402
from repro.backend.cache import clear_caches  # noqa: E402
from repro.backend.plan import CompileOptions, resolve_plan  # noqa: E402
from repro.dsl import (  # noqa: E402
    PortalExpr, PortalFunc, PortalOp, Storage, Var, indicator, pow, sqrt,
)
from repro.parallel import default_workers, shutdown_pools  # noqa: E402
from repro.policy import ensure_policy  # noqa: E402
from repro.policy.search import enumerate_axes  # noqa: E402

OUT_JSON = "BENCH_policy.json"
FIGURE = "table4-policy"

FULL_NQ, FULL_NR = 2_000, 40_000
SMOKE_NQ, SMOKE_NR = 300, 3_000

#: tuned-auto must stay within this factor of the best static choice
GATE_STATIC_FACTOR = 1.10
#: ... and strictly beat hard-coded auto on at least this many problems
GATE_BEAT_AUTO = 3
GATE_WORKERS = 4

PROBLEMS = ["knn", "nearest", "kde", "naive_bayes", "range_search",
            "range_count", "hausdorff", "em", "barnes_hut"]


def make_problem(name: str, Q: np.ndarray, R: np.ndarray):
    """``(build, base_opts)``: a fresh-expression factory plus the
    options every strategy shares (the problem definition, not tuning
    knobs)."""
    q, r = Var("q"), Var("r")

    def two_layer(outer, inner, func, **params):
        e = PortalExpr(name)
        e.addLayer(outer, Storage(Q, name="query"))
        e.addLayer(inner, Storage(R, name="reference"), func, **params)
        return e

    if name == "knn":
        return (lambda: two_layer(PortalOp.FORALL, (PortalOp.KARGMIN, 5),
                                  PortalFunc.EUCLIDEAN)), {}
    if name == "nearest":
        return (lambda: two_layer(PortalOp.FORALL, PortalOp.MIN,
                                  PortalFunc.EUCLIDEAN)), {}
    if name == "kde":
        return (lambda: two_layer(PortalOp.FORALL, PortalOp.SUM,
                                  PortalFunc.GAUSSIAN, bandwidth=0.5)), \
            {"tau": 1e-3}
    if name == "naive_bayes":
        return (lambda: two_layer(PortalOp.FORALL, PortalOp.SUM,
                                  PortalFunc.GAUSSIAN, bandwidth=1.1)), \
            {"tau": 1e-3}
    if name == "range_search":
        def build():
            e = PortalExpr(name)
            e.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
            e.addLayer(PortalOp.UNIONARG, r, Storage(R, name="reference"),
                       indicator(sqrt(pow(q - r, 2)) < 0.3))
            return e
        return build, {}
    if name == "range_count":
        def build():
            e = PortalExpr(name)
            e.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
            e.addLayer(PortalOp.SUM, r, Storage(R, name="reference"),
                       indicator(sqrt(pow(q - r, 2)) < 0.3))
            return e
        return build, {}
    if name == "hausdorff":
        return (lambda: two_layer(PortalOp.MAX, PortalOp.MIN,
                                  PortalFunc.EUCLIDEAN)), {}
    if name == "em":
        cov = np.diag([1.0, 2.0, 0.5])
        return (lambda: two_layer(PortalOp.FORALL, PortalOp.MIN,
                                  PortalFunc.MAHALANOBIS,
                                  covariance=cov)), {}
    if name == "barnes_hut":
        def build():
            e = PortalExpr(name)
            e.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
            e.addLayer(PortalOp.SUM, r, Storage(R, name="reference"),
                       pow(pow(q - r, 2) + 0.25, -0.5))
            return e
        return build, {"tau": 1e-3}
    raise AssertionError(f"unknown problem {name}")


def _make_data(nq: int, nr: int, seed: int = 0):
    """Clustered 3-D data (trees have structure to prune against)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10.0, 10.0, size=(8, 3))
    counts = np.full(8, nr // 8)
    counts[: nr % 8] += 1
    parts = [c + rng.standard_normal((m, 3))
             for c, m in zip(centers, counts)]
    R = np.ascontiguousarray(np.concatenate(parts))
    Q = np.ascontiguousarray(
        centers[rng.integers(0, 8, size=nq)]
        + rng.standard_normal((nq, 3)))
    return Q, R


def _measure(build, options: dict, repeats: int) -> float:
    build().execute(**options)  # warm: compile + tree caches, pools
    best = float("inf")
    for _ in range(repeats):
        expr = build()
        t0 = time.perf_counter()
        expr.execute(**options)
        best = min(best, time.perf_counter() - t0)
    return best


def _static_grid(nq: int, nr: int, static):
    """The full cross product of the pruned per-axis candidates around
    the static rules' plan — the oracle sweep the coordinate-descent
    search economises on."""
    axes = enumerate_axes(nq, nr,
                          bound_rule=static.engine == "bounded-batched",
                          workers=static.workers)
    keys = list(axes)
    for values in itertools.product(*(axes[k] for k in keys)):
        yield dataclasses.replace(static, **dict(zip(keys, values)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes / single repeat / no gate (CI smoke)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timed repeats per strategy (best-of)")
    args = ap.parse_args(argv)
    repeats = args.repeats or (1 if args.smoke else 2)
    nq, nr = (SMOKE_NQ, SMOKE_NR) if args.smoke else (FULL_NQ, FULL_NR)

    cores = default_workers()
    Q, R = _make_data(nq, nr)

    # The benchmark tunes into its own throwaway policy file — it must
    # never read or pollute the user's persistent cache.
    tmp = tempfile.NamedTemporaryFile(prefix="bench-policy-",
                                      suffix=".json", delete=False)
    tmp.close()
    os.environ["REPRO_POLICY_PATH"] = tmp.name

    rows = []
    for name in PROBLEMS:
        build, base = make_problem(name, Q, R)
        probe = build()
        probe.validate()
        static = resolve_plan(CompileOptions.from_dict(base), {}, None,
                              probe.layers)

        clear_caches()
        auto_s = _measure(build, dict(base), repeats)

        best_static_s, best_static = float("inf"), None
        for cand in _static_grid(nq, nr, static):
            clear_caches()
            t = _measure(build, {**base, **cand.to_options()}, repeats)
            if t < best_static_s:
                best_static_s, best_static = t, cand.label()

        clear_caches()
        t0 = time.perf_counter()
        key, entry, _ = ensure_policy(build().layers, base, force=True)
        search_s = time.perf_counter() - t0
        clear_caches()
        tuned_s = _measure(build, dict(base, policy="auto"), repeats)

        rows.append({
            "problem": name, "nq": nq, "nr": nr, "workers": cores,
            "auto_s": auto_s, "best_static_s": best_static_s,
            "best_static": best_static, "tuned_s": tuned_s,
            "tuned": entry.config, "search_s": round(search_s, 4),
            "tuned_vs_static": round(tuned_s / best_static_s, 3),
            "tuned_vs_auto": round(tuned_s / auto_s, 3),
        })
        print(f"  {name:>12} auto {auto_s:.4f}s  best-static "
              f"{best_static_s:.4f}s ({best_static})  tuned "
              f"{tuned_s:.4f}s", file=sys.stderr)

    within = [r for r in rows
              if r["tuned_s"] <= r["best_static_s"] * GATE_STATIC_FACTOR]
    beat_auto = [r for r in rows if r["tuned_s"] < r["auto_s"]]
    enforced = cores >= GATE_WORKERS and not args.smoke

    path = update_bench_json(
        OUT_JSON, FIGURE, rows,
        meta={"smoke": args.smoke, "repeats": repeats,
              "host_workers": cores,
              "gate": {"static_factor": GATE_STATIC_FACTOR,
                       "beat_auto_min": GATE_BEAT_AUTO,
                       "workers": GATE_WORKERS,
                       "within_static": len(within),
                       "beat_auto": len(beat_auto),
                       "problems": len(rows), "enforced": enforced}})
    print(f"[written to {path}]", file=sys.stderr)

    print(format_table(
        "Self-tuning policy vs hard-coded auto and the static oracle",
        ["problem", "auto (s)", "best-static (s)", "tuned (s)",
         "vs static", "vs auto"],
        [[r["problem"], f"{r['auto_s']:.4f}", f"{r['best_static_s']:.4f}",
          f"{r['tuned_s']:.4f}", r["tuned_vs_static"], r["tuned_vs_auto"]]
         for r in rows]
        + [[f"(host cores: {cores})", "", "", "", "", ""]],
    ), file=sys.stderr)

    shutdown_pools()
    os.unlink(tmp.name)

    if enforced:
        failures = []
        if len(within) < len(rows):
            bad = [r["problem"] for r in rows if r not in within]
            failures.append(
                f"tuned-auto misses the {GATE_STATIC_FACTOR}x-of-best-"
                f"static gate on: {bad}")
        if len(beat_auto) < GATE_BEAT_AUTO:
            failures.append(
                f"tuned-auto beats hard-coded auto on only "
                f"{len(beat_auto)}/{len(rows)} problems "
                f"(need >= {GATE_BEAT_AUTO})")
        if failures:
            for f in failures:
                print(f"[FAIL] {f}", file=sys.stderr)
            return 1
        print(f"[gates passed: {len(within)}/{len(rows)} within "
              f"{GATE_STATIC_FACTOR}x of best-static; tuned beats auto "
              f"on {len(beat_auto)}/{len(rows)}]", file=sys.stderr)
    else:
        why = ("smoke run" if args.smoke
               else f"host has {cores} usable core(s); needs >= "
                    f"{GATE_WORKERS}")
        print(f"[gate skipped: {why}] within-static "
              f"{len(within)}/{len(rows)}, beats-auto "
              f"{len(beat_auto)}/{len(rows)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
