"""Shared helpers for the benchmark harnesses.

Every ``bench_*.py`` regenerates one table or figure of the paper's
evaluation section: it measures the relevant configurations through
pytest-benchmark, assembles the paper-style rows, prints them, and writes
them to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can quote
them.  Dataset sizes are scaled down from the paper's (see DESIGN.md S4);
the *shape* of each comparison — who wins, by roughly what factor — is
the reproduction target, not absolute seconds.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

from repro.data import DATASETS, load
from repro.observe import Counters, collect

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Benchmark-scale sizes per dataset (smaller than the registry defaults so
#: the full Table-IV sweep stays tractable on one core).
BENCH_SIZES = {
    "Census": 2000,
    "Yahoo!": 4000,
    "IHEPC": 4000,
    "HIGGS": 3000,
    "KDD": 2500,
    "Elliptical": 6000,
}


@functools.lru_cache(maxsize=None)
def dataset(name: str, n: int | None = None, seed: int = 0) -> np.ndarray:
    X = load(name, n or BENCH_SIZES[name], seed=seed)
    X.setflags(write=False)
    return X


def split_qr(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Query/reference split used by the query-style problems."""
    half = len(X) // 2
    return np.ascontiguousarray(X[:half]), np.ascontiguousarray(X[half:])


def wall(fn, repeats: int = 1) -> float:
    """Best-of wall-clock seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def observed_wall(fn, repeats: int = 1) -> tuple[float, Counters]:
    """Best-of wall-clock seconds plus the ``repro.observe`` counters
    accumulated over all repeats (rates are repeat-invariant; absolute
    counts and pass times cover every repeat)."""
    with collect() as counters:
        best = wall(fn, repeats)
    return best, counters


#: Headers matching :func:`stats_columns`, for table scripts.
STATS_HEADERS = ["prune%", "approx%"]


def stats_columns(counters: Counters) -> list[str]:
    """Observability columns for the paper-table rows: prune rate and
    approximation rate (the Table IV/V audit trail — see
    docs/observability.md)."""
    prune = counters.rate("traversal.pruned", "traversal.visited")
    approx = counters.rate("traversal.approximated", "traversal.visited")
    return [f"{100.0 * prune:.1f}", f"{100.0 * approx:.1f}"]


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    cols = [headers] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(headers))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(_fmt(c).ljust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(c) -> str:
    if isinstance(c, float):
        if c == 0:
            return "0"
        if abs(c) >= 1000 or abs(c) < 0.01:
            return f"{c:.3g}"
        return f"{c:.3f}"
    return str(c)


def emit(name: str, text: str) -> None:
    """Print a table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n{text}\n[written to {path}]", file=sys.stderr)


def host_meta() -> dict:
    """Host facts that contextualise any timing row: parallel speedups
    are meaningless without knowing how many cores the run actually had."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "numpy": np.__version__,
    }


def update_bench_json(filename: str, figure: str, rows: list[dict],
                      meta: dict | None = None) -> str:
    """Merge ``rows`` into a machine-readable results file, replacing any
    previous rows for the same ``figure`` (so the fig2 and fig3 ablations
    can share ``BENCH_ir.json`` without clobbering each other).  Every
    write stamps :func:`host_meta` under ``meta["host"]``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    payload = {"meta": {}, "rows": []}
    if os.path.exists(path):
        with open(path) as fh:
            payload = json.load(fh)
    payload["rows"] = [r for r in payload.get("rows", [])
                       if r.get("figure") != figure]
    payload["rows"].extend(dict(r, figure=figure) for r in rows)
    payload.setdefault("meta", {})["host"] = host_meta()
    if meta:
        payload["meta"].update(meta)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def time_interp_base_case(fn, layers, repeats: int = 5) -> float:
    """Best-of wall-clock seconds for one full interpreter sweep of a
    compiled ``BaseCase`` IR function over a two-layer problem's data —
    the measurement the Fig 2/3 IR-ablation rows are built from."""
    from repro.backend.interp import base_case_env, interpret_function

    outer, inner = layers

    def once():
        env = base_case_env(
            outer.storage.name, inner.storage.name,
            outer.storage.data, inner.storage.data,
        )
        interpret_function(fn, env)

    once()  # warm-up: dict layouts, code paths
    return wall(once, repeats)


def paper_scale_note(names: list[str]) -> str:
    rows = []
    for name in names:
        info = DATASETS[name]
        rows.append(f"  {name}: paper N={info.paper_n:,}, "
                    f"bench N={BENCH_SIZES[name]:,} (d={info.dim})")
    return "scaled datasets (DESIGN.md substitution S4):\n" + "\n".join(rows)
