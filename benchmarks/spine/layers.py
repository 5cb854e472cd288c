"""Per-layer measurements of the traced run, taken from outside ``src/``:
the benchmark's own spans around each layer's public functions, and the
public ``repro.observe.collect()`` counters read at the same boundaries.

Times are scaled to nominal host speed (see ``probe.py``) except the
``parallel.*`` ratios, which need both cores and are raw.  A metric a
workload does not exercise is left out here and reported as 0 by
``run.py``; README.md has the table of which workload measures what.
"""

from __future__ import annotations

import os
import statistics
import time

import datagen
from workloads import CompileSuite, ServeFanin

#: side of the fixed square slice the kernel-rate and engine ratios use
SLICE = 2_000
#: execute()'s default leaf size, for the direct build_tree call
LEAF_SIZE = 64


def _median_of(samples: list) -> dict:
    """Per-key median over the consistent ``(ok, dict)`` samples."""
    good = [s for ok, s in samples if ok] or [s for _, s in samples]
    return {k: statistics.median(s.get(k, 0.0) for s in good)
            for k in good[0]}


def compile_path(workload, host, spans, reps: int = 3) -> dict:
    """dsl / rules / ir / trees / backend compile metrics: each layer's
    public entry point called directly, once per program, in a span."""
    from repro.backend.cache import clear_caches
    from repro.ir.lowering import lower
    from repro.ir.passes import PassManager
    from repro.ir.printer import render_program
    from repro.rules import build_rules
    from repro.trees import build_tree

    samples = []
    br = host.bracket()
    for _ in range(reps):
        first = len(spans.rows)
        ir_lines = source_lines = points = 0
        for make_expr, options, parse in workload.programs():
            if parse is not None:
                with spans.span("dsl.parse"):
                    parse()
            expr = make_expr()
            with spans.span("dsl.validate"):
                expr.validate()
            kernel = expr.layers[-1].metric_kernel
            with spans.span("rules.build_rules"):
                classification, rule = build_rules(
                    expr.layers, kernel, tau=options.get("tau", 0.0))
            with spans.span("ir.lower"):
                lowered = lower(expr.layers, kernel, classification, rule,
                                expr.name)
            passes = PassManager()
            with spans.span("ir.passes"):
                passes.run(lowered)
            ir_lines += len(
                render_program(passes.stage("final")).splitlines())
            for layer in expr.layers:
                with spans.span("trees.build_tree"):
                    build_tree("kd", layer.storage.data, leaf_size=LEAF_SIZE)
                points += layer.storage.n
            clear_caches()
            with spans.span("backend.compile_cold"):
                program = make_expr().compile(**options)
            with spans.span("backend.compile_hit"):
                make_expr().compile(**options)
            source_lines += len(program.generated_source().splitlines())
        scale, ok = br.close()
        samples.append((ok, {k: v * scale for k, v
                             in spans.self_times(first).items()}))
    sec = _median_of(samples)
    rest = (sec["backend.compile_cold"] - sec["rules.build_rules"]
            - sec["ir.lower"] - sec["ir.passes"] - sec["trees.build_tree"])
    return {
        "dsl.parse_ms": sec.get("dsl.parse", 0.0) * 1e3,
        "dsl.validate_ms": sec["dsl.validate"] * 1e3,
        "rules.build_ms": sec["rules.build_rules"] * 1e3,
        "ir.lower_ms": sec["ir.lower"] * 1e3,
        "ir.passes_ms": sec["ir.passes"] * 1e3,
        "ir.final_lines": ir_lines,
        "trees.build_s": sec["trees.build_tree"],
        "trees.build_points_per_s": points / sec["trees.build_tree"],
        "backend.compile_cold_ms": sec["backend.compile_cold"] * 1e3,
        "backend.compile_hit_ms": sec["backend.compile_hit"] * 1e3,
        "backend.codegen_rest_ms": rest * 1e3,
        "backend.source_lines": source_lines,
    }


def _run_seconds(host, make_expr, options: dict, reps: int = 3) -> float:
    """``program.run()`` alone, on a cache-hit compile."""
    return host.timed(lambda program: program.run(), reps,
                      lambda: make_expr().compile(**options))


def traversal(workload, host, spans) -> dict:
    """Run time and the exact traversal counters of one op."""
    from repro.observe import collect

    def make_expr():
        return workload.make_expr(workload.query, workload.reference)

    def run(program):
        with spans.span("traversal.run"):
            program.run()

    run_s = host.timed(run, 3,
                       lambda: make_expr().compile(**workload.options))
    with collect() as counters:
        make_expr().execute(**workload.options)
    c = counters.as_dict()
    visited = c.get("traversal.visited", 0)
    pairs = c.get("traversal.base_case_pairs", 0)
    return {
        "traversal.run_s": run_s,
        "traversal.visited": visited,
        "traversal.pruned": c.get("traversal.pruned", 0),
        "traversal.approximated": c.get("traversal.approximated", 0),
        "traversal.base_case_pairs": pairs,
        "traversal.prune_rate":
            c.get("traversal.pruned", 0) / visited if visited else 0.0,
        "traversal.exact_pair_frac":
            pairs / (workload.query.n * workload.reference.n),
        "traversal.epochs": c.get("bounded.epochs", 0),
        "traversal.bound_refreshes": c.get("bounded.bound_refreshes", 0),
        "traversal.deferred_prunes": c.get("bounded.deferred_prunes", 0),
    }


def engines(workload, host, run_s: float, pairs: float) -> dict:
    """Kernel rate (brute force), the traversal time that rate does not
    explain (computed), and stack engine vs default — on a fixed slice."""
    from repro import Storage

    query = Storage(workload.data["query"][:SLICE])
    reference = Storage(workload.data["reference"][:SLICE])

    def run_with(**extra):
        return _run_seconds(
            host, lambda: workload.make_expr(query, reference),
            {**workload.options, **extra})

    rate = SLICE * SLICE / run_with(backend="brute")
    return {
        "backend.kernel_pairs_per_s": rate,
        "traversal.nonkernel_s": run_s - pairs / rate,
        # base = the default engine's run time on the same slice
        "traversal.stack_over_default":
            run_with() / run_with(traversal="stack"),
    }


def parallel(workload, all_cores: set) -> dict:
    """Serial run time over optioned run time (base = serial), raw, with
    every core of the host allowed; nothing when the host has one core."""
    from repro.parallel import shutdown_pools

    if len(all_cores) < 2:
        return {}
    pinned = os.sched_getaffinity(0)

    def run_raw(reps: int = 2, **extra) -> list:
        out = []
        for _ in range(reps):
            program = workload.make_expr(
                workload.query, workload.reference
            ).compile(**{**workload.options, **extra})
            t0 = time.perf_counter()
            program.run()
            out.append(time.perf_counter() - t0)
        return out

    os.sched_setaffinity(0, all_cores)
    try:
        serial = statistics.median(run_raw())
        thread = statistics.median(
            run_raw(parallel=True, workers=2, executor="thread"))
        first, *later = run_raw(3, parallel=True, workers=2,
                                executor="process")
        shard = statistics.median(run_raw(shards=2))
    finally:
        shutdown_pools()
        os.sched_setaffinity(0, pinned)
    process = statistics.median(later)
    return {
        "parallel.thread_w2_speedup": serial / thread,
        "parallel.process_w2_speedup": serial / process,
        "parallel.shard2_speedup": serial / shard,
        "parallel.pool_start_s": first - process,
    }


def observe_overheads(workload, host, scratch: str, reps: int = 4) -> dict:
    """One op with ``repro.observe.tracing`` / ``collect`` on, over the
    same op with them off; the three take turns so a change of host state
    falls on all of them.  (Four turns resolve about ±0.04.)"""
    from repro.observe import collect, tracing

    sink = os.path.join(scratch, "observe-trace.jsonl")

    def op():
        workload.make_expr(workload.query, workload.reference
                           ).execute(**workload.options)

    def traced():
        with tracing(sink):
            op()

    def collected():
        with collect():
            op()

    variants = {"off": op, "trace": traced, "collect": collected}
    samples = {name: [] for name in variants}
    br = host.bracket()
    for _ in range(reps):
        for name, fn in variants.items():
            t0 = time.perf_counter()
            fn()
            raw = time.perf_counter() - t0
            scale, ok = br.close()
            samples[name].append((ok, {"s": raw * scale}))
    os.remove(sink)
    sec = {name: _median_of(s)["s"] for name, s in samples.items()}
    return {
        "observe.trace_on_overhead_frac": sec["trace"] / sec["off"] - 1.0,
        "observe.collect_overhead_frac": sec["collect"] / sec["off"] - 1.0,
    }


def policy_overhead(workload, host) -> dict:
    """Cache-hit compile under ``policy="auto"`` with a tuned entry in the
    store, minus the same compile under the static default."""
    from repro.policy import ensure_policy

    expr = workload.exprs["knn"]
    ensure_policy(expr.layers, {}, budget_s=1.0, repeats=1)
    expr.compile(policy="auto")
    expr.compile()
    auto = host.timed(lambda _: expr.compile(policy="auto"), 7)
    static = host.timed(lambda _: expr.compile(), 7)
    return {"policy.auto_hit_overhead_ms": (auto - static) * 1e3}


def refit(workload, host) -> dict:
    """The tree's own write path: ``snapshot()`` + ``update_batch`` of one
    mutation, on a tree built directly."""
    from repro.observe import collect
    from repro.trees import build_tree

    reference = workload.data["reference"]
    tree = build_tree("kd", reference, leaf_size=LEAF_SIZE)
    idx, delta = datagen.mutation(workload.seed, 0)

    def apply(_):
        tree.snapshot().update_batch(idx, reference[idx] + delta)

    with collect() as counters:
        refit_s = host.timed(apply, 5)
    c = counters.as_dict()
    return {
        "trees.refit_ms": refit_s * 1e3,
        "trees.refit_nodes":
            c.get("tree.refit.nodes", 0) / c.get("tree.refit.count", 1),
        "trees.subtree_rebuilds":
            c.get("tree.rebuild.subtree", 0) / c.get("tree.refit.count", 1),
    }


def serve(workload, host) -> dict:
    """The serving layer used without coalescing, and a bare execute."""
    from repro import Storage
    from repro.backend.cache import clear_caches

    data = workload.data
    pool = data["pool"]

    def register(_):
        clear_caches()
        workload.start(data["reference"])

    def request_p50(rows: int, count: int) -> float:
        br = host.bracket()
        lat = []
        for i in range(count):
            t0 = time.perf_counter()
            workload.query(pool[i * rows:(i + 1) * rows])
            lat.append(time.perf_counter() - t0)
        scale, _ = br.close()
        return statistics.median(lat) * scale * 1e3

    reference = Storage(data["reference"], name="reference")
    chunks = iter(range(0, len(pool), 32))

    def direct(_):
        workload.make_expr(Storage(pool[next(chunks):][:32]), reference
                           ).execute()

    direct(None)
    return {
        "serve.register_s": host.timed(register, 2),
        "serve.solo_p50_ms": request_p50(1, 30),
        "serve.bulk_p50_ms": request_p50(64, 15),
        "serve.direct_exec_ms": host.timed(direct, 9) * 1e3,
    }


def closed_loop(spans, rounds: list, direct_exec_ms: float) -> dict:
    """What the service's own counters say about the traced rounds."""
    total = {}
    wall = 0.0
    queue_peak = 0
    for row in spans.rows:
        if row["name"] == "serve.round":
            wall += row["end"] - row["start"]
            queue_peak = max(queue_peak, row["queue_peak"])
            for k, v in row["counters"].items():
                total[k] = total.get(k, 0) + v
    batches = total.get("serve.batches", 0)
    requests = total.get("serve.requests", 0)
    latencies_ms = [lat * r["scale"] * 1e3 for r in rounds if r["traced"]
                    for lat in r["lat_s"]]
    return {
        "serve.latency_p99_ms":
            statistics.quantiles(latencies_ms, n=100)[98],
        "serve.batches": batches,
        "serve.mean_batch": total.get("serve.batch_queries", 0) / batches,
        "serve.coalesced_frac": total.get("serve.coalesced", 0) / requests,
        "serve.shed": total.get("serve.shed", 0),
        "serve.queue_peak": queue_peak,
        "serve.execute_share": batches * direct_exec_ms / (wall * 1e3),
        # per batch, where the read workloads report them per execute()
        "backend.cache_compile_hits":
            total.get("cache.compile.hit", 0) / batches,
        "backend.cache_compile_misses":
            total.get("cache.compile.miss", 0) / batches,
        "backend.cache_tree_refits":
            total.get("cache.tree.refit", 0) / batches,
    }


def cache_counts(spans) -> dict:
    """Compile-cache hits / misses and tree refits per ``execute()`` of
    the traced measured rounds."""
    rounds = {r["id"] for r in spans.rows if r["name"] == "round"}
    ops = [r for r in spans.rows
           if r["name"] == "op" and r["parent"] in rounds]
    if not ops:
        return {}

    def per_op(name):
        return sum(r["counters"].get(name, 0) for r in ops) / len(ops)

    return {
        "backend.cache_compile_hits": per_op("cache.compile.hit"),
        "backend.cache_compile_misses": per_op("cache.compile.miss"),
        "backend.cache_tree_refits": per_op("cache.tree.refit"),
    }


def profile(workload, host, spans, rounds: list, all_cores: set,
            scratch: str) -> dict:
    """Every per-layer metric this workload exercises; ``rounds`` are the
    measured rounds the worker has just run (half of them traced)."""
    out = cache_counts(spans)
    if isinstance(workload, ServeFanin):
        out.update(serve(workload, host))
        out.update(closed_loop(spans, rounds, out["serve.direct_exec_ms"]))
    out.update(compile_path(workload, host, spans))
    if isinstance(workload, CompileSuite):
        out.update(policy_overhead(workload, host))
    elif not isinstance(workload, ServeFanin):
        out.update(traversal(workload, host, spans))
        if workload.name == "mutate_query":
            out.update(refit(workload, host))
        else:
            out.update(engines(workload, host, out["traversal.run_s"],
                               out["traversal.base_case_pairs"]))
            out.update(observe_overheads(workload, host, scratch))
            out.update(parallel(workload, all_cores))
    return out
