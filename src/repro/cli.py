"""Command-line interface for the textual Portal language.

Runs ``.portal`` programs (the Appendix-VIII grammar) from the shell::

    python -m repro run program.portal
    python -m repro run program.portal --option tau=1e-3 --option tree=ball
    python -m repro ir program.portal --stage final
    python -m repro explain program.portal

Storage statements in the program reference CSV paths; ``--bind
name=file.csv`` overrides a storage source, letting one program run
against different datasets.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

import numpy as np

from .dsl import PortalError, parse_program
from .dsl.storage import _read_csv
from .ir.passes import PIPELINE_STAGES, TOGGLEABLE_PASSES
from .observe import collect, tracing


def _parse_options(pairs: list[str]) -> dict:
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--option expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        for cast in (int, float):
            try:
                out[key] = cast(value)
                break
            except ValueError:
                continue
        else:
            if value.lower() in ("true", "false"):
                out[key] = value.lower() == "true"
            else:
                out[key] = value
    return out


def _parse_bindings(pairs: list[str]) -> dict:
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--bind expects name=path.csv, got {pair!r}")
        name, path = pair.split("=", 1)
        out[name] = _read_csv(path)
    return out


def _load(args) -> "PortalProgram":
    with open(args.program) as fh:
        source = fh.read()
    return parse_program(source, bindings=_parse_bindings(args.bind))


def _cmd_run(args) -> int:
    prog = _load(args)
    results = prog.run(**_parse_options(args.option))
    for name, out in results.items():
        print(f"== {name} ==")
        if out.scalar is not None:
            print(f"  scalar: {out.scalar:g}")
        if out.values is not None:
            v = np.asarray(out.values)
            head = np.array2string(v[: args.head], precision=4,
                                   threshold=64)
            print(f"  values {v.shape}: {head}")
        if out.indices is not None and not isinstance(out.indices, list):
            print(f"  indices: {np.asarray(out.indices)[: args.head]}")
        elif isinstance(out.indices, list):
            sizes = [len(ix) for ix in out.indices[: args.head]]
            print(f"  index lists (first sizes): {sizes}")
    return 0


def _cmd_ir(args) -> int:
    prog = _load(args)
    for name, pexpr in prog.portal_exprs.items():
        pexpr.compile(**_parse_options(args.option))
        print(f"== {name} [{args.stage}] ==")
        print(pexpr.ir_dump(args.stage, disable=args.disable_pass))
        if args.generated:
            print(f"\n== {name} [generated backend source] ==")
            print(pexpr.generated_source())
    return 0


def _fmt_rate(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def _fmt_timings(timings_ms: dict) -> str:
    return " | ".join(f"{k} {v:.3f} ms" for k, v in timings_ms.items())


def _cmd_stats(args) -> int:
    """Execute the program and report observability statistics."""
    options = _parse_options(args.option)
    trace_cm = tracing(args.trace) if args.trace else nullcontext()
    summaries: dict[str, dict] = {}
    with trace_cm, collect() as counters:
        prog = _load(args)  # inside the scope so the parse span is traced
        for name, pexpr in prog.portal_exprs.items():
            pexpr.execute(**options)
            summaries[name] = pexpr.stats()
    if args.json:
        print(json.dumps(
            {"programs": summaries, "counters": counters.as_dict()},
            indent=2,
        ))
        return 0
    for name, s in summaries.items():
        t = s["traversal"]
        print(f"== {name} ==")
        tree = f" tree: {s['tree']}" if s.get("tree") else ""
        engine = f" engine: {s['traversal_engine']}" if s.get("traversal_engine") else ""
        executor = f" executor: {s['executor']}" if s.get("executor") else ""
        cache = f" cache: {s['cache']}" if s.get("cache") else ""
        print(f"  mode: {s['mode']}  backend: {s['backend']}"
              f"{tree}{engine}{executor}{cache}")
        print("  plan:      " + " ".join(
            f"{name}={field['value']}({field['source']})"
            for name, field in s["plan"].items()))
        pol = s.get("policy") or {}
        line = f"  policy:    {pol.get('source', 'static-auto')}"
        if pol.get("applied"):
            knobs = " ".join(f"{k}={v}" for k, v in
                             sorted(pol["applied"].items()))
            line += f"  [{knobs}]"
        print(line)
        print(
            f"  traversal: visited={t['visited']} pruned={t['pruned']} "
            f"approximated={t['approximated']} "
            f"recursions={t['recursions']} base-cases={t['base_cases']}"
        )
        line = (
            f"  prune-rate: {_fmt_rate(t['prune_rate'])}  "
            f"approximation-rate: {_fmt_rate(t['approx_rate'])}  "
            f"exact pairs: {t['base_case_pairs']}"
        )
        if "exact_pair_fraction" in t:
            line += f" ({_fmt_rate(t['exact_pair_fraction'])} of all pairs)"
        print(line)
        if s.get("bounded"):
            bb = s["bounded"]
            print(
                f"  bounded:   regime={bb.get('regime', 'leaf')} "
                f"epochs={bb.get('epochs', 0)} "
                f"bound-refreshes={bb.get('bound_refreshes', 0)} "
                f"deferred-prunes={bb.get('deferred_prunes', 0)} "
                f"pending-peak={bb.get('pending_peak', 0)}"
            )
        if s.get("shard"):
            sh = s["shard"]
            print(
                f"  shard:     count={sh.get('count', 0)} "
                f"rounds={sh.get('rounds', 0)} "
                f"pruned={sh.get('pruned', 0)} "
                f"tasks-pruned={sh.get('tasks_pruned', 0)}"
            )
        passes = _fmt_timings(s["pass_timings_ms"]) or "IR not built"
        print(f"  IR passes: {passes}")
        print(f"  compile:   {_fmt_timings(s['compile_timings_ms'])}")
        print(f"  run:       {s['run_ms']:.3f} ms")
    if args.trace:
        print(f"[trace written to {args.trace}]")
    return 0


def _cmd_tune(args) -> int:
    """Run the measured policy search for each PortalExpr and persist
    the winners in the policy cache (see docs/performance.md)."""
    from .policy import SEARCH_BUDGET_S, ensure_policy, policy_store

    prog = _load(args)
    options = _parse_options(args.option)
    budget = args.budget if args.budget is not None else SEARCH_BUDGET_S
    results: dict[str, dict] = {}
    for name, pexpr in prog.portal_exprs.items():
        key, entry, source = ensure_policy(
            pexpr.layers, options, force=args.force,
            repeats=args.repeats, budget_s=budget,
        )
        results[name] = {
            "key": key.as_str(), "source": source,
            "config": dict(entry.config), "timings": dict(entry.timings),
            "measured_nq": entry.measured_nq,
            "measured_nr": entry.measured_nr,
        }
    store = policy_store()
    if args.json:
        print(json.dumps({"policy_path": store.path, "entries": len(store),
                          "programs": results}, indent=2))
        return 0
    for name, r in results.items():
        print(f"== {name} ==")
        print(f"  key:    {r['key']}")
        print(f"  source: {r['source']}")
        cfg = r["config"]
        print("  config: " + " ".join(f"{k}={cfg[k]}" for k in sorted(cfg)))
        if r["timings"]:
            print(f"  measured at nq={r['measured_nq']} "
                  f"nr={r['measured_nr']}:")
            for label, secs in sorted(r["timings"].items(),
                                      key=lambda kv: kv[1]):
                print(f"    {secs * 1e3:9.3f} ms  {label}")
    print(f"[policy cache: {store.path} ({len(store)} entries)]")
    return 0


def _cmd_serve(args) -> int:
    """Serve the program's PortalExprs over newline-delimited JSON/TCP
    (see docs/serving.md for the wire protocol)."""
    import asyncio

    from .serve import AdmissionConfig, PortalService, ServeFrontend

    prog = _load(args)
    if not prog.portal_exprs:
        raise SystemExit("program defines no PortalExpr to serve")
    options = _parse_options(args.option)
    admission = AdmissionConfig(
        max_queue=args.max_queue, batch_max=args.batch_max,
        linger_us=args.linger_us, max_concurrent=args.max_concurrent,
    )

    async def run() -> int:
        service = PortalService()
        frontend = ServeFrontend(service, host=args.host, port=args.port)
        host, port = await frontend.start()
        for name, pexpr in prog.portal_exprs.items():
            await service.register(pexpr, options=options,
                                   admission=admission, name=name)
            print(f"registered {name!r}", flush=True)
        print(f"serving on {host}:{port}", flush=True)
        try:
            if args.max_seconds is not None:
                # bounded lifetime: CI smoke / scripted drivers
                try:
                    await asyncio.wait_for(frontend.serve_forever(),
                                           timeout=args.max_seconds)
                except asyncio.TimeoutError:
                    pass
            else:
                await frontend.serve_forever()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await frontend.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def _cmd_explain(args) -> int:
    prog = _load(args)
    for name, pexpr in prog.portal_exprs.items():
        program = pexpr.compile(**_parse_options(args.option))
        cls = program.classification
        print(f"== {name} ==")
        print(pexpr.describe())
        print(f"  category:  {cls.category}")
        print(f"  algorithm: {cls.algorithm}")
        for reason in cls.reasons:
            print(f"    - {reason}")
        print(f"  rule: {program.rule.description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Portal language runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("program", help="path to a .portal program")
        p.add_argument("--bind", action="append", default=[],
                       metavar="NAME=CSV",
                       help="override a Storage source with a CSV file")
        p.add_argument("--option", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="execute()/compile() option, e.g. tau=1e-3")

    p_run = sub.add_parser("run", help="execute the program")
    common(p_run)
    p_run.add_argument("--head", type=int, default=5,
                       help="rows of each output to print")
    p_run.set_defaults(fn=_cmd_run)

    p_ir = sub.add_parser("ir", help="dump the Portal IR")
    common(p_ir)
    p_ir.add_argument("--stage", default="final",
                      choices=list(PIPELINE_STAGES))
    p_ir.add_argument("--disable-pass", action="append", default=[],
                      metavar="PASS", dest="disable_pass",
                      choices=list(TOGGLEABLE_PASSES),
                      help="skip an IR optimisation pass in the dump "
                           "(repeatable)")
    p_ir.add_argument("--generated", action="store_true",
                      help="also dump the generated backend source")
    p_ir.set_defaults(fn=_cmd_ir)

    p_ex = sub.add_parser("explain",
                          help="show classification and generated rules")
    common(p_ex)
    p_ex.set_defaults(fn=_cmd_explain)

    p_st = sub.add_parser(
        "stats",
        help="execute and report prune/approximation rates and "
             "per-pass timings",
    )
    common(p_st)
    p_st.add_argument("--json", action="store_true",
                      help="machine-readable JSON output")
    p_st.add_argument("--trace", metavar="FILE",
                      help="also write JSONL span events to FILE")
    p_st.set_defaults(fn=_cmd_stats)

    p_tn = sub.add_parser(
        "tune",
        help="run the measured policy search and persist the winners "
             "in the policy cache",
    )
    common(p_tn)
    p_tn.add_argument("--force", action="store_true",
                      help="re-search even when a fresh cached entry "
                           "exists")
    p_tn.add_argument("--budget", type=float, default=None,
                      metavar="SECONDS",
                      help="total measurement budget per program "
                           "(default: the search's built-in budget)")
    p_tn.add_argument("--repeats", type=int, default=2,
                      help="timed repeats per candidate (best-of)")
    p_tn.add_argument("--json", action="store_true",
                      help="machine-readable JSON output")
    p_tn.set_defaults(fn=_cmd_tune)

    p_sv = sub.add_parser(
        "serve",
        help="serve the program's PortalExprs over JSON/TCP with "
             "cross-request coalescing",
    )
    common(p_sv)
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=int, default=0,
                      help="TCP port (0 = ephemeral, printed on start)")
    p_sv.add_argument("--max-queue", type=int, default=1024,
                      dest="max_queue",
                      help="per-handle admitted-query bound before "
                           "load-shedding")
    p_sv.add_argument("--batch-max", type=int, default=256,
                      dest="batch_max",
                      help="max queries per coalesced batch "
                           "(1 disables coalescing)")
    p_sv.add_argument("--linger-us", type=int, default=2000,
                      dest="linger_us",
                      help="open-batch linger before a timer flush (µs)")
    p_sv.add_argument("--max-concurrent", type=int, default=1,
                      dest="max_concurrent",
                      help="concurrent batched executes per handle")
    p_sv.add_argument("--max-seconds", type=float, default=None,
                      dest="max_seconds",
                      help="exit after this many seconds (CI smoke)")
    p_sv.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PortalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
