"""The benchmark spine: five workloads, five end-to-end metrics, per-layer
attribution from outside ``src/``.  See README.md beside this file.

    python3 benchmarks/spine/run.py                      # all five, untraced
    python3 benchmarks/spine/run.py --trace              # ... then traced
    python3 benchmarks/spine/run.py --aa                 # the set twice
    python3 benchmarks/spine/run.py --workload knn_prune --seed 3 \\
        --seconds 10 --trace 0                           # the driver's form

Run from the root of a checkout.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# Before NumPy loads (it is imported lazily, below): one BLAS/OpenMP thread,
# here and in every child.
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)
# glibc raises its mmap threshold as large blocks are freed, so how fast a
# process allocates its NumPy temporaries depends on everything it freed
# before: the same 32-row batch ran in 8 ms or 12 ms depending on how many
# cold repetitions came first.  Pinning the threshold at its ceiling (what
# a long-lived process converges to) and never trimming makes a run's
# speed independent of its allocation history.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

#: setup-only processes per run, besides the measuring one
SETUP_REPS = 4
#: a worker that runs longer than this is killed and the run fails
WORKER_TIMEOUT_S = 170
SHM_DIR = "/dev/shm"
#: a run is invalid unless the workload did the work it was chosen for
GATES = {"knn_prune": ("prune_rate", 0.25),
         "kde_approx": ("exact_pair_frac", 0.7)}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env(scratch: str) -> dict:
    """The worker's environment: no ``REPRO_*`` knob survives, the policy
    store lives in the run's scratch directory, one BLAS thread, a fixed
    malloc policy and hash seed, and only this checkout's ``src`` on the
    path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    env.update(MALLOC_ENV)
    env["REPRO_POLICY_PATH"] = os.path.join(scratch, "policy.json")
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def shm_segments() -> set:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


class Run:
    """One workload, one seed: spawns the workers, checks every op against
    the oracle and turns the rows into the contract's metrics."""

    def __init__(self, host, cores, workload: str, seed: int,
                 seconds: float, scratch: str):
        self.host, self.cores = host, cores
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.scratch = scratch
        self._spawned = 0

    def spawn(self, mode: str) -> dict:
        """Run one worker to completion; its result plus the probe taken
        just before it started."""
        self._spawned += 1
        out = os.path.join(self.scratch, f"{mode}-{self._spawned}.pkl")
        shm_before = shm_segments()
        before = self.host.probe()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", self.workload, "--seed", str(self.seed),
             "--seconds", str(self.seconds), "--mode", mode,
             "--spawned", repr(time.time()),
             "--cores", ",".join(map(str, sorted(self.cores))),
             "--out", out],
            cwd=ROOT, env=child_env(self.scratch), start_new_session=True)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # the worker's own children (process pools) go with it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise SystemExit(f"{self.workload}: worker ({mode}) "
                             f"{'timed out' if code is None else 'failed'}")
        with open(out, "rb") as fh:
            result = pickle.load(fh)
        result["out"] = out
        result["probe_before_ms"] = before
        result["shm_left"] = sorted(shm_segments() - shm_before)
        return result

    def setup_seconds(self, results: list) -> list:
        """Nominal-speed set-up times, one per worker started."""
        from probe import nominal_scale

        samples = []
        for r in results:
            scale, ok = nominal_scale(r["probe_before_ms"],
                                      r["probe_after_ms"])
            samples.append((ok, r["setup_raw_s"] * scale))
        return [s for ok, s in samples if ok] or [s for _, s in samples]

    def failures(self, main: dict) -> tuple[int, int, list]:
        """``(attempted, failed, notes)``: ops that raised or were shed,
        ops the oracle rejects, and anything left behind at exit (a
        shared-memory segment, a non-daemon thread) as one more."""
        from oracle import Checker

        checker = Checker(self.workload, self.seed)
        good = [checker.ok(key, rec) for key, rec in main["records"]]
        ops = [c["op"] for c in main["cold"]]
        ops += [i for r in main["rounds"] for i in r["ops"]]
        wrong = sum(not good[i] for i in ops)
        notes = []
        if wrong:
            notes.append(f"{wrong} ops disagree with the oracle")
        if main["errors"]:
            notes.append(f"{main['errors']} ops raised or were shed")
        left = main["shm_left"] + main["threads_left"]
        if left:
            notes.append("left behind: " + ", ".join(left))
        failed = wrong + main["errors"] + bool(left)
        return len(ops) + main["errors"], failed, notes

    def gate(self, main: dict) -> str | None:
        if self.workload not in GATES:
            return None
        name, floor = GATES[self.workload]
        value = main["stats"].get(name, 0.0)
        if value < floor:
            return f"invalid run: {name} = {value:.3f} < {floor}"
        return None

    def measure(self, trace: bool) -> dict:
        # set-up time is an end-to-end metric: the traced run skips it
        setups = [self.spawn("setup")
                  for _ in range(0 if trace else SETUP_REPS)]
        main = self.spawn("trace" if trace else "measure")
        attempted, failed, notes = self.failures(main)
        invalid = self.gate(main)
        if invalid:
            notes.append(invalid)
        if not any(r["lat_s"] for r in main["rounds"]):
            raise SystemExit(f"{self.workload}: no op completed")
        rows = summarise(self.setup_seconds(setups + [main]), main)
        if trace:
            rows.update(layer_rows(main))
            shutil.move(
                os.path.splitext(main["out"])[0] + ".spans.jsonl",
                os.path.join(
                    OUT, f"{self.workload}-seed{self.seed}.spans.jsonl"))
        return {"correct": failed == 0 and not invalid,
                "attempted": attempted, "failed": failed,
                "rows": rows, "notes": notes}


def _scaled(items: list, value) -> list:
    """``value(item) × scale`` over the consistent items (all, if none)."""
    good = [i for i in items if i["ok"]] or items
    return [value(i) * i["scale"] for i in good]


def summarise(setup_s: list, main: dict) -> dict:
    """End-to-end rows: ``name -> (value, samples)``; every time is at
    nominal host speed and the value is the median of its samples."""
    rounds = [r for r in main["rounds"] if r["lat_s"] and not r["traced"]]
    cold = [c for c in main["cold"] if not c["traced"]]
    good = [r for r in rounds if r["ok"]] or rounds
    latency_ms = [lat * r["scale"] * 1e3 for r in good for lat in r["lat_s"]]
    rate = [len(r["lat_s"]) / (r["busy_s"] * r["scale"]) for r in good]
    rows = {
        "setup_s": setup_s,
        "cold_s": _scaled(cold, lambda c: c["raw_s"]),
        "op_p50_ms": latency_ms,
        "ops_per_s": rate,
        "peak_rss_mb": [main["peak_rss_mb"]],
    }
    return {name: (statistics.median(v), v) for name, v in rows.items()}


def layer_rows(main: dict) -> dict:
    """Per-layer rows of a traced run: what the worker measured, plus the
    benchmark's own tracing overhead and the host's state."""
    rounds = [r for r in main["rounds"] if r["lat_s"]]

    def per_op(traced: bool) -> float:
        return statistics.median(_scaled(
            [r for r in rounds if r["traced"] == traced],
            lambda r: r["busy_s"] / len(r["lat_s"])))

    def cold(traced: bool, field: str) -> float:
        return statistics.median(_scaled(
            [c for c in main["cold"] if c["traced"] == traced],
            lambda c: c[field]))

    rows = dict(main["layers"])
    rows["bench.trace_overhead_frac"] = per_op(True) / per_op(False) - 1.0
    rows["bench.cold_selftime_cover"] = (
        cold(True, "layer_self_s") / cold(False, "raw_s"))
    rows["host.probe_ms"] = statistics.median(main["probe_history_ms"])
    rows["host.rounds_discarded"] = sum(not r["ok"] for r in main["rounds"])
    return {name: (float(v), [float(v)]) for name, v in rows.items()}


def contract_metrics(result: dict, names: list) -> dict:
    """The metrics object of the last line: every name of the contract,
    0 for a per-layer metric this workload does not exercise."""
    rows = result["rows"]
    return {m["name"]: {"value": rows.get(m["name"], (0.0,))[0],
                        "unit": m["unit"]} for m in names}


def describe(name: str, unit: str, row) -> str:
    from probe import quartiles

    value, samples = row
    text = f"  {name:<34}{value:>14.5g} {unit:<6}"
    if len(samples) > 1:
        q1, _, q3 = quartiles(samples)
        text += f" q1 {q1:.5g}  q3 {q3:.5g}  n {len(samples)}"
    return text


def write_rows(result: dict, run: Run, trace: bool, stamp: dict) -> None:
    """The raw rows of one run, stamped, for whoever reads ``out/``."""
    doc = dict(stamp, workload=run.workload, seed=run.seed,
               seconds=run.seconds, trace=trace,
               correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"], notes=result["notes"],
               rows={k: {"value": v, "samples": s}
                     for k, (v, s) in result["rows"].items()})
    path = os.path.join(
        OUT, f"{run.workload}-seed{run.seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured phase per run (default: run_seconds)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    help="also (or, with --workload, only) the traced run")
    ap.add_argument("--aa", action="store_true",
                    help="run the set twice and compare against the bounds")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("run.py: no src/repro in this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    # a terminated run still stops its workers (the finally clauses run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload and args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    seconds = args.seconds or contract["run_seconds"]

    # Byte-compile once so no set-up sample pays for it.
    for tree in (os.path.join(SRC, "repro"), HERE):
        compileall.compile_dir(tree, quiet=2)

    import oracle
    from probe import Host, fingerprint, pin_to_calmest_core

    missed = oracle.self_test()
    if missed:
        print(f"run.py: oracle self-test: planted errors not caught: "
              f"{missed}", file=sys.stderr)
        return 3

    cores = os.sched_getaffinity(0)
    stamp = dict(fingerprint(), commit=commit(),
                 pinned_core=pin_to_calmest_core())
    host = Host()
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)

    def one(workload: str, trace: bool) -> dict:
        run = Run(host, cores, workload, args.seed, seconds, scratch)
        result = run.measure(trace)
        write_rows(result, run, trace, stamp)
        return result

    def last_line(result: dict, trace: bool) -> str:
        which = contract["per_layer" if trace else "end_to_end"]
        return json.dumps({
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": contract_metrics(result, which)})

    def show(workload: str, result: dict, trace: bool) -> None:
        print(f"{workload} (seed {args.seed}, "
              f"{'traced' if trace else 'untraced'}): "
              f"{result['failed']} of {result['attempted']} ops failed")
        for note in result["notes"]:
            print(f"  ! {note}")
        for m in contract["per_layer" if trace else "end_to_end"]:
            if m["name"] in result["rows"]:
                print(describe(m["name"], m["unit"],
                               result["rows"][m["name"]]))

    try:
        if args.workload:
            result = one(args.workload, bool(args.trace))
            show(args.workload, result, bool(args.trace))
            print(last_line(result, bool(args.trace)))
            return 0
        sets = []
        for _ in range(2 if args.aa else 1):
            sets.append({w: one(w, False) for w in names})
            for w in names:
                show(w, sets[-1][w], False)
                print(last_line(sets[-1][w], False))
        if args.trace:
            for w in names:
                traced = one(w, True)
                show(w, traced, True)
                print(last_line(traced, True))
        ok = all(r["correct"] for s in sets for r in s.values())
        if args.aa:
            ok = compare(sets, contract) and ok
        return 0 if ok else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def compare(sets: list, contract: dict) -> bool:
    """A/A: the second set's medians against the first's, beside the
    bound; False when any is worse by more than its bound."""
    first, second = sets
    within = True
    print("A/A: second set relative to first (positive = worse)")
    for w in first:
        for m in contract["end_to_end"]:
            a = first[w]["rows"][m["name"]][0]
            b = second[w]["rows"][m["name"]][0]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "" if worse <= m["bound"] else "  EXCEEDS"
            within = within and not flag
            print(f"  {w:<14}{m['name']:<12}{worse:>+8.1%} "
                  f"(bound {m['bound']:.0%}){flag}")
    return within


if __name__ == "__main__":
    sys.exit(main())
