"""One workload in a fresh process (own RSS, own import cost).  Started by
``run.py`` with a scrubbed environment; writes one pickle for it to read.

``--mode setup`` stops once the workload is ready (a ``setup_s`` sample);
``measure`` goes on to the cold repetitions and the measured rounds;
``trace`` does the same with every other repetition wrapped in the
benchmark's spans, then takes the per-layer measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import threading
import time
from contextlib import nullcontext

#: spans that are the benchmark's own bookkeeping, not a layer
OWN_SPANS = ("cold", "round", "op")


def digest(obj, h=None) -> bytes:
    """Content hash of a record (nested dicts of arrays and floats)."""
    h = h or hashlib.blake2b(digest_size=16)
    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(key.encode())
            digest(obj[key], h)
    elif hasattr(obj, "tobytes"):
        h.update(obj.tobytes())
    else:
        h.update(repr(obj).encode())
    return h.digest()


class Recorder:
    """Keeps each distinct ``(key, record)`` once; ops refer to it by
    index, so every op is checked yet identical answers cost nothing."""

    def __init__(self):
        self.records: list = []
        self._seen: dict = {}

    def keep(self, key: int, rec: dict) -> int:
        ident = (key, digest(rec))
        if ident not in self._seen:
            self._seen[ident] = len(self.records)
            self.records.append((key, rec))
        return self._seen[ident]


def measure(workload, host, seconds: float, spans) -> dict:
    """A fixed number of cold repetitions and warm-up rounds (so every
    run of a workload has the same history), then probe-bracketed rounds
    until ``seconds`` have passed.  With ``spans``, odd repetitions are
    traced and even ones are not, so the two can be compared."""
    recorder = Recorder()
    errors = 0
    cold, rounds = [], []

    def spans_for(i: int):
        return spans if spans is not None and i % 2 else None

    br = host.bracket()
    for rep in range(workload.cold_reps):
        traced = spans_for(rep)
        first = len(spans.rows) if traced else 0
        t0 = time.perf_counter()
        try:
            with traced.span("cold") if traced else nullcontext():
                key, rec = workload.cold(traced)
        except Exception:  # a failed op is counted, the run goes on
            errors += 1
            br.close()
            continue
        raw = time.perf_counter() - t0
        scale, ok = br.close()
        cold.append({"raw_s": raw, "scale": scale, "ok": ok,
                     "op": recorder.keep(key, rec), "traced": bool(traced),
                     "layer_self_s": sum(
                         v for k, v in spans.self_times(first).items()
                         if k not in OWN_SPANS) if traced else 0.0})

    for _ in range(workload.warmup_rounds):
        workload.round(None)

    br = host.bracket()
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        traced = spans_for(len(rounds))
        try:
            with traced.span("round") if traced else nullcontext():
                busy, done = workload.round(traced)
        except Exception:
            errors += 1
            br.close()
            continue
        scale, ok = br.close()
        rounds.append({"busy_s": busy, "scale": scale, "ok": ok,
                       "traced": bool(traced),
                       "lat_s": [lat for lat, _, _ in done],
                       "ops": [recorder.keep(k, r) for _, k, r in done]})
    return {"cold": cold, "rounds": rounds, "records": recorder.records,
            "errors": errors + workload.errors}


def surviving_threads() -> list:
    """Non-daemon threads still alive once everything is closed."""
    found = []
    for thread in threading.enumerate():
        if thread is threading.main_thread() or thread.daemon:
            continue
        thread.join(timeout=2.0)   # a pool told to stop needs a moment
        if thread.is_alive():
            found.append(thread.name)
    return found


def peak_rss_mb() -> float:
    """This process's own high-water RSS.  Not ``ru_maxrss``: Linux seeds
    that with the forking parent's RSS at exec time, so it reported
    ``run.py``'s size whenever that was the larger."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.time() in the parent just before the spawn")
    ap.add_argument("--cores", required=True,
                    help="every core the host allows, for parallel.*")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    from probe import Host
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    result = {"setup_raw_s": time.time() - args.spawned}
    host = Host()
    result["probe_after_ms"] = host.probe()

    if args.mode != "setup":
        from repro.parallel import shutdown_pools

        spans = None
        if args.mode == "trace":
            from spans import Spans

            spans = Spans(args.workload)
        result.update(measure(workload, host, args.seconds, spans))
        result["stats"] = workload.stats()
        if spans is not None:
            import layers

            result["layers"] = layers.profile(
                workload, host, spans, result["rounds"],
                {int(c) for c in args.cores.split(",")},
                os.path.dirname(args.out))
            spans.write(os.path.splitext(args.out)[0] + ".spans.jsonl")
        workload.close()
        shutdown_pools()
        result["threads_left"] = surviving_threads()
        result["probe_history_ms"] = host.history
        result["peak_rss_mb"] = peak_rss_mb()

    with open(args.out, "wb") as fh:
        pickle.dump(result, fh)


if __name__ == "__main__":
    main()
