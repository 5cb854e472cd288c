"""The five workloads.  Runs inside the worker process; calls only the
public surface of ``repro`` with default ``execute()`` options — serial,
``policy="static"``, NumPy codegen: what a user gets with no knobs.

A workload offers ``setup()`` (storages + one throw-away 64-point op, so
lazy imports are paid), ``cold()`` (``clear_caches()`` → first completed
op over fresh Storages), ``round()`` (a short run of steady-state ops,
each timed on its own) and ``close()``.  Every op yields ``(key, record)``
for the oracle: ``record`` is the output as plain arrays and ``key`` says
which input it answers (pool row for serve_fanin, cycle for mutate_query).

With ``spans`` given (the traced run) each op is wrapped in the
benchmark's own spans, split at the compile / run boundary, and the
public ``collect()`` counters are read at the same boundary.
"""

from __future__ import annotations

import asyncio
import os
import time
from contextlib import nullcontext
from functools import partial

import numpy as np

import datagen
from datagen import SUITE_TAU, TAU

HERE = os.path.dirname(os.path.abspath(__file__))
SUITE = ("knn", "nearest", "kde", "naive_bayes", "range_search",
         "range_count", "hausdorff", "mahalanobis_em", "barnes_hut")


def record(out) -> dict:
    """An ``Output`` as plain arrays (ragged index lists flattened)."""
    rec = {}
    if out.scalar is not None:
        rec["scalar"] = float(out.scalar)
    if out.values is not None:
        rec["values"] = np.asarray(out.values)
    if isinstance(out.indices, list):
        rec["offsets"] = np.concatenate(
            [[0], np.cumsum([len(x) for x in out.indices])]).astype(np.int64)
        rec["flat"] = (np.concatenate(out.indices) if out.indices
                       else np.zeros(0, dtype=np.int64))
    elif out.indices is not None:
        rec["indices"] = np.asarray(out.indices)
    return rec


def execute(expr, options: dict, spans):
    """``expr.execute(**options)``; traced, the same two calls it makes,
    each in a span, with the counters they contributed."""
    if spans is None:
        return expr.execute(**options)
    from repro.observe import collect

    with spans.span("op") as row, collect() as counters:
        with spans.span("backend.compile"):
            program = expr.compile(**options)
        with spans.span("traversal.run"):
            out = program.run()
    row["counters"] = counters.as_dict()
    return out


class Workload:
    name = ""
    #: steady-state ops per probe-bracketed round (a round ≈ 0.3–0.5 s)
    ops_per_round = 1
    #: cold repetitions (more for the workloads whose cold op is cheap)
    cold_reps = 13
    #: unrecorded rounds before the measured phase
    warmup_rounds = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.data = datagen.inputs(self.name, seed)
        self.last_expr = None
        #: ops that raised inside a round that went on (serve_fanin)
        self.errors = 0

    def round(self, spans=None):
        """One round: ``(busy seconds, [(latency_s, key, record), ...])``."""
        done = []
        for _ in range(self.ops_per_round):
            t0 = time.perf_counter()
            key, rec = self.op(spans)
            done.append((time.perf_counter() - t0, key, rec))
        return sum(lat for lat, _, _ in done), done

    def cold(self, spans=None):
        from repro.backend.cache import clear_caches

        clear_caches()
        self.bind()
        return self.op(spans)

    def stats(self) -> dict:
        """Prune rate and exact-pair fraction of the last op."""
        if self.last_expr is None:
            return {}
        t = self.last_expr.stats()["traversal"]
        return {"prune_rate": t["prune_rate"],
                "exact_pair_frac": t.get("exact_pair_fraction", 0.0)}

    def close(self) -> None:
        pass


class TwoLayer(Workload):
    """One two-layer program over a query and a reference Storage."""

    options: dict = {}

    def bind(self) -> None:
        from repro import Storage

        self.query = Storage(self.data["query"], name="query")
        self.reference = Storage(self.data["reference"], name="reference")

    def make_expr(self, query, reference):
        raise NotImplementedError

    def setup(self) -> None:
        from repro import Storage

        self.make_expr(Storage(self.data["query"][:64]),
                       Storage(self.data["reference"][:64])
                       ).execute(**self.options)
        self.bind()

    def op(self, spans=None):
        self.last_expr = self.make_expr(self.query, self.reference)
        return 0, record(execute(self.last_expr, self.options, spans))

    def programs(self) -> list:
        """``(make_expr, options, parse)`` per program, for layers.py."""
        return [(lambda: self.make_expr(self.query, self.reference),
                 self.options, None)]


class KnnPrune(TwoLayer):
    """k-NN where the tree prunes: the bounded-batched engine and tree
    reads do the work, the compile path is a few per cent."""

    name = "knn_prune"

    def make_expr(self, query, reference):
        from repro import PortalExpr, PortalFunc, PortalOp

        expr = PortalExpr("knn")
        expr.addLayer(PortalOp.FORALL, query)
        expr.addLayer((PortalOp.KARGMIN, datagen.K), reference,
                      PortalFunc.EUCLIDEAN)
        return expr


class KdeApprox(TwoLayer):
    """Gaussian KDE where little is approximated: the generated base-case
    kernel does the work and traversal little."""

    name = "kde_approx"
    options = {"tau": TAU, "exclude_self": False}

    def make_expr(self, query, reference):
        from repro import PortalExpr, PortalFunc, PortalOp

        expr = PortalExpr("kde")
        expr.addLayer(PortalOp.FORALL, query)
        expr.addLayer(PortalOp.SUM, reference, PortalFunc.GAUSSIAN,
                      bandwidth=self.data["bandwidth"])
        return expr


class MutateQuery(TwoLayer):
    """The write path of trees and caches: move 1 % of a 200k reference
    set, then query it — refit, re-fingerprint, re-key, one compile miss."""

    name = "mutate_query"
    ops_per_round = 4
    # Every op leaves a new compiled artifact in the program cache; until
    # it is full (32 entries) and evicting, the interpreter's long-lived
    # object count keeps growing, full garbage collections keep firing and
    # the same traversal runs 3–7× slower.  Steady state starts after that.
    warmup_rounds = 10
    make_expr = KnnPrune.make_expr

    def bind(self) -> None:
        super().bind()
        self.cycle = 0
        self.moved = np.zeros(0, dtype=np.int64)   # rows now off-place

    def op(self, spans=None):
        """Last cycle's rows go back, this cycle's move out (drawing them
        costs 0.5 % of the op), then one query."""
        original = self.data["reference"]
        idx, delta = datagen.mutation(self.seed, self.cycle)
        back = np.setdiff1d(self.moved, idx)
        self.reference.update_batch(
            np.concatenate([back, idx]),
            np.concatenate([original[back], original[idx] + delta]))
        self.moved = idx
        self.cycle += 1
        self.last_expr = self.make_expr(self.query, self.reference)
        return (self.cycle - 1,
                record(execute(self.last_expr, self.options, spans)))


class CompileSuite(Workload):
    """The nine Table III/IV programs as text on small inputs: parse,
    rules, IR passes, codegen and cache keying dominate."""

    name = "compile_suite"
    ops_per_round = 6
    cold_reps = 15

    def __init__(self, seed: int):
        super().__init__(seed)
        self.texts = {}
        for prog in SUITE:
            with open(os.path.join(HERE, "programs", prog + ".portal")) as fh:
                self.texts[prog] = fh.read()

    def options(self, prog: str) -> dict:
        return {"tau": SUITE_TAU[prog]} if prog in SUITE_TAU else {}

    def parse(self, prog: str, query=None, reference=None):
        """The program's PortalExpr, parsed from its text."""
        from repro.dsl.parser import parse_program

        parsed = parse_program(self.texts[prog], {
            "query": self.data["query"] if query is None else query,
            "reference": (self.data["reference"] if reference is None
                          else reference)})
        return parsed.portal_exprs[parsed.executed[0]]

    def bind(self) -> None:
        self.exprs = {prog: self.parse(prog) for prog in SUITE}

    def programs(self) -> list:
        return [(partial(self.parse, prog), self.options(prog),
                 partial(self.parse, prog)) for prog in SUITE]

    def setup(self) -> None:
        self.parse("knn", self.data["query"][:64],
                   self.data["reference"][:64]).execute()
        self.bind()

    def op(self, spans=None):
        """One sweep of cache-hit ``execute()`` over the nine."""
        out = {}
        for prog, expr in self.exprs.items():
            out[prog] = record(execute(expr, self.options(prog), spans))
        self.last_expr = expr
        return 0, out

    def cold(self, spans=None):
        """``clear_caches()`` → parse → compile → run, all nine."""
        from repro.backend.cache import clear_caches

        clear_caches()
        out = {}
        for prog in SUITE:
            with spans.span("dsl.parse") if spans else nullcontext():
                expr = self.parse(prog)
            out[prog] = record(execute(expr, self.options(prog), spans))
            self.exprs[prog] = expr
        self.last_expr = expr
        return 0, out


class ServeFanin(Workload):
    """Closed loop: 32 coroutine clients, one row per request, against an
    in-process service — per-batch fixed cost, not traversal, is measured.
    A round is ``ROUND_S`` seconds of that traffic; an op is one request."""

    name = "serve_fanin"
    cold_reps = 15
    ROUND_S = 0.5
    ROWS_PER_CLIENT = 8_192
    make_expr = KnnPrune.make_expr

    def __init__(self, seed: int):
        super().__init__(seed)
        self.loop = asyncio.new_event_loop()
        self.service = None
        #: how far each client is into its row sequence (which wraps)
        self.position = [0] * datagen.SERVE_CLIENTS
        self.rows = [datagen.serve_rows(seed, c, self.ROWS_PER_CLIENT)
                     for c in range(datagen.SERVE_CLIENTS)]

    def template(self, reference):
        from repro import Storage

        return self.make_expr(Storage(reference[:1], name="query"),
                              Storage(reference, name="reference"))

    def start(self, reference) -> None:
        """A fresh service with ``reference`` registered (closes the old)."""
        from repro.serve import AdmissionConfig, PortalService

        self.stop()
        self.service = PortalService(max_workers=1)
        # max_queue far above 32 outstanding rows: nothing is ever shed
        admission = AdmissionConfig(max_queue=4096, batch_max=256,
                                    linger_us=2000)
        self.handle = self.loop.run_until_complete(self.service.register(
            self.template(reference), admission=admission))

    def query(self, points):
        return self.loop.run_until_complete(
            self.service.query(self.handle, points))

    def programs(self) -> list:
        return [(lambda: self.template(self.data["reference"]), {}, None)]

    def setup(self) -> None:
        self.start(self.data["reference"][:64])
        self.query(self.data["pool"][:1])
        self.start(self.data["reference"])

    def cold(self, spans=None):
        """``register()`` on cleared caches → first answer."""
        from repro.backend.cache import clear_caches

        clear_caches()
        self.start(self.data["reference"])
        row = int(self.rows[0][0])
        res = self.query(self.data["pool"][row:row + 1])
        return row, {"values": res.values, "indices": res.indices}

    async def _client(self, c: int, deadline: float, done: list) -> None:
        pool, rows = self.data["pool"], self.rows[c]
        while time.perf_counter() < deadline:
            row = int(rows[self.position[c] % len(rows)])
            self.position[c] += 1
            t0 = time.perf_counter()
            try:
                res = await self.service.query(self.handle,
                                               pool[row:row + 1])
            except Exception:  # shed or failed: counted, loop keeps going
                self.errors += 1
                continue
            done.append((time.perf_counter() - t0, row,
                         {"values": res.values, "indices": res.indices}))

    def round(self, spans=None):
        done: list = []
        t0 = time.perf_counter()
        deadline = t0 + self.ROUND_S

        async def traffic():
            await asyncio.gather(*(
                self._client(c, deadline, done)
                for c in range(datagen.SERVE_CLIENTS)))

        if spans is None:
            self.loop.run_until_complete(traffic())
        else:
            before = self.service.counters.as_dict()
            with spans.span("serve.round") as row:
                self.loop.run_until_complete(traffic())
            row["counters"] = {
                k: v - before.get(k, 0)
                for k, v in self.service.counters.as_dict().items()}
            row["queue_peak"] = self.service.stats()["queue_peak"]
        return time.perf_counter() - t0, done

    def stop(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
            self.service = None

    def close(self) -> None:
        self.stop()
        self.loop.close()


WORKLOADS = {cls.name: cls for cls in
             (KnnPrune, KdeApprox, CompileSuite, ServeFanin, MutateQuery)}
