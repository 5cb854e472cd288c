"""Unit tests for the :mod:`repro.observe` tracer and counters registry."""

import json
import threading

import numpy as np
import pytest

from repro.observe import (
    Counters, active_counters, collect, contribute, disable_tracing,
    enable_tracing, event, get_tracer, span, tracing,
)


class TestCounters:
    def test_inc_update_get(self):
        c = Counters()
        c.inc("a")
        c.inc("a", 2)
        c.update({"b": 5})
        assert c.get("a") == 3
        assert c.get("b") == 5
        assert c.get("missing") == 0
        assert len(c) == 2

    def test_merge_and_clear(self):
        a, b = Counters(), Counters()
        a.inc("x", 1)
        b.inc("x", 2)
        b.inc("y", 7)
        a.merge(b)
        assert a.as_dict() == {"x": 3, "y": 7}
        a.clear()
        assert len(a) == 0

    def test_rate(self):
        c = Counters()
        c.update({"hits": 3, "total": 12})
        assert c.rate("hits", "total") == pytest.approx(0.25)
        assert c.rate("hits", "absent") == 0.0

    def test_thread_safety(self):
        c = Counters()

        def bump():
            for _ in range(5000):
                c.inc("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.get("n") == 20000


class TestCollect:
    def test_disabled_by_default(self):
        assert active_counters() is None
        contribute({"ignored": 1})  # must be a silent no-op

    def test_collect_captures(self):
        with collect() as c:
            assert active_counters() is c
            contribute({"k": 2})
            contribute({"k": 3})
        assert c.get("k") == 5
        assert active_counters() is None

    def test_nested_collect_shadows(self):
        with collect() as outer:
            contribute({"k": 1})
            with collect() as inner:
                contribute({"k": 10})
            contribute({"k": 1})
        assert outer.get("k") == 2
        assert inner.get("k") == 10

    def test_out_of_order_exit_across_threads(self):
        """Regression: concurrent collect blocks may exit in any order
        (the serving layer executes on a worker pool).  A block exiting
        *before* a later-opened block must not restore its own saved
        predecessor — that would deactivate (or resurrect) the wrong
        registry for the still-open block."""
        entered_a = threading.Event()
        entered_b = threading.Event()
        exited_a = threading.Event()
        regs = {}

        def thread_a():
            with collect() as a:
                regs["a"] = a
                entered_a.set()
                assert entered_b.wait(5)
            exited_a.set()

        def thread_b():
            assert entered_a.wait(5)
            with collect() as b:
                regs["b"] = b
                entered_b.set()
                assert exited_a.wait(5)
                # A entered first and exited first; B must still be the
                # active registry, not A's saved predecessor (None).
                assert active_counters() is b
                contribute({"late": 1})

        ta = threading.Thread(target=thread_a)
        tb = threading.Thread(target=thread_b)
        ta.start()
        tb.start()
        ta.join(10)
        tb.join(10)
        assert active_counters() is None
        assert regs["b"].get("late") == 1

    def test_same_registry_reentrant_across_threads(self):
        """The serving layer installs one shared registry from many
        worker threads at once; every exit order must leave it counting
        until the last block closes, then deactivate it."""
        shared = Counters()
        barrier = threading.Barrier(4, timeout=10)

        def worker():
            with collect(shared):
                barrier.wait()  # all four blocks open simultaneously
                contribute({"n": 1})
                barrier.wait()  # hold until everyone contributed

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert shared.get("n") == 4
        assert active_counters() is None


class TestTracer:
    def test_disabled_span_is_null(self):
        assert get_tracer() is None
        with span("anything", x=1) as sp:
            sp.note(y=2)  # no-op singleton accepts notes
        event("nothing")  # no sink, no error

    def test_spans_and_events_emit_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing(str(path)):
            with span("outer", stage="test") as sp:
                sp.note(extra=42)
            event("marker", value=7)
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(records) == 2
        outer = next(r for r in records if r["name"] == "outer")
        assert outer["event"] == "span"
        assert outer["attrs"] == {"stage": "test", "extra": 42}
        assert outer["dur_ms"] >= 0.0
        assert "ts_ms" in outer and "thread" in outer
        marker = next(r for r in records if r["name"] == "marker")
        assert marker["event"] == "event"
        assert marker["attrs"] == {"value": 7}
        assert get_tracer() is None  # context manager restored

    def test_span_records_errors(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing(str(path)):
            with pytest.raises(RuntimeError):
                with span("failing"):
                    raise RuntimeError("kaboom")
        [record] = [json.loads(l) for l in path.read_text().splitlines()]
        assert record["name"] == "failing"
        assert "kaboom" in record["error"]

    def test_enable_disable(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = enable_tracing(str(path))
        try:
            assert get_tracer() is tracer
            with span("one"):
                pass
        finally:
            disable_tracing()
        assert get_tracer() is None
        assert tracer.records_emitted == 1


class TestPipelineIntegration:
    def test_compile_emits_pipeline_spans(self, tmp_path):
        from repro.problems import knn

        rng = np.random.default_rng(5)
        Q = rng.normal(size=(80, 3))
        path = tmp_path / "trace.jsonl"
        with tracing(str(path)), collect() as counters:
            knn(Q, k=2)
        names = {json.loads(l)["name"]
                 for l in path.read_text().splitlines()}
        assert {"compile.rules", "compile.tree_build", "codegen",
                "run"} <= names
        # The IR is built on read, never by a compile.
        assert not names & {"compile.lowering", "compile.passes"}
        assert not any(n.startswith("ir.pass.") for n in names)
        assert counters.get("compile.count") == 1
        assert counters.get("traversal.visited") > 0
        assert not any(k.startswith("passes.") for k in counters.as_dict())

    def test_reading_the_ir_emits_the_ir_spans(self, tmp_path):
        from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage

        rng = np.random.default_rng(5)
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(40, 3))))
        e.addLayer(PortalOp.MIN, Storage(rng.normal(size=(50, 3))),
                   PortalFunc.EUCLIDEAN)
        e.execute()
        path = tmp_path / "trace.jsonl"
        with tracing(str(path)), collect() as counters:
            e.ir_dump()
            e.ir_dump("lowered")  # the built IR is kept
        names = [json.loads(l)["name"]
                 for l in path.read_text().splitlines()]
        assert names.count("compile.lowering") == 1
        assert names.count("compile.passes") == 1
        assert any(n.startswith("ir.pass.") for n in names)
        assert counters.get("passes.verify_s") > 0
        assert "compile.count" not in counters.as_dict()

    def test_parse_emits_span(self, tmp_path):
        from repro.dsl import parse_program

        path = tmp_path / "trace.jsonl"
        with tracing(str(path)):
            parse_program(
                'Storage a("a.csv");\nPortalExpr e;\n',
                bindings={"a.csv": np.zeros((4, 2))})
        names = [json.loads(l)["name"]
                 for l in path.read_text().splitlines()]
        assert names == ["parse"]

    def test_stats_api_shape(self):
        from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage

        rng = np.random.default_rng(6)
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(60, 3))))
        e.addLayer(PortalOp.ARGMIN, Storage(rng.normal(size=(70, 3))),
                   PortalFunc.EUCLIDEAN)
        e.execute()
        s = e.stats()
        assert s["mode"] == "tree"
        assert {"visited", "pruned", "prune_rate", "approx_rate"} <= set(
            s["traversal"])
        assert set(s["compile_timings_ms"]) == {
            "rules", "codegen", "tree_build"}
        assert s["pass_timings_ms"] == {}  # nothing read the IR yet
        assert s["run_ms"] >= 0.0
        json.dumps(s)  # the summary must be JSON-serialisable
        e.ir_dump()
        assert set(e.stats()["pass_timings_ms"]) >= {
            "flatten", "fold", "cse", "dce", "verify"}
