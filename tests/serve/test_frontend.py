"""JSON-over-TCP frontend protocol tests.

All in-process: each test starts a :class:`ServeFrontend` on an
ephemeral loopback port, speaks newline-delimited JSON over asyncio
streams, and shuts the server down.
"""

import asyncio
import json

import numpy as np

from repro.serve import PortalService, ServeFrontend

from tests.backend.test_differential import _data

SEED = 101

PROGRAM = """
Storage query("q.csv");
Storage reference("r.csv");
PortalExpr nn;
nn.addLayer(FORALL, query);
nn.addLayer((KARGMIN, 3), reference, EUCLIDEAN);
"""

TWO_EXPRS = PROGRAM + """
PortalExpr wide;
wide.addLayer(FORALL, query);
wide.addLayer((KARGMIN, 5), reference, EUCLIDEAN);
"""


def _bindings():
    Q, R = _data(SEED)
    return Q, R, {"q.csv": Q[:1].tolist(), "r.csv": R.tolist()}


class _Client:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    async def send(self, obj):
        self.writer.write(json.dumps(obj).encode() + b"\n")
        await self.writer.drain()

    async def recv(self):
        line = await self.reader.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    async def rpc(self, obj):
        await self.send(obj)
        return await self.recv()

    def close(self):
        self.writer.close()


async def _connect(fe):
    reader, writer = await asyncio.open_connection(fe.host, fe.port)
    return _Client(reader, writer)


def _with_frontend(test_coro):
    async def runner():
        fe = ServeFrontend(PortalService())
        await fe.start()
        try:
            await test_coro(fe)
        finally:
            await fe.close()

    asyncio.run(runner())


def test_register_query_stats_roundtrip():
    Q, R, data = _bindings()

    async def scenario(fe):
        c = await _connect(fe)
        assert (await c.rpc({"op": "health", "id": 0}))["status"] == "ok"
        reg = await c.rpc({"op": "register", "id": 1, "program": PROGRAM,
                           "data": data})
        assert reg["ok"] and reg["id"] == 1
        hid = reg["handle"]

        q = await c.rpc({"op": "query", "id": 2, "handle": hid,
                         "points": Q[:4].tolist(), "k": 2})
        assert q["ok"] and q["rows"] == 4

        ref = np.argsort(
            ((Q[:4, None, :] - R[None, :, :]) ** 2).sum(-1), axis=1)[:, :2]
        # k-NN indices agree with brute force up to in-k ordering
        assert np.array_equal(np.sort(q["indices"], axis=1),
                              np.sort(ref, axis=1))

        st = await c.rpc({"op": "stats", "id": 3})
        assert st["counters"]["serve.batches"] >= 1
        assert hid in st["handles"]
        un = await c.rpc({"op": "unregister", "id": 4, "handle": hid})
        assert un["ok"]
        st = await c.rpc({"op": "stats", "id": 5})
        assert hid not in st["handles"]
        c.close()

    _with_frontend(scenario)


def test_pipelined_queries_on_one_connection_coalesce():
    Q, R, data = _bindings()

    async def scenario(fe):
        c = await _connect(fe)
        reg = await c.rpc({"op": "register", "program": PROGRAM,
                           "data": data,
                           "admission": {"batch_max": 64,
                                         "linger_us": 250000}})
        hid = reg["handle"]
        n = 8
        # fire all requests before reading any response: the per-line
        # tasks coalesce exactly like separate clients
        for i in range(n):
            await c.send({"op": "query", "id": 100 + i, "handle": hid,
                          "points": [Q[i].tolist()]})
        got = {}
        for _ in range(n):
            resp = await c.recv()
            assert resp["ok"], resp
            got[resp["id"]] = resp
        assert set(got) == {100 + i for i in range(n)}

        st = await c.rpc({"op": "stats"})
        assert st["counters"]["serve.coalesced"] >= 2
        assert st["counters"]["serve.batches"] < n
        c.close()

    _with_frontend(scenario)


def test_error_payloads():
    Q, R, data = _bindings()

    async def scenario(fe):
        c = await _connect(fe)
        r = await c.rpc({"op": "frobnicate", "id": 1})
        assert not r["ok"] and "unknown op" in r["error"]["message"]
        assert r["error"]["portal"] and not r["error"]["retryable"]

        r = await c.rpc({"op": "query", "id": 2})
        assert not r["ok"] and "handle" in r["error"]["message"]

        r = await c.rpc({"op": "query", "id": 3, "handle": "nope",
                         "points": [[0, 0, 0]]})
        assert not r["ok"] and r["error"]["type"] == "ServeError"

        # malformed JSON still yields a framed error, connection survives
        c.writer.write(b"{nope\n")
        await c.writer.drain()
        r = await c.recv()
        assert not r["ok"] and r["error"]["type"] == "JSONDecodeError"
        assert (await c.rpc({"op": "health", "id": 4}))["ok"]

        # option values pass through from the wire verbatim: a bad one
        # is a typed Portal error, not a bare TypeError
        r = await c.rpc({"op": "register", "id": 6, "program": PROGRAM,
                         "data": data,
                         "options": {"workers": "two", "parallel": True}})
        assert not r["ok"] and r["error"]["type"] == "SpecificationError"
        assert r["error"]["portal"] and "workers" in r["error"]["message"]
        r = await c.rpc({"op": "register", "id": 7, "program": PROGRAM,
                         "data": data, "options": {"backend": "brue"}})
        assert not r["ok"] and r["error"]["type"] == "SpecificationError"
        assert r["error"]["portal"] and "backend" in r["error"]["message"]
        r = await c.rpc({"op": "register", "id": 8, "program": PROGRAM,
                         "data": data, "options": {"tree": "foo"}})
        assert not r["ok"] and r["error"]["type"] == "SpecificationError"
        assert r["error"]["portal"] and "tree" in r["error"]["message"]
        # there is one code generator: no codegen option to pass
        r = await c.rpc({"op": "register", "id": 9, "program": PROGRAM,
                         "data": data, "options": {"codegen": "numpy"}})
        assert not r["ok"] and r["error"]["type"] == "SpecificationError"
        assert r["error"]["portal"] and "codegen" in r["error"]["message"]
        # one exact arithmetic: no fastmath option either
        r = await c.rpc({"op": "register", "id": 10, "program": PROGRAM,
                         "data": data, "options": {"fastmath": True}})
        assert not r["ok"] and r["error"]["type"] == "SpecificationError"
        assert r["error"]["portal"] and "fastmath" in r["error"]["message"]
        # nothing shards unasked, and no option turns the caches off
        for rid, options in ((11, {"shards": "auto"}), (12, {"cache": False})):
            r = await c.rpc({"op": "register", "id": rid, "program": PROGRAM,
                             "data": data, "options": options})
            assert not r["ok"] and r["error"]["type"] == "SpecificationError"
            assert r["error"]["portal"]
            assert next(iter(options)) in r["error"]["message"]

        # shed errors are marked retryable
        reg = await c.rpc({"op": "register", "program": PROGRAM,
                           "data": data, "admission": {"max_queue": 2}})
        hid = reg["handle"]
        r = await c.rpc({"op": "query", "id": 5, "handle": hid,
                         "points": Q[:3].tolist()})
        assert not r["ok"]
        assert r["error"]["type"] == "ServiceOverloaded"
        assert r["error"]["retryable"]
        c.close()

    _with_frontend(scenario)


def test_register_picks_named_expr_and_rejects_ambiguity():
    Q, R, data = _bindings()

    async def scenario(fe):
        c = await _connect(fe)
        r = await c.rpc({"op": "register", "program": TWO_EXPRS,
                         "data": data})
        assert not r["ok"] and "pick one" in r["error"]["message"]

        r = await c.rpc({"op": "register", "program": TWO_EXPRS,
                         "data": data, "expr": "wide", "name": "wide-h"})
        assert r["ok"] and r["handle"] == "wide-h"
        q = await c.rpc({"op": "query", "handle": "wide-h",
                         "points": Q[:2].tolist()})
        assert q["ok"] and np.asarray(q["indices"]).shape == (2, 5)
        c.close()

    _with_frontend(scenario)


def test_two_connections_share_handles_and_coalesce():
    Q, R, data = _bindings()

    async def scenario(fe):
        c1 = await _connect(fe)
        c2 = await _connect(fe)
        reg = await c1.rpc({"op": "register", "program": PROGRAM,
                            "data": data, "name": "shared",
                            "admission": {"batch_max": 64,
                                          "linger_us": 250000}})
        assert reg["ok"]
        await c1.send({"op": "query", "id": 1, "handle": "shared",
                       "points": [Q[0].tolist()]})
        await c2.send({"op": "query", "id": 2, "handle": "shared",
                       "points": [Q[1].tolist()]})
        r1, r2 = await asyncio.gather(c1.recv(), c2.recv())
        assert r1["ok"] and r2["ok"]
        st = await c1.rpc({"op": "stats"})
        assert st["counters"]["serve.queries"] == 2
        c1.close()
        c2.close()

    _with_frontend(scenario)
