"""Persistent policy store: durability, versioning, and the guarantee
that no failure mode ever raises into an execution."""

import json
from dataclasses import asdict

import pytest

from repro.backend import cache as cache_mod
from repro.observe import collect
from repro.policy import (
    POLICY_SCHEMA, PolicyEntry, PolicyKey, PolicyStore, host_fingerprint,
)
from repro.policy import store as store_mod

KEY = PolicyKey(program_class="cafe0123", tree="kd", nq_bucket=8,
                nr_bucket=9, dim=3, k=4)
CONFIG = {"traversal": "batched", "executor": "serial",
          "leaf_size": 64, "shards": 1}


def _entry(**kw):
    return PolicyEntry(config=dict(CONFIG), **kw)


class TestRoundtrip:
    def test_put_get(self, policy_path):
        store = PolicyStore()
        store.put(KEY, _entry())
        got = store.get(KEY)
        assert got is not None and got.config == CONFIG
        assert policy_path.exists()

    def test_fresh_store_reads_back(self, policy_path):
        PolicyStore().put(KEY, _entry(timings={"serial/leaf64": 0.5}))
        got = PolicyStore().get(KEY)
        assert got is not None
        assert got.timings == {"serial/leaf64": 0.5}
        assert got.created > 0

    def test_hits_counted(self, policy_path):
        store = PolicyStore()
        store.put(KEY, _entry())
        store.get(KEY)
        store.get(KEY)
        assert store.get(KEY).hits == 3

    def test_payload_is_wellformed_json(self, policy_path):
        PolicyStore().put(KEY, _entry())
        payload = json.loads(policy_path.read_text())
        assert payload["policy_schema"] == POLICY_SCHEMA
        assert payload["artifact_schema"] == cache_mod.ARTIFACT_SCHEMA
        assert payload["host"] == host_fingerprint()
        assert KEY.as_str() in payload["entries"]


class TestFailureModes:
    def test_corrupt_file_degrades(self, policy_path):
        policy_path.write_text("{ not json !!!")
        with collect() as counters:
            store = PolicyStore()
            assert store.get(KEY) is None
            assert len(store) == 0
        assert counters.as_dict()["policy.load_failed"] == 1

    def test_truncated_file_degrades(self, policy_path):
        PolicyStore().put(KEY, _entry())
        text = policy_path.read_text()
        policy_path.write_text(text[: len(text) // 2])
        with collect() as counters:
            assert PolicyStore().get(KEY) is None
        assert counters.as_dict()["policy.load_failed"] == 1

    def test_corrupt_file_overwritten_by_next_put(self, policy_path):
        policy_path.write_text("garbage")
        store = PolicyStore()
        store.put(KEY, _entry())
        assert PolicyStore().get(KEY) is not None

    def test_unknown_entry_fields_tolerated(self, policy_path):
        PolicyStore().put(KEY, _entry())
        payload = json.loads(policy_path.read_text())
        payload["entries"][KEY.as_str()]["future_field"] = 123
        policy_path.write_text(json.dumps(payload))
        assert PolicyStore().get(KEY) is not None


class TestVersioning:
    def test_artifact_schema_bump_drops_entries(self, policy_path,
                                                monkeypatch):
        PolicyStore().put(KEY, _entry())
        monkeypatch.setattr(cache_mod, "ARTIFACT_SCHEMA",
                            cache_mod.ARTIFACT_SCHEMA + 1)
        with collect() as counters:
            assert PolicyStore().get(KEY) is None
        assert counters.as_dict()["policy.schema_mismatch"] == 1

    def test_policy_schema_bump_drops_entries(self, policy_path,
                                              monkeypatch):
        # A schema-1 file, written while configs still carried a codegen
        # target, is dropped as a mismatch — not read, not raised.
        old = PolicyEntry(config=dict(CONFIG, codegen="native"))
        policy_path.write_text(json.dumps({
            "policy_schema": 1,
            "artifact_schema": cache_mod.ARTIFACT_SCHEMA,
            "host": host_fingerprint(),
            "entries": {KEY.as_str(): asdict(old)},
        }))
        with collect() as counters:
            assert PolicyStore().get(KEY) is None
        assert counters.as_dict()["policy.schema_mismatch"] == 1

        PolicyStore().put(KEY, _entry())
        monkeypatch.setattr(store_mod, "POLICY_SCHEMA",
                            store_mod.POLICY_SCHEMA + 1)
        with collect() as counters:
            assert PolicyStore().get(KEY) is None
        assert counters.as_dict()["policy.schema_mismatch"] == 1

    def test_host_change_drops_entries(self, policy_path, monkeypatch):
        PolicyStore().put(KEY, _entry())
        monkeypatch.setattr(store_mod, "host_fingerprint",
                            lambda: "0000000000000000")
        with collect() as counters:
            assert PolicyStore().get(KEY) is None
        assert counters.as_dict()["policy.host_mismatch"] == 1


class TestLifecycle:
    def test_forget_rereads_file(self, policy_path):
        store = PolicyStore()
        store.put(KEY, _entry())
        # another writer updates the file behind this store's back
        PolicyStore().put(KEY, _entry(measured_nq=7))
        assert store.get(KEY).measured_nq == 0  # cached in-memory view
        store.forget()
        assert store.get(KEY).measured_nq == 7

    def test_clear_empties_table_and_file(self, policy_path):
        store = PolicyStore()
        store.put(KEY, _entry())
        store.clear()
        assert len(PolicyStore()) == 0


class TestStoredEngineNames:
    @pytest.mark.parametrize("name", ["knn", "kde"])
    def test_stored_bounded_batched_resolves_to_batched(self, policy_path,
                                                         name):
        """A config stored while ``"bounded-batched"`` was an engine
        value still routes, for either rule kind: no plan reads a stored
        ``traversal``, so the engine is the static rule's ``"batched"``,
        and the next load of the file drops the key."""
        from tests.policy.test_modes import _expr, seed_entry

        build, base = _expr(name)
        seed_entry(build, base, config=dict(CONFIG,
                                            traversal="bounded-batched"))
        expr = build()
        expr.execute(**base, policy="auto")
        stats = expr.stats()
        assert stats["policy"]["source"] == "policy-cache"
        assert stats["traversal_engine"] == "batched"
        assert stats["plan"]["engine"] == {"value": "batched",
                                           "source": "static"}
        with collect() as counters:
            reloaded = PolicyStore()
            assert all("traversal" not in e.config
                       for e in reloaded._load().values())
        assert counters.as_dict()["policy.dropped_entries"] == 1


class TestRefinementFields:
    def test_parent_file_routes_without_search(self, policy_path):
        """A file written while live runs could retire an entry — one
        entry flagged ``stale``, with the ``ref`` counters that flag was
        judged by and a ``shards`` config key — loads; ``policy="auto"``
        routes from that entry and never searches; the load strips
        ``shards`` (``policy.dropped_entries``); and the next ``put``
        writes none of the three back."""
        from repro.backend.jit import CompileOptions
        from repro.policy import policy_key

        from tests.policy.test_modes import _expr

        build, base = _expr("knn")
        keyed = build()
        keyed.validate()
        key = policy_key(keyed.layers, CompileOptions.from_dict(dict(base)))
        config = {"executor": "serial", "leaf_size": 32, "shards": 2}
        policy_path.write_text(json.dumps({
            "policy_schema": POLICY_SCHEMA,
            "artifact_schema": cache_mod.ARTIFACT_SCHEMA,
            "host": host_fingerprint(),
            "entries": {key.as_str(): {
                "config": config, "timings": {},
                "ref": {"prune_rate": 0.99, "exact_pair_fraction": 1e-6},
                "measured_nq": 4096, "measured_nr": 16384,
                "stale": True, "created": 1.0, "hits": 3,
            }},
        }))

        expr = build()
        with collect() as counters:
            expr.execute(**base, policy="auto")
        snap = counters.as_dict()
        assert snap["policy.hit"] == 1
        assert "policy.search" not in snap
        assert snap["policy.dropped_entries"] == 1
        stats = expr.stats()
        assert stats["policy"]["source"] == "policy-cache"
        assert stats["policy"]["applied"]["leaf_size"] == 32
        assert "shards" not in stats["policy"]["applied"]
        assert stats["plan"]["shards"] == {"value": 1, "source": "static"}

        PolicyStore().put(KEY, PolicyEntry(config={"executor": "thread"}))
        stored = json.loads(policy_path.read_text())["entries"]
        assert set(stored) == {key.as_str(), KEY.as_str()}
        for entry in stored.values():
            assert not {"ref", "stale"} & set(entry)
            assert "shards" not in entry["config"]
