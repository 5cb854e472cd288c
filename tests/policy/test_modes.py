"""Policy mode semantics: static / auto / search, precedence of
explicit options, env plumbing, and failure-mode degradation."""

import pytest

from repro.backend.jit import CompileOptions
from repro.dsl import SpecificationError
from repro.observe import collect
from repro.policy import PolicyEntry, policy_key, policy_store

from tests.backend.test_differential import make_problem

SEED = 101
CONFIG = {"traversal": "stack", "executor": "serial", "leaf_size": 32}


def _expr(name="knn"):
    build, _, base = make_problem(name, SEED)
    return build, base


def seed_entry(build, base, config=CONFIG, **entry_kw):
    """Forge a policy entry keyed exactly as the compiler will key it."""
    expr = build()
    expr.validate()
    key = policy_key(expr.layers, CompileOptions.from_dict(dict(base)))
    policy_store().put(key, PolicyEntry(config=dict(config), **entry_kw))
    return key


class TestStatic:
    def test_default_is_static(self, policy_path):
        build, base = _expr()
        expr = build()
        expr.execute(**base)
        assert expr.stats()["policy"] == {"source": "static-auto"}
        assert not policy_path.exists()

    def test_static_ignores_seeded_entries(self, policy_path):
        build, base = _expr()
        seed_entry(build, base)
        expr = build()
        expr.execute(**base)
        st = expr.stats()["policy"]
        assert st["source"] == "static-auto"
        # stack was not applied
        assert expr.stats()["traversal_engine"] != "stack"


class TestAuto:
    def test_miss_falls_back_to_static(self, policy_path):
        build, base = _expr()
        expr = build()
        with collect() as counters:
            expr.execute(**base, policy="auto")
        assert expr.stats()["policy"]["source"] == "static-auto"
        assert counters.as_dict()["policy.miss"] == 1
        assert not policy_path.exists()  # auto never searches on a miss

    def test_hit_applies_cached_config(self, policy_path):
        build, base = _expr()
        seed_entry(build, base)
        expr = build()
        with collect() as counters:
            expr.execute(**base, policy="auto")
        st = expr.stats()
        assert st["policy"]["source"] == "policy-cache"
        assert st["policy"]["applied"]["leaf_size"] == 32
        # the engine is no policy knob: a stored 'stack' routes nothing
        assert "traversal" not in st["policy"]["applied"]
        assert st["traversal_engine"] == "batched"
        assert counters.as_dict()["policy.hit"] == 1

    def test_corrupt_file_degrades_to_static(self, policy_path):
        policy_path.write_text("{ definitely not json")
        build, base = _expr()
        expr = build()
        with collect() as counters:
            expr.execute(**base, policy="auto")
        assert expr.stats()["policy"]["source"] == "static-auto"
        snap = counters.as_dict()
        assert snap["policy.load_failed"] == 1
        assert snap["policy.miss"] == 1


class TestSearch:
    def test_search_persists_and_reports(self, policy_path):
        build, base = _expr()
        expr = build()
        with collect() as counters:
            expr.execute(**base, policy="search")
        st = expr.stats()["policy"]
        assert st["source"] == "fresh-search"
        assert set(st["config"]) == {"executor", "leaf_size"}
        assert policy_path.exists()
        assert counters.as_dict()["policy.search"] == 1

    def test_second_run_hits_in_auto(self, policy_path):
        build, base = _expr()
        build().execute(**base, policy="search")
        expr = build()
        expr.execute(**base, policy="auto")
        assert expr.stats()["policy"]["source"] == "policy-cache"

    def test_search_reuses_fresh_entry(self, policy_path):
        build, base = _expr()
        build().execute(**base, policy="search")
        expr = build()
        with collect() as counters:
            expr.execute(**base, policy="search")
        assert expr.stats()["policy"]["source"] == "policy-cache"
        assert "policy.search" not in counters.as_dict()


class TestPrecedence:
    def test_explicit_options_win(self, policy_path):
        build, base = _expr()
        seed_entry(build, base)
        expr = build()
        expr.execute(**base, policy="auto", traversal="batched",
                     leaf_size=128)
        st = expr.stats()
        applied = st["policy"]["applied"]
        assert "traversal" not in applied
        assert "leaf_size" not in applied
        # the cached 'stack' choice must not override the explicit knob
        assert st["traversal_engine"] != "stack"

    def test_env_knobs_count_as_explicit(self, policy_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        build, base = _expr()
        seed_entry(build, base,
                   config=dict(CONFIG, executor="process"))
        expr = build()
        expr.execute(**base, policy="auto", parallel=True)
        applied = expr.stats()["policy"]["applied"]
        assert "executor" not in applied

    def test_unknown_mode_rejected(self, policy_path):
        build, base = _expr()
        with pytest.raises(SpecificationError, match="policy"):
            build().execute(**base, policy="aggressive")


class TestStatsSummary:
    def test_summary_includes_policy_block(self, policy_path):
        build, base = _expr()
        seed_entry(build, base)
        expr = build()
        expr.execute(**base, policy="auto")
        pol = expr.stats()["policy"]
        assert pol["key"].count(":") == 5
        assert pol["config"]["leaf_size"] == 32
