"""Counter-driven online refinement: live runs whose observed profile
deviates from the tuning measurement retire the cached decision."""

from repro.observe import collect
from repro.policy import policy_store

from tests.policy.test_modes import CONFIG, _expr, seed_entry


def _live_ref(build, base):
    """The problem's true counter profile (from one static run)."""
    expr = build()
    expr.execute(**base)
    t = expr.stats()["traversal"]
    return {"prune_rate": t["prune_rate"],
            "exact_pair_fraction": t["exact_pair_fraction"]}


def _sizes(build):
    expr = build()
    return expr.layers[0].storage.n, expr.layers[-1].storage.n


class TestDeviation:
    def test_prune_deviation_marks_stale(self, policy_path):
        build, base = _expr()
        nq, nr = _sizes(build)
        # Tuning claims 99% prune; this problem prunes almost nothing.
        key = seed_entry(build, base, ref={"prune_rate": 0.99},
                         measured_nq=nq, measured_nr=nr)
        expr = build()
        with collect() as counters:
            expr.execute(**base, policy="auto")
        assert expr.stats()["policy"]["source"] == "policy-cache"
        assert counters.as_dict()["policy.stale_marked"] == 1
        assert policy_store().get(key).stale

    def test_pair_fraction_deviation_marks_stale(self, policy_path):
        build, base = _expr()
        nq, nr = _sizes(build)
        live = _live_ref(build, base)
        key = seed_entry(
            build, base,
            ref={"prune_rate": live["prune_rate"],
                 "exact_pair_fraction": live["exact_pair_fraction"] / 100},
            measured_nq=nq, measured_nr=nr)
        build_expr = build()
        with collect() as counters:
            build_expr.execute(**base, policy="auto")
        assert counters.as_dict()["policy.stale_marked"] == 1
        assert policy_store().get(key).stale

    def test_matching_profile_stays_fresh(self, policy_path):
        build, base = _expr()
        nq, nr = _sizes(build)
        # The forged config must match the profile source: both static.
        static_cfg = dict(CONFIG, traversal="batched",
                          leaf_size=64)
        live = _live_ref(build, base)
        key = seed_entry(build, base, config=static_cfg, ref=live,
                         measured_nq=nq, measured_nr=nr)
        expr = build()
        with collect() as counters:
            expr.execute(**base, policy="auto")
        snap = counters.as_dict()
        assert snap.get("policy.observe_ok", 0) >= 1
        assert "policy.stale_marked" not in snap
        assert not policy_store().get(key).stale

    def test_size_window_guards_pair_fraction(self, policy_path):
        build, base = _expr()
        live = _live_ref(build, base)
        # Entry measured at a much larger size: its exact-pair fraction
        # is not comparable and must not trigger staleness by itself.
        key = seed_entry(
            build, base,
            config=dict(CONFIG, traversal="batched", leaf_size=64),
            ref={"prune_rate": live["prune_rate"],
                 "exact_pair_fraction": live["exact_pair_fraction"] / 100},
            measured_nq=4096, measured_nr=16384)
        expr = build()
        expr.execute(**base, policy="auto")
        assert not policy_store().get(key).stale


class TestStaleResearch:
    def test_stale_entry_triggers_research(self, policy_path):
        build, base = _expr()
        key = seed_entry(build, base)
        policy_store().mark_stale(key)
        expr = build()
        with collect() as counters:
            expr.execute(**base, policy="auto")
        snap = counters.as_dict()
        assert snap["policy.stale_research"] == 1
        assert snap["policy.search"] == 1
        assert expr.stats()["policy"]["source"] == "fresh-search"
        fresh = policy_store().get(key)
        assert fresh is not None and not fresh.stale

    def test_search_mode_also_replaces_stale(self, policy_path):
        build, base = _expr()
        key = seed_entry(build, base)
        policy_store().mark_stale(key)
        expr = build()
        expr.execute(**base, policy="search")
        assert expr.stats()["policy"]["source"] == "fresh-search"
        assert not policy_store().get(key).stale

