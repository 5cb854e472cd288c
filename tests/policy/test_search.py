"""Unit tests for the measured policy search: pruned enumeration,
coordinate descent over a scripted cost surface, and subsampling."""

import numpy as np
import pytest

from repro.backend.plan import ExecutionPlan
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.policy.search import (
    AXIS_ORDER, _stride_subsample, enumerate_axes, search_policy,
    subsampled_layers,
)

from tests.backend.test_plan import plan_for


def start_plan():
    """The static rules' plan of a bound-rule program — the search's
    start point."""
    return plan_for(problem="knn")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestEnumerateAxes:
    def test_single_worker_prunes_parallel_axes(self):
        axes = enumerate_axes(workers=1)
        assert axes["executor"] == ["serial"]

    def test_multi_worker_enables_executors(self):
        axes = enumerate_axes(workers=4)
        assert axes["executor"] == ["serial", "thread", "process"]
        assert axes["leaf_size"] == [32, 64, 128]

    def test_small_reference_never_sharded(self):
        """No reference set, small or large, makes the shard count an
        axis: only an explicit option shards."""
        for workers in (1, 8):
            assert "shards" not in enumerate_axes(workers=workers)

    def test_stack_dropped_at_scale(self):
        """The stack reference engine is no axis at any scale: the
        search sweeps executor and leaf size only."""
        for workers in (1, 4):
            assert set(enumerate_axes(workers=workers)) == set(AXIS_ORDER)
        assert AXIS_ORDER == ("executor", "leaf_size")


class TestCandidate:
    def test_label_roundtrips_options(self):
        cand = ExecutionPlan(engine="stack", executor="process", workers=2,
                             min_tasks=8, leaf_size=32, shards=2)
        opts = cand.to_options()
        assert opts["parallel"] is True and opts["executor"] == "process"
        assert opts["traversal"] == "stack" and opts["shards"] == 2
        # the engine and the shard count are asked by option only: a
        # stored config neither records nor routes them
        config = {"executor": "process", "leaf_size": 32}
        assert cand.to_config() == config
        assert ExecutionPlan.from_config(
            dict(config, traversal="stack", shards=2)) == config

    def test_serial_disables_parallel(self):
        opts = start_plan().to_options()
        assert opts["parallel"] is False
        assert "executor" not in opts


class TestSearchPolicy:
    def _cost(self, clock):
        """Scripted surface: thread executor halves the cost, leaf 32
        beats 64, everything else is neutral."""

        def run(cand):
            cost = 8.0
            if cand.executor == "thread":
                cost /= 2
            if cand.leaf_size == 32:
                cost -= 1
            clock.now += cost

        return run

    def test_descends_to_scripted_optimum(self):
        clock = FakeClock()
        axes = {"executor": ["serial", "thread"], "leaf_size": [32, 64]}
        best, timings = search_policy(
            self._cost(clock), axes, start_plan(),
            repeats=1, budget_s=None, clock=clock)
        assert best.executor == "thread"
        assert best.leaf_size == 32
        # incumbent configurations are never re-measured
        assert len(timings) == len(set(timings))

    def test_budget_keeps_best_so_far(self):
        clock = FakeClock()
        axes = {"executor": ["serial", "thread"], "leaf_size": [32, 64]}
        best, timings = search_policy(
            self._cost(clock), axes, start_plan(),
            repeats=1, budget_s=10.0, clock=clock)
        # Budget died during/after the executor sweep; later axes were
        # skipped but a valid best candidate still came back.
        assert isinstance(best, ExecutionPlan)
        assert timings


class TestSubsample:
    def test_stride_is_spatially_unbiased(self):
        data = np.arange(100, dtype=float).reshape(-1, 1)
        sub = _stride_subsample(data, 10)
        assert len(sub) == 10
        # spans the whole range, not one corner
        assert sub[0, 0] == 0.0 and sub[-1, 0] >= 90.0

    def test_small_data_untouched(self):
        data = np.arange(8, dtype=float).reshape(-1, 1)
        assert _stride_subsample(data, 10) is data

    def test_subsampled_layers_shares_storage_identity(self):
        rng = np.random.default_rng(3)
        data = Storage(rng.normal(size=(100, 3)), name="pts")
        e = PortalExpr("two-point")
        e.addLayer(PortalOp.SUM, data)
        e.addLayer(PortalOp.SUM, data, PortalFunc.GAUSSIAN, bandwidth=1.0)
        build, nq, nr = subsampled_layers(e.layers, max_q=10, max_r=40)
        sub = build()
        # monochromatic problems must stay monochromatic (self-pair
        # exclusion hangs off storage identity)
        assert sub.layers[0].storage is sub.layers[1].storage
        assert nq == nr == 10

    def test_subsampled_layers_caps_sizes(self):
        rng = np.random.default_rng(4)
        e = PortalExpr("knn")
        e.addLayer(PortalOp.FORALL,
                   Storage(rng.normal(size=(500, 3)), name="q"))
        e.addLayer((PortalOp.KARGMIN, 3),
                   Storage(rng.normal(size=(900, 3)), name="r"),
                   PortalFunc.EUCLIDEAN)
        build, nq, nr = subsampled_layers(e.layers, max_q=50, max_r=100)
        assert nq <= 50 and nr <= 100
        sub = build()
        out = sub.execute()
        assert np.asarray(out.indices).shape == (nq, 3)
