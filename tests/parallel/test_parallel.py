"""Tests for the parallel executor and the task→data scheduler."""

import numpy as np
import pytest

from repro.backend.codegen import GeneratedKernels
from repro.backend.plan import ExecutionPlan
from repro.parallel import (
    Side, default_workers, expand_frontier, fan_out, run_tasks,
)
from repro.trees import build_kdtree


@pytest.fixture
def rng():
    return np.random.default_rng(14)


class TestExecutor:
    def test_results_in_order(self):
        tasks = [lambda i=i: i * i for i in range(10)]
        assert run_tasks(tasks, workers=4) == [i * i for i in range(10)]

    def test_serial_fallback(self):
        tasks = [lambda: 1, lambda: 2]
        assert run_tasks(tasks, workers=1) == [1, 2]

    def test_exception_propagates(self):
        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_tasks([boom, lambda: 1], workers=2)

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_failure_cancels_queued_tasks(self):
        """Regression: a failing task must cancel queued tasks instead of
        letting the pool drain them all before the exception surfaces."""
        import threading

        started = []
        # Never set: ok-tasks that *do* start park here so the cancel
        # sweep (microseconds) always lands before a worker can drain
        # the queue.  The timeout only bounds how long a parked task
        # lingers — correctness does not depend on it.
        parked = threading.Event()

        def boom():
            raise ValueError("boom")

        def make(i):
            def task():
                started.append(i)
                parked.wait(0.25)
                return i
            return task

        with pytest.raises(ValueError, match="boom"):
            run_tasks([boom] + [make(i) for i in range(32)], workers=2)
        assert len(started) < 32

    def test_earliest_failure_wins(self):
        """Both tasks fail, in submission order (enforced by an event,
        not a sleep): the earliest-submitted failure is the one raised."""
        import threading

        first_raised = threading.Event()

        def first():
            first_raised.set()
            raise ValueError("first")

        def second():
            assert first_raised.wait(5.0)
            raise ValueError("second")

        with pytest.raises(ValueError, match="first"):
            run_tasks([first, second], workers=2)

    def test_earliest_submitted_failure_wins_over_first_done(self):
        """Regression: when a later-submitted task fails *first* in
        wall-clock, the raised exception must still be the earliest
        submitted one — matching what serial execution would raise."""
        import threading

        second_failed = threading.Event()
        # Never set: keeps task 1 running while the executor observes
        # task 2's failure and sweeps the queue.  The timeout only
        # bounds lingering; the submission-order scan in the executor
        # raises task 1's error regardless of which finishes first.
        parked = threading.Event()

        def slow_first():
            assert second_failed.wait(5.0)
            parked.wait(0.25)
            raise ValueError("submitted-first")

        def fast_second():
            second_failed.set()
            raise RuntimeError("finished-first")

        with pytest.raises(ValueError, match="submitted-first"):
            run_tasks([slow_first, fast_second], workers=2)

    def test_midqueue_failure_cancels_unstarted_tail(self):
        """Regression: a failure in the middle of the queue cancels the
        later tasks that have not started, and the earliest-submitted
        failure is the one raised."""
        import threading

        started = []
        parked = threading.Event()  # never set; bounds lingering only

        def ok(i):
            def task():
                started.append(i)
                parked.wait(0.25)
                return i
            return task

        def boom(msg):
            def task():
                raise ValueError(msg)
            return task

        tasks = ([ok(0), boom("early"), boom("late")]
                 + [ok(i) for i in range(3, 40)])
        with pytest.raises(ValueError, match="early"):
            run_tasks(tasks, workers=2)
        assert len(started) < 37  # the tail never ran


class TestFrontier:
    def test_enough_nodes(self, rng):
        t = build_kdtree(rng.normal(size=(256, 2)), leaf_size=4)
        frontier = expand_frontier(t, 16)
        assert len(frontier) >= 16

    def test_frontier_partitions_points(self, rng):
        t = build_kdtree(rng.normal(size=(256, 2)), leaf_size=4)
        frontier = expand_frontier(t, 8)
        slices = sorted(t.slice(n) for n in frontier)
        assert slices[0][0] == 0 and slices[-1][1] == 256
        for (a, b), (c, d) in zip(slices, slices[1:]):
            assert b == c

    def test_all_leaves_stops(self, rng):
        t = build_kdtree(rng.normal(size=(16, 2)), leaf_size=8)
        frontier = expand_frontier(t, 1000)
        assert len(frontier) == len(t.leaves())


class TestParallelTraversal:
    def test_matches_serial(self, rng):
        from repro.traversal import dual_tree_traversal

        X = rng.normal(size=(300, 3))
        t = build_kdtree(X, leaf_size=16)
        acc_serial = np.zeros(300)
        acc_par = np.zeros(300)

        def make_base(acc):
            def base(qs, qe, rs, re):
                diff = t.points[qs:qe, None, :] - t.points[None, rs:re, :]
                acc[qs:qe] += np.exp(-(diff ** 2).sum(-1)).sum(axis=1)
            return base

        dual_tree_traversal(t, t, None, make_base(acc_serial))
        kernels = GeneratedKernels(
            source="", namespace={}, base_case=make_base(acc_par))
        plan = ExecutionPlan(engine="stack", executor="thread", workers=4,
                             min_tasks=16, leaf_size=16, shards=1)
        (stats,) = fan_out(t, [Side(t, kernels, None)], plan)
        assert np.allclose(acc_serial, acc_par)
        assert stats.base_case_pairs == 300 * 300

    def test_portal_parallel_option(self, rng):
        from repro.problems import knn

        X = rng.normal(size=(400, 3))
        d1, i1 = knn(X, k=3)
        d2, i2 = knn(X, k=3, parallel=True, workers=3)
        assert np.allclose(d1, d2)
