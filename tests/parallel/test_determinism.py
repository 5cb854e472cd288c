"""Parallel determinism: the output contract's determinism clause.

The scheduler partitions work by query subtree, every task owns a
disjoint query range, and the task decomposition is the host's
(``default_tasks()``), independent of the worker count and set by no
option — so running the same problem with 1 worker or N workers, on
threads or on processes, must produce
*bit-identical* outputs (not merely allclose: identical task-local
summation order) and identical aggregate traversal counters.

Serial and parallel runs are different plans: a task starts its
traversal at a query-subtree root, so it approximates other node pairs
than the serial traversal from the root does.  Both are held to the
contract's sum rule against the exact answer (``tests/contract.py``).
"""

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.observe import collect
from repro.problems import kde, two_point_correlation

from tests.contract import assert_bitwise, assert_sum_close

pytestmark = pytest.mark.slow

WORKER_COUNTS = [2, 4]
#: small leaves, so the KDE tasks approximate node pairs
KDE = dict(bandwidth=0.7, leaf_size=8)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(4242)
    X = rng.uniform(0, 8, size=(700, 3))
    return np.ascontiguousarray(X[:300]), np.ascontiguousarray(X[300:])


def _counts_only(counters):
    """Integer event counts; per-run timings are legitimately noisy and
    ``shm.publish.*`` is executor plumbing (a workers=1 run never
    publishes shared memory, so it varies with worker count by design —
    the determinism claim is about the traversal)."""
    return {k: v for k, v in counters.as_dict().items()
            if not k.endswith("_s") and not k.endswith("_ms")
            and not k.startswith("shm.")}


class TestKDEDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_across_workers(self, data, workers):
        Q, R = data
        base = kde(Q, R, **KDE, parallel=True, workers=1)
        par = kde(Q, R, **KDE, parallel=True, workers=workers)
        assert np.array_equal(base, par)  # bitwise, not allclose

    def test_aggregate_counters_identical(self, data):
        Q, R = data
        runs = []
        for workers in (1, 4):
            clear_caches()  # both runs must be full compiles to compare
            with collect() as counters:
                kde(Q, R, **KDE, parallel=True, workers=workers)
            runs.append(_counts_only(counters))
        assert runs[0] == runs[1]
        assert runs[0]["traversal.visited"] > 0


class TestTwoPointDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_exact_count_across_workers(self, data, workers):
        Q, _ = data
        base = two_point_correlation(Q, 1.0, parallel=True, workers=1)
        par = two_point_correlation(Q, 1.0, parallel=True, workers=workers)
        assert base == par

    def test_aggregate_counters_identical(self, data):
        Q, _ = data
        runs = []
        for workers in (1, 4):
            clear_caches()  # both runs must be full compiles to compare
            with collect() as counters:
                two_point_correlation(Q, 1.0, parallel=True, workers=workers)
            runs.append(_counts_only(counters))
        assert runs[0] == runs[1]


class TestThreadProcessAgreement:
    def test_kde_process_bitwise_thread(self, data):
        Q, R = data
        runs = []
        for executor in ("thread", "process"):
            with collect() as counters:
                runs.append(kde(Q, R, **KDE, parallel=True, workers=2,
                                executor=executor))
            assert counters.as_dict()["traversal.approximated"] > 0
        assert_bitwise(runs[1], runs[0])


class TestSerialParallelAgreement:
    def test_kde_parallel_matches_serial(self, data):
        """Serial and parallel approximate different node pairs, so
        each is held to the τ rule against the exact sum (the bitwise
        guarantee is across worker counts and executors)."""
        Q, R = data
        tau = 1e-3
        exact = kde(Q, R, bandwidth=0.7, backend="brute")
        serial = kde(Q, R, **KDE, tau=tau)
        with collect() as counters:
            par = kde(Q, R, **KDE, tau=tau, parallel=True, workers=4)
        assert counters.as_dict()["traversal.approximated"] > 0
        assert_sum_close(serial, exact, n=len(R), tau=tau)
        assert_sum_close(par, exact, n=len(R), tau=tau)

    def test_two_point_parallel_matches_serial(self, data):
        Q, _ = data
        assert two_point_correlation(Q, 1.0) == two_point_correlation(
            Q, 1.0, parallel=True, workers=4)
