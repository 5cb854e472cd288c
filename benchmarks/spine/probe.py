"""Host-speed probe and the statistics every timing goes through.

Each vCPU of this host switches, independently of the other and within
seconds, between speed states about 1.0 / 1.4 / 3 apart (a busy sibling
hyperthread; CPU time moves with wall time, so it is not steal).  Raw
medians of the same code therefore differ by 15–40 % between runs.  A
1.5 ms fixed NumPy + interpreter probe slows by the same factor as the
workloads do (measured: op / probe is constant to 1–2 % across the three
states), so every timed interval is *bracketed* by a probe on each side:

* the interval is scaled to nominal host speed,
  ``raw × NOMINAL_MS / mean(before, after)``;
* a bracket whose two probes disagree by more than ``BRACKET_TOL`` saw
  a whole state switch inside it and is discarded.  (Replaying recorded
  runs, a tighter tolerance only throws samples away: the spread of the
  medians is the same at 5 %, 10 % and 25 %.)

Everything is pinned to one core (:func:`pin_to_calmest_core`) so the
probe and the work see the same state.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

#: probe time on an uncontended core of the reference host; timings are
#: reported as if the probe always took this long
NOMINAL_MS = 1.5
#: relative disagreement of the two probes above which a bracket is dropped
BRACKET_TOL = 0.25


class Host:
    """The probe: four 160² matmuls, one 60k-element sort and a 12k-step
    interpreter loop — the three instruction mixes the workloads spend
    their time in.  Each part is the fastest of three repetitions."""

    def __init__(self):
        rng = np.random.default_rng(20190520)
        a = rng.standard_normal((160, 160))
        b = rng.standard_normal(60_000)
        self.history: list[float] = []

        def matmul():
            for _ in range(4):
                (a @ a).sum()

        def sort():
            np.sort(b)

        def loop():
            x = 0
            for i in range(12_000):
                x += i * i

        self._parts = (matmul, sort, loop)

    def probe(self) -> float:
        """Probe time in ms."""
        total = 0.0
        for part in self._parts:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - t0)
            total += best
        ms = total * 1e3
        self.history.append(ms)
        return ms

    def bracket(self) -> "Bracket":
        return Bracket(self)

    def timed(self, fn, reps: int = 3, prepare=lambda: None) -> float:
        """Median nominal-speed seconds of ``fn(prepare())`` over ``reps``
        brackets (the consistent ones when there are any); only ``fn`` is
        timed."""
        br = self.bracket()
        samples = []
        for _ in range(reps):
            arg = prepare()
            t0 = time.perf_counter()
            fn(arg)
            raw = time.perf_counter() - t0
            scale, ok = br.close()
            samples.append((ok, raw * scale))
        good = [s for ok, s in samples if ok] or [s for _, s in samples]
        return statistics.median(good)


class Bracket:
    """Consecutive probe-bracketed intervals: the probe that closes one
    interval opens the next."""

    def __init__(self, host: Host):
        self._host = host
        self.last = host.probe()

    def close(self) -> tuple[float, bool]:
        """End the interval: ``(scale to nominal speed, consistent?)``."""
        before, self.last = self.last, self._host.probe()
        return nominal_scale(before, self.last)


def nominal_scale(before: float, after: float) -> tuple[float, bool]:
    """For an interval between two probes (ms): the factor that scales it
    to nominal host speed, and whether the probes agree."""
    ok = abs(after - before) <= BRACKET_TOL * min(after, before)
    return NOMINAL_MS / (0.5 * (before + after)), ok


def pin_to_calmest_core() -> int:
    """Pin this process (and so its children) to the core whose probe is
    currently fastest; returns the core."""
    cores = sorted(os.sched_getaffinity(0))
    host = Host()
    best, best_ms = cores[0], float("inf")
    for core in cores:
        os.sched_setaffinity(0, {core})
        ms = statistics.median(host.probe() for _ in range(5))
        if ms < best_ms:
            best, best_ms = core, ms
    os.sched_setaffinity(0, {best})
    return best


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fingerprint() -> dict:
    """What a result must carry to be compared with another."""
    import scipy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
    }
