"""Measured-candidate tuning: the timing core behind the policy search.

The paper: "we also empirically tune the algorithmic parameter, leaf
size and level of tree parallelization to achieve scalability" (V-B).
:func:`measure_candidates` is the general form of that empirical tuning
— best-of-``repeats`` wall-clock over an arbitrary candidate grid, with
an injectable monotonic clock (deterministic tests) and an optional
wall-clock budget (the policy search bounds its total measurement time).
:func:`tune_leaf_size` keeps the original leaf-size-specific interface
on top of it; :mod:`repro.policy.search` drives the same core over the
joint {executor × leaf size} space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = ["TuneResult", "measure_candidates", "tune_leaf_size"]

DEFAULT_CANDIDATES = (16, 32, 64, 128, 256)


@dataclass
class TuneResult:
    best: int
    timings: dict[int, float] = field(default_factory=dict)

    def __repr__(self) -> str:
        rows = ", ".join(f"{k}: {v:.4f}s" for k, v in sorted(self.timings.items()))
        return f"TuneResult(best={self.best}, {{{rows}}})"


def measure_candidates(
    run: Callable[[object], object],
    candidates: Sequence,
    repeats: int = 2,
    clock: Callable[[], float] | None = None,
    budget_s: float | None = None,
) -> dict:
    """Best-of-``repeats`` wall-clock seconds of ``run(candidate)`` per
    candidate.

    ``clock`` is a monotonic zero-argument timestamp source (defaults to
    ``time.perf_counter``); injecting a fake makes measurement logic
    deterministic in tests.  ``budget_s`` bounds the *total* measuring
    time: once the accumulated wall-clock crosses it, remaining
    candidates are skipped (the first candidate is always measured, so
    the result is never empty).  Callers rank the returned timings —
    relative order is the product, not absolute seconds.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    now = clock if clock is not None else time.perf_counter
    timings: dict = {}
    start = now()
    for cand in candidates:
        if timings and budget_s is not None and now() - start >= budget_s:
            break
        best = float("inf")
        for _ in range(repeats):
            t0 = now()
            run(cand)
            best = min(best, now() - t0)
        timings[cand] = best
    return timings


def tune_leaf_size(
    run: Callable[..., object],
    candidates: Sequence[int] = DEFAULT_CANDIDATES,
    repeats: int = 2,
    subsample: int | None = None,
    clock: Callable[[], float] | None = None,
) -> TuneResult:
    """Time ``run(leaf_size)`` over the candidate grid; best-of-``repeats``.

    With ``subsample`` set, ``run`` is called as ``run(leaf_size,
    subsample)`` instead, so large inputs can be tuned on a smaller
    draw — the relative ranking of leaf sizes is what matters, not the
    absolute timings.  A single-candidate grid skips timing entirely
    (there is nothing to rank, so no measurement is spent).

    Example
    -------
    >>> from repro.problems import knn
    >>> result = tune_leaf_size(lambda leaf: knn(Q, R, k=5, leaf_size=leaf))
    >>> knn(Q, R, k=5, leaf_size=result.best)
    """
    if not candidates:
        raise ValueError("need at least one candidate leaf size")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if subsample is not None and subsample < 1:
        raise ValueError(f"invalid subsample size {subsample}")
    for leaf in candidates:
        if leaf < 1:
            raise ValueError(f"invalid leaf size {leaf}")
    if len(candidates) == 1:
        return TuneResult(best=int(candidates[0]))

    if subsample is None:
        call = lambda leaf: run(int(leaf))  # noqa: E731
    else:
        call = lambda leaf: run(int(leaf), int(subsample))  # noqa: E731
    # Resolved at call time so tests monkeypatching this module's `time`
    # (the fake-clock suite) keep steering the measurement.
    now = clock if clock is not None else time.perf_counter
    timings = measure_candidates(call, [int(c) for c in candidates],
                                 repeats=repeats, clock=now)
    best_leaf = min(timings, key=timings.get)
    return TuneResult(best=best_leaf, timings=timings)
