"""The Counters registry: named counters fed by the runtime.

The traversals (:mod:`repro.traversal`), the brute-force and interpreter
backends, the rule generator and the compiler driver all *contribute* to
the registry installed by :func:`collect`::

    from repro.observe import collect

    with collect() as counters:
        knn(Q, R, k=5)
    counters.get("traversal.pruned")        # prune hits
    counters.rate("traversal.pruned", "traversal.visited")

Contributions happen at coarse boundaries (one ``update`` per traversal
or per compile, never per node), so the enabled path is cheap and the
disabled path — no registry installed — is a single load-and-branch in
:func:`contribute` / :func:`active_counters`.

Standard keys
-------------
``traversal.visited / pruned / approximated / recursions / base_cases /
base_case_pairs`` — merged :class:`~repro.traversal.TraversalStats`;
``bounded.epochs / deferred_prunes / bound_refreshes / pending_peak /
row_regime`` — the batched epoch engine's loop counters, for every rule
kind (``pending_peak`` is the widest pool, a stateless traversal's
widest level, summed over tasks under parallel execution;
``deferred_prunes`` counts pairs pruned on a later epoch than the one
they were generated in — the cost of snapshot staleness; ``row_regime``
is 1 per traversal that ran (query row × reference node) pairs); ``rules.classified.<category>``,
``rules.generated.<kind>`` — PASCAL rule machinery; ``compile.count``,
``passes.<name>_s`` and ``compile.<stage>_s`` — pipeline invocations and
wall-clock seconds.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["Counters", "collect", "active_counters", "contribute"]


class Counters:
    """A thread-safe registry of named numeric counters."""

    __slots__ = ("_values", "_lock")

    def __init__(self):
        self._values: dict[str, float] = {}
        self._lock = threading.Lock()

    def inc(self, name: str, n: float = 1) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + n

    def update(self, mapping: dict[str, float]) -> None:
        with self._lock:
            for name, n in mapping.items():
                self._values[name] = self._values.get(name, 0) + n

    def merge(self, other: "Counters") -> None:
        self.update(other.as_dict())

    def get(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._values.get(name, default)

    def rate(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` as a fraction (0.0 when empty)."""
        with self._lock:
            den = self._values.get(denominator, 0)
            if not den:
                return 0.0
            return self._values.get(numerator, 0) / den

    def as_dict(self) -> dict[str, float]:
        with self._lock:
            return dict(self._values)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def __repr__(self) -> str:
        return f"Counters({self.as_dict()!r})"


#: The installed registry, or None (the common, zero-overhead case).
_active: Counters | None = None
#: Stack of installed registries behind ``_active``.  ``collect`` blocks
#: may be entered from different threads (the serving layer executes
#: programs on a worker pool) and therefore exit in any order; the stack
#: removes *this block's* registry by identity instead of blindly
#: restoring "the previous" one, so an out-of-order exit can never
#: resurrect an already-exited registry as the active one.
_stack: list[Counters] = []
_stack_lock = threading.Lock()


def active_counters() -> Counters | None:
    return _active


def contribute(mapping: dict[str, float]) -> None:
    """Add ``mapping`` into the active registry; no-op when none is set."""
    c = _active
    if c is not None:
        c.update(mapping)


@contextmanager
def collect(counters: Counters | None = None):
    """Install a registry for the duration of the block and yield it.

    Nested ``collect`` blocks shadow the outer registry; on exit the
    most recently installed still-open registry becomes active again.

    The registry is process-global, not per-thread: contributions from
    worker threads land in whichever block is active, which is what the
    parallel executors rely on.  Concurrent ``collect`` blocks from
    different threads therefore share attribution while they overlap
    (counts merge into the innermost open block), but exiting in any
    order is safe: each block removes exactly its own registry, so a
    finished block's registry can never remain installed.
    """
    global _active
    registry = counters if counters is not None else Counters()
    with _stack_lock:
        _stack.append(registry)
        _active = registry
    try:
        yield registry
    finally:
        with _stack_lock:
            for i in range(len(_stack) - 1, -1, -1):
                if _stack[i] is registry:
                    del _stack[i]
                    break
            _active = _stack[-1] if _stack else None
