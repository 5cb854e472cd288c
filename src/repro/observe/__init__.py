"""``repro.observe`` — pipeline observability (tracing, counters, timing).

The measurement substrate behind the paper's evaluation claims: *where*
does the time go, and *how effective* are the PASCAL prune/approximation
rules?  Two cooperating facilities, both off by default and costing a
single branch when disabled:

* :mod:`~repro.observe.tracer` — structured JSONL span events for every
  pipeline stage (parse, lowering, each IR pass, codegen, tree build,
  traversal, per-task parallel execution);
* :mod:`~repro.observe.counters` — a registry of named counters fed by
  the traversals (node visits, prune hits, approximation hits, leaf
  base-case pair counts), the rule generator and the compiler driver.

Front doors: ``PortalExpr.stats()`` for one program's numbers, the
``python -m repro stats`` CLI subcommand for ``.portal`` programs, and
``benchmarks/harness.py`` for the Table IV/V prune-rate / pass-time columns.
See ``docs/observability.md``.
"""

from .counters import Counters, active_counters, collect, contribute
from .tracer import (
    Tracer, disable_tracing, enable_tracing, event, get_tracer, span,
    tracing,
)

__all__ = [
    "Counters", "active_counters", "collect", "contribute",
    "Tracer", "disable_tracing", "enable_tracing", "event", "get_tracer",
    "span", "tracing",
]
