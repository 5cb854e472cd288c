"""``repro.policy`` — the measured execution policy.

The ``auto`` choices of the plan — executor and leaf size — are static
rules by default (:func:`repro.backend.plan.resolve_plan`).  This
package layers a *measured* policy on top:

* :mod:`~repro.policy.features` maps an execution to a
  :class:`~repro.policy.features.PolicyKey` (program fingerprint class ×
  tree kind × bucketed sizes);
* :mod:`~repro.policy.search` times a pruned candidate enumeration of
  the joint configuration space on subsampled inputs (coordinate
  descent under a wall-clock budget);
* :mod:`~repro.policy.store` persists tuned decisions in a JSON policy
  cache versioned by ``ARTIFACT_SCHEMA`` + a host fingerprint, so a
  tuned choice survives process restarts;
* this module arbitrates: ``CompileOptions.policy`` selects
  ``"static"`` (hard-coded rules, the default), ``"auto"`` (use a
  cached decision when one exists, fall back to the static rules on a
  miss) or ``"search"`` (measure on a miss, then use and persist the
  result).  At execute time the policy is a read-only lookup: no run
  writes the store, and ``auto`` never searches.  A search runs only
  under ``"search"``, :func:`ensure_policy` (``repro tune``) or a
  served registration in search mode.

A decision is one input of the execution plan
(:func:`repro.backend.plan.resolve_plan`, which holds the precedence:
explicit option > environment > policy decision > static rule), and a
search candidate is a plan.  The policy only ever selects configurations
the differential suites hold to the output contract (DESIGN.md §8), so
routing through it changes no answer beyond that contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..backend.plan import CompileOptions, resolve_plan
from ..dsl.portal_expr import resolve_kernels
from ..observe import contribute
from .features import PolicyKey, policy_key, program_class, size_bucket
from .search import (
    SEARCH_BUDGET_S, SEARCH_REPEATS, SEARCH_SUBSAMPLE_Q, enumerate_axes,
    run_search, search_policy, subsampled_layers,
)
from .store import (
    POLICY_SCHEMA, PolicyEntry, PolicyStore, default_policy_path,
    host_fingerprint, policy_store, reset_policy_store,
)

__all__ = [
    "PolicyDecision", "PolicyEntry", "PolicyKey", "PolicyStore",
    "default_policy_path", "ensure_policy", "host_fingerprint",
    "policy_key", "policy_store",
    "resolve_execution_policy", "reset_policy_store", "run_search",
    "warm_policy",
]

@dataclass
class PolicyDecision:
    """A resolved policy: where it came from and what it chose."""

    source: str          # 'policy-cache' | 'fresh-search'
    key: PolicyKey
    config: dict

    def describe(self, applied: dict) -> dict:
        """The ``stats()["policy"]`` block; ``applied`` are the config
        entries that routed the plan (the rest were asked explicitly)."""
        return {"source": self.source, "key": self.key.as_str(),
                "config": dict(self.config), "applied": applied}


def _search_and_store(layers, opts: CompileOptions, key: PolicyKey, *,
                      nq: int | None = None,
                      repeats: int = SEARCH_REPEATS,
                      budget_s: float | None = SEARCH_BUDGET_S) -> PolicyEntry:
    # The search starts from what the static rules alone resolve: no
    # searched knob asked, no environment, no policy.
    unasked = dict.fromkeys(
        ("traversal", "parallel", "executor", "policy"))
    start = resolve_plan(replace(opts, **unasked), {}, None, layers)
    max_q = SEARCH_SUBSAMPLE_Q if nq is None else min(int(nq),
                                                      SEARCH_SUBSAMPLE_Q)
    entry = run_search(layers, opts, start, repeats=repeats,
                       budget_s=budget_s, max_q=max_q)
    policy_store().put(key, entry)
    return entry


def resolve_execution_policy(layers, opts: CompileOptions,
                             mode: str) -> PolicyDecision | None:
    """Resolve the policy for one ``execute()`` (``mode`` is ``auto`` or
    ``search``).

    Returns ``None`` when the static rules should route (``auto`` with
    no usable entry) — the caller falls through to the hard-coded
    defaults, counted under ``policy.miss``.
    """
    key = policy_key(layers, opts)
    store = policy_store()
    entry = store.get(key)
    if entry is not None:
        contribute({"policy.hit": 1})
        return PolicyDecision("policy-cache", key, dict(entry.config))
    if mode == "search":
        entry = _search_and_store(layers, opts, key)
        return PolicyDecision("fresh-search", key, dict(entry.config))
    contribute({"policy.miss": 1})
    return None


def ensure_policy(layers, options: dict | None = None, *,
                  nq: int | None = None, force: bool = False,
                  repeats: int = SEARCH_REPEATS,
                  budget_s: float | None = SEARCH_BUDGET_S):
    """Make sure a usable policy entry exists for this program shape;
    search (and persist) when missing or ``force`` is set.

    Returns ``(key, entry, source)`` where source is ``"policy-cache"``
    or ``"fresh-search"``.  The front door for ``python -m repro tune``
    and the serving layer's register-time warmup.
    """
    layers = resolve_kernels(layers)
    opts = CompileOptions.from_dict(options or {})
    key = policy_key(layers, opts, nq=nq)
    if not force:
        entry = policy_store().get(key)
        if entry is not None:
            contribute({"policy.hit": 1})
            return key, entry, "policy-cache"
    entry = _search_and_store(layers, opts, key, nq=nq,
                              repeats=repeats, budget_s=budget_s)
    return key, entry, "fresh-search"


def warm_policy(make_layers, options: dict | None = None, *,
                nq: int | None = None):
    """Register-time policy consult for the serving layer;
    ``make_layers()`` builds a representative batch's layers and is only
    called when a policy is in play.

    Mode ``auto`` looks the entry up (so the first real batch starts
    from a warm store, counted ``policy.hit``/``policy.miss``); mode
    ``search`` runs the budgeted search for the serving batch shape so
    real traffic never pays it.  Mode ``static`` is a no-op.
    """
    opts = CompileOptions.from_dict(options or {})
    mode = opts.policy or "static"
    if mode == "static":
        return None
    contribute({"policy.warm_consult": 1})
    if mode == "search":
        return ensure_policy(make_layers(), options, nq=nq)
    layers = resolve_kernels(make_layers())
    key = policy_key(layers, opts, nq=nq)
    entry = policy_store().get(key)
    if entry is not None:
        contribute({"policy.hit": 1})
        return key, entry, "policy-cache"
    contribute({"policy.miss": 1})
    return None
