"""Execution options and the execution plan (paper Fig. 1, §IV-F).

Two values describe one ``execute()``:

* :class:`CompileOptions` — **what was asked**: the validated option
  dict, never mutated.  Each field is one row of the option table (its
  allowed values, its ``REPRO_*`` environment fallback, whether a policy
  entry may fill it), declared once as dataclass field metadata.
* :class:`ExecutionPlan` — **what runs**: how the program is mapped to
  the machine (traversal engine, executor, worker pool, leaf size,
  shard count), each field attributed to the source that decided it.
  :func:`resolve_plan` computes it once per compile, before the cache
  key, with the precedence

      explicit option  >  environment  >  policy entry  >  static rule

  and the same value is then the compile-cache key component, the policy
  search's candidate, the process-worker payload header and the
  ``stats()["plan"]`` block.  ``docs/compiler.md`` ("Execution plan")
  holds the field-by-field table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

from ..dsl.errors import SpecificationError
from ..dsl.ops import PortalOp
from ..parallel.executor import default_workers
from ..rules import build_rules
from .layout import Layout

__all__ = [
    "CompileOptions", "ExecutionPlan", "OPTION_TABLE", "requested",
    "program_rules", "requested_tau", "resolve_plan",
    "AUTO_SHARD_MIN_POINTS", "TASKS_PER_WORKER", "DEFAULT_LEAF_SIZE",
]

# -- the static row ----------------------------------------------------------
# What every plan field resolves to when nothing asked for anything else.
# The executor-by-engine rule lives in :func:`_static_executor`.

#: ``shards='auto'`` targets at least this many reference points per
#: shard: below it, per-shard tree builds and the combine step cost more
#: than the parallelism returns.
AUTO_SHARD_MIN_POINTS = 200_000

#: Query-subtree tasks per pool worker: enough slack for load balancing
#: without swamping scheduling overhead.
TASKS_PER_WORKER = 4

DEFAULT_LEAF_SIZE = 64


def _static_executor(engine: str) -> str:
    """``executor='auto'``: processes for the scalar stack engine (one
    GIL-bound Python bytecode stream per task), threads for the batched
    engine (its NumPy kernels release the GIL; no pickling, no merge
    copies).  A rule, not a measurement: the spine's
    ``parallel.thread_w2_speedup`` / ``parallel.process_w2_speedup``
    rows (docs/performance.md, "Measured") are the open evidence on it
    for ROADMAP item 5."""
    return "process" if engine == "stack" else "thread"


# -- option validators --------------------------------------------------------

def _positive_int(name: str, value):
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 1):
        return int(value)
    raise SpecificationError(
        f"{name} must be a positive integer, got {value!r}")


def _shard_request(name: str, value):
    if value == "auto":
        return value
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            raise SpecificationError(
                f"shards must be an integer or 'auto', got {value!r}"
            ) from None
    return _positive_int(name, value)


def _nonnegative_real(name: str, value):
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value >= 0):
        return value
    raise SpecificationError(
        f"{name} must be a finite non-negative number, got {value!r}")


def _flag(name: str, value) -> bool:
    """A strict boolean — a bool, 0/1, or the words the CLI, the wire
    and the environment spell one with; a truthy ``"false"`` must never
    switch a feature on."""
    if isinstance(value, str):
        word = value.strip().lower()
        if word in ("1", "true", "on", "yes"):
            return True
        if word in ("0", "false", "off", "no"):
            return False
    elif isinstance(value, numbers.Integral) and value in (0, 1):
        return bool(value)
    raise SpecificationError(
        f"{name} must be a boolean (true/false, on/off, yes/no, 1/0), "
        f"got {value!r}")


def _row(default=None, *, allowed=None, env=None, policy=False, static=None):
    """One option-table row.  ``allowed`` is a tuple of values or a
    ``(name, value) -> value`` validator (``None``: taken as given);
    ``env`` names the environment variable consulted when the option is
    not passed; ``policy`` marks knobs a policy entry may fill;
    ``static`` is the request the static rules start from.  A ``None``
    default means "not asked" — the plan resolves it."""
    return field(default=default, metadata={
        "allowed": allowed, "env": env, "policy": policy, "static": static})


@dataclass(frozen=True)
class CompileOptions:
    """The knobs surfaced on ``PortalExpr.execute`` — what was asked."""

    backend: str = _row("vectorized",
                        allowed=("vectorized", "brute", "interp"))
    tree: str = _row("kd", allowed=("kd", "ball", "octree", "none"))
    leaf_size: int | None = _row(allowed=_positive_int, policy=True,
                                 static=DEFAULT_LEAF_SIZE)
    #: approximation threshold (band criterion)
    tau: float | None = _row(allowed=_nonnegative_real)
    criterion: str = _row("band", allowed=("band", "mac"))
    #: multipole acceptance parameter
    theta: float = _row(0.5, allowed=_nonnegative_real)
    parallel: bool | None = _row(allowed=_flag, static=False)
    workers: int | None = _row(allowed=_positive_int)
    #: pin the parallel task decomposition independently of ``workers``
    #: (same tasks → bit-identical outputs across worker counts)
    min_tasks: int | None = _row(allowed=_positive_int)
    #: default: True when query is reference
    exclude_self: bool | None = _row(allowed=_flag)
    #: override the dimensionality-based layout choice ('row' | 'column');
    #: exposed for the layout ablation study
    layout: str | None = _row(allowed=(Layout.ROW, Layout.COLUMN))
    #: kd-tree splitting strategy ('median' — the paper's — or 'midpoint')
    split: str = _row("median", allowed=("median", "midpoint"))
    #: traversal engine: 'batched' classifies whole arrays of node pairs
    #: per kernel call in epochs (:mod:`repro.traversal.bounded_batched`:
    #: bound rules — k-NN, Hausdorff — best-first against a bound
    #: snapshot, stateless rules one level per epoch) and is the default
    #: for every problem; 'stack' forces the scalar nearest-first
    #: reference engine.
    traversal: str | None = _row(
        allowed=("batched", "stack"), policy=True, static="batched")
    #: reuse compiled code and built trees across ``execute()``
    #: calls (content-addressed; see :mod:`repro.backend.cache`)
    cache: bool = _row(True, allowed=_flag)
    #: parallel pool backend: 'thread' | 'process' | 'auto' (by engine,
    #: see :func:`_static_executor`).  Only consulted when
    #: ``parallel=True``.
    executor: str | None = _row(allowed=("auto", "thread", "process"),
                                env="REPRO_EXECUTOR", policy=True,
                                static="auto")
    #: sharded reference layout (:mod:`repro.parallel.shard`): partition
    #: the reference set into this many spatial shards, build one tree
    #: per shard, replicate the query tree, and combine per-shard
    #: partial results through the operator's reduction algebra.
    #: ``'auto'`` shards large reference sets one-per-worker; tree mode
    #: only.
    shards: int | str | None = _row(allowed=_shard_request, policy=True,
                                    static=1)
    #: self-tuning execution policy (:mod:`repro.policy`): 'static'
    #: keeps the hard-coded rules, 'auto' consults the persistent policy
    #: cache and falls back to the static rules on a miss, 'search' runs
    #: the budgeted measured search on a miss and persists the winner.
    #: The policy only fills knobs neither an option nor the environment
    #: asked for.
    policy: str | None = _row(allowed=("static", "auto", "search"),
                              static="static")

    @classmethod
    def from_dict(cls, options: dict) -> "CompileOptions":
        unknown = set(options) - set(OPTION_TABLE)
        if unknown:
            raise SpecificationError(
                f"unknown execute() options: {sorted(unknown)}")
        return cls(**{name: _validated(name, value)
                      for name, value in options.items()})


#: option name → its table row (``.default`` plus the ``.metadata`` keys
#: documented on :func:`_row`)
OPTION_TABLE = {f.name: f for f in fields(CompileOptions)}


def _validated(name: str, value):
    """Check one option value (from the option dict or the environment)
    against its table row; ``None`` always means "not asked"."""
    allowed = OPTION_TABLE[name].metadata["allowed"]
    if value is None or allowed is None:
        return value
    if callable(allowed):
        return allowed(name, value)
    if value not in allowed:
        raise SpecificationError(
            f"unknown {name} {value!r}; expected one of {allowed}")
    return value


def requested(opts: CompileOptions, env, name: str) -> tuple[object, str]:
    """What was asked for option ``name`` and by whom: the explicit
    option, else the row's environment variable, else the static rule's
    starting request.  The only place a routing ``REPRO_*`` is read."""
    value = getattr(opts, name)
    if value is not None:
        return value, "explicit"
    row = OPTION_TABLE[name].metadata
    raw = env.get(row["env"], "").strip() if row["env"] else ""
    if raw:
        return _validated(name, raw), "env"
    return row["static"], "static"


def requested_tau(layers, opts: CompileOptions) -> float:
    """The approximation threshold: the option, else the inner layer's
    own parameter."""
    if opts.tau is not None:
        return opts.tau
    return float(layers[-1].params.get("tau", 0.0) or 0.0)


def program_rules(layers, opts: CompileOptions):
    """``build_rules`` under these options."""
    return build_rules(layers, layers[-1].metric_kernel,
                       tau=requested_tau(layers, opts),
                       criterion=opts.criterion, theta=opts.theta)


#: plan field → the policy store's on-disk ``config`` key, which is the
#: name of the (policy-fillable) option that asks for it
_CONFIG_KEYS = {"engine" if name == "traversal" else name: name
                for name, row in OPTION_TABLE.items()
                if row.metadata["policy"]}


@dataclass(frozen=True)
class ExecutionPlan:
    """How one program is mapped to the machine.  Frozen and hashable;
    equality covers the routing fields only.  A field is ``None`` when
    the layer it configures does not exist for the program (no tree
    traversal in brute/interp mode)."""

    engine: str | None        # 'batched' | 'stack'
    executor: str             # 'serial' | 'thread' | 'process'
    workers: int
    min_tasks: int
    leaf_size: int | None
    shards: int | None
    #: ``(field, source)`` pairs, source ∈ explicit | env | policy | static
    sources: tuple = field(default=(), compare=False, repr=False)
    #: the policy decision consulted, if any (``repro.policy.PolicyDecision``)
    decision: object | None = field(default=None, compare=False, repr=False)

    def label(self) -> str:
        return (f"{self.engine}/{self.executor}"
                f"/leaf{self.leaf_size}/shards{self.shards}")

    def describe(self) -> dict:
        """The ``stats()["plan"]`` block: field → value and source."""
        return {name: {"value": getattr(self, name), "source": source}
                for name, source in self.sources}

    def to_options(self) -> dict:
        """The ``execute()`` options that pin this plan: resolving them
        again yields the same plan with every source ``explicit``."""
        parallel = self.executor != "serial"
        pinned = {
            "traversal": self.engine, "parallel": parallel,
            "executor": self.executor if parallel else None,
            "workers": self.workers, "min_tasks": self.min_tasks,
            "leaf_size": self.leaf_size, "shards": self.shards,
        }
        return {k: v for k, v in pinned.items() if v is not None}

    def to_config(self) -> dict:
        """The JSON-storable policy decision."""
        return {key: getattr(self, name)
                for name, key in _CONFIG_KEYS.items()}

    @staticmethod
    def from_config(config: dict) -> dict:
        """Plan-field requests of a stored policy ``config`` (absent or
        empty entries request nothing)."""
        casts = {"leaf_size": int, "shards": int}
        return {name: casts.get(name, str)(config[key])
                for name, key in _CONFIG_KEYS.items() if config.get(key)}

    def policy_applied(self) -> dict:
        """Stored ``config`` entries that actually routed this plan."""
        asked = self.from_config(self.decision.config)
        return {_CONFIG_KEYS[name]: asked[name]
                for name, source in self.sources if source == "policy"}


#: a field whose layer does not exist for the program (see ExecutionPlan)
_NOT_APPLICABLE = (None, "static")


def _concrete_shards(asked, nr: int, workers: int) -> int:
    """``'auto'`` picks one shard per worker but never shards small
    reference sets where the per-shard overhead dominates; explicit
    counts are clamped to the reference-set size."""
    if asked == "auto":
        asked = min(workers, nr // AUTO_SHARD_MIN_POINTS)
    return max(1, min(asked, nr))


def resolve_plan(opts: CompileOptions, env, policy, layers) -> ExecutionPlan:
    """Resolve the execution plan of ``layers`` under ``opts``.

    ``env`` is the environment mapping; ``policy`` is the
    :mod:`repro.policy` module (or ``None`` to never consult one) —
    passed in so this module stays below it.
    """
    inner = layers[-1]
    nr = inner.storage.n
    classification, _ = program_rules(layers, opts)
    compiled = len(layers) == 2 and inner.metric_kernel is not None
    tree_mode = (
        compiled and opts.backend not in ("brute", "interp")
        and opts.tree != "none" and classification.algorithm != "brute"
        and inner.op is not PortalOp.FORALL
    )

    pool = requested(opts, env, "executor")
    ask = {
        "engine": requested(opts, env, "traversal"),
        "executor": (pool if opts.parallel
                     else ("serial", requested(opts, env, "parallel")[1])),
        "workers": requested(opts, env, "workers"),
        "min_tasks": requested(opts, env, "min_tasks"),
        "leaf_size": requested(opts, env, "leaf_size"),
        "shards": requested(opts, env, "shards"),
    }

    decision = None
    mode = requested(opts, env, "policy")[0]
    if (policy is not None and mode != "static" and compiled
            and opts.backend == "vectorized"):
        decision = policy.resolve_execution_policy(layers, opts, mode)
    if decision is not None:
        # A decision fills only what nobody asked for; its executor is
        # one choice over parallel/executor/workers together.
        pool_free = (opts.parallel is None and opts.workers is None
                     and pool[1] == "static")
        for name, value in ExecutionPlan.from_config(decision.config).items():
            if ask[name][1] == "static" and (name != "executor" or pool_free):
                ask[name] = (value, "policy")

    if not tree_mode:
        ask.update(engine=_NOT_APPLICABLE, leaf_size=_NOT_APPLICABLE,
                   shards=_NOT_APPLICABLE, executor=("serial", "static"))
    plan = {name: value for name, (value, _) in ask.items()}
    plan["workers"] = workers = plan["workers"] or default_workers()
    plan["min_tasks"] = plan["min_tasks"] or workers * TASKS_PER_WORKER
    if tree_mode:
        # Every rule kind runs the batched epoch engine, which reads the
        # kind off the kernels; 'stack' forces the scalar reference
        # engine.  A stored policy naming an older engine folds here too.
        if plan["engine"] != "stack":
            plan["engine"] = "batched"
        if plan["executor"] == "auto":
            plan["executor"] = _static_executor(plan["engine"])
        if plan["executor"] == "process" and workers == 1:
            plan["executor"] = "thread"  # one worker runs tasks in-process
        # Sharded code and shard trees must never collide with unsharded
        # ones, so 'auto' becomes a count here, before the cache keys.
        plan["shards"] = _concrete_shards(plan["shards"], nr, workers)
    return ExecutionPlan(
        **plan, decision=decision,
        sources=tuple((name, source) for name, (_, source) in ask.items()),
    )
