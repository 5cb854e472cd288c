"""The execution plan: one resolution, with a source per field.

``resolve_plan`` is the only place routing is decided, so its contract
is tested here once — the precedence matrix (explicit option >
environment > policy entry > static rule, asserting value *and* source
for every routing field), a property over random option dicts ×
environments × policy entries (resolution is deterministic, and pinning
a plan's own options is a fixed point with every source ``explicit``
but the task count, which no option sets),
typed errors for option values arriving from the wire, and the check
that ``docs/compiler.md``'s "Execution plan" table and the option table
list the same rows.  The resolver unit tests that stay beside their
subsystems (process executor, shards) import :func:`plan_for` from
here.
"""

import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.policy as policy_mod
from repro.backend.plan import (
    OPTION_TABLE, TASKS_PER_WORKER, CompileOptions, resolve_plan,
)
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.dsl.errors import SpecificationError
from repro.policy import PolicyDecision, PolicyEntry, policy_key, policy_store

ROOT = pathlib.Path(__file__).resolve().parents[2]

CONFIG = {"traversal": "stack", "executor": "thread", "leaf_size": 16,
          "shards": 2}


def expr_for(problem="kde", nq=48, nr=64):
    """A small validated program: ``kde`` is stateless and ``knn`` a
    bound rule (both run the batched engine).  One-dimensional zeros —
    the plan reads sizes, never coordinates."""
    expr = PortalExpr(problem)
    expr.addLayer(PortalOp.FORALL, Storage(np.zeros((nq, 1)), name="q"))
    if problem == "knn":
        expr.addLayer((PortalOp.KARGMIN, 3), Storage(np.zeros((nr, 1)),
                                                     name="r"),
                      PortalFunc.EUCLIDEAN)
    else:
        expr.addLayer(PortalOp.SUM, Storage(np.zeros((nr, 1)), name="r"),
                      PortalFunc.GAUSSIAN, bandwidth=1.0)
    expr.validate()
    return expr


def layers_for(problem="kde", nq=48, nr=64):
    return expr_for(problem, nq, nr).layers


def plan_for(options=None, env=None, *, policy=None, **shape):
    return resolve_plan(CompileOptions.from_dict(options or {}), env or {},
                        policy, layers_for(**shape))


def stub_policy(config):
    """A policy that always answers with ``config`` (``None``: a miss)."""
    def resolve(layers, opts, mode):
        if config is None:
            return None
        return PolicyDecision("policy-cache", policy_key(layers, opts),
                              dict(config))
    return SimpleNamespace(resolve_execution_policy=resolve)


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")


# -- precedence matrix ------------------------------------------------------
# (field, options, env, policy config, expected value, expected source);
# every row runs with policy mode 'auto' and the stub above, so a row
# without a config is a policy miss.

POOL = {"parallel": True, "workers": 2}
MATRIX = [
    # engine: no environment knob, and no policy knob — a stored
    # 'stack' routes nothing
    ("engine", {"traversal": "stack"}, {}, CONFIG, "stack", "explicit"),
    ("engine", {}, {}, CONFIG, "batched", "static"),
    ("engine", {}, {}, None, "batched", "static"),
    # executor: parallel/executor/workers are one choice
    ("executor", dict(POOL, executor="process"),
     {"REPRO_EXECUTOR": "thread"}, CONFIG, "process", "explicit"),
    ("executor", POOL, {"REPRO_EXECUTOR": "process"}, CONFIG,
     "process", "env"),
    ("executor", {}, {}, CONFIG, "thread", "policy"),
    ("executor", {}, {}, None, "serial", "static"),
    ("executor", {"parallel": False}, {}, CONFIG, "serial", "explicit"),
    # asked for a pool but not which: the by-engine rule picks, and the
    # engine here is an explicit 'stack'
    ("executor", dict(POOL, traversal="stack"), {}, CONFIG, "process",
     "static"),
    ("executor", {"workers": 2}, {}, CONFIG, "serial", "static"),
    ("executor", {}, {"REPRO_EXECUTOR": "process"}, CONFIG,
     "serial", "static"),
    # 'auto' and a degraded request are still asks: they outrank what is
    # below them, and the source says who asked
    ("executor", dict(POOL, executor="auto", traversal="stack"),
     {"REPRO_EXECUTOR": "thread"}, CONFIG, "process", "explicit"),
    # 'auto' is no shard count: the option table refuses it
    pytest.param("shards", {"shards": "auto"}, {}, CONFIG,
                 SpecificationError, "explicit",
                 id="shards-options12-env12-config12-1-explicit"),
    # shards and policy read no environment: a stray variable asks
    # nothing, and a stored 'shards' routes nothing
    ("shards", {}, {"REPRO_SHARDS": "4"}, CONFIG, 1, "static"),
    # an explicit ask, beside a stored 'stack' that routes nothing
    ("engine", {"traversal": "batched"}, {}, CONFIG, "batched",
     "explicit"),
    # leaf_size: no environment knob
    ("leaf_size", {"leaf_size": 32}, {}, CONFIG, 32, "explicit"),
    ("leaf_size", {}, {}, CONFIG, 16, "policy"),
    ("leaf_size", {}, {}, None, 64, "static"),
    # shards: explicit only
    ("shards", {"shards": 3}, {}, CONFIG, 3, "explicit"),
    ("shards", {}, {"REPRO_SHARDS": "4"}, None, 1, "static"),
    ("shards", {}, {}, CONFIG, 1, "static"),
    ("shards", {}, {}, None, 1, "static"),
    # workers: not policy-fillable
    ("workers", {"workers": 3}, {}, CONFIG, 3, "explicit"),
    ("workers", {}, {}, CONFIG, 2, "static"),
    # min_tasks: the host's cores decide, not the pool size asked for
    ("min_tasks", {"workers": 3}, {}, CONFIG, 2 * TASKS_PER_WORKER, "static"),
]


@pytest.mark.parametrize("field,options,env,config,value,source", MATRIX)
def test_precedence(field, options, env, config, value, source, two_workers):
    if value is SpecificationError:
        with pytest.raises(SpecificationError, match=field):
            plan_for(dict(options, policy="auto"), env,
                     policy=stub_policy(config))
        return
    plan = plan_for(dict(options, policy="auto"), env,
                    policy=stub_policy(config))
    assert getattr(plan, field) == value
    assert dict(plan.sources)[field] == source


class TestPolicyMode:
    def test_static_mode_never_consults(self):
        plan = plan_for({}, policy=stub_policy(CONFIG))
        assert plan.decision is None
        assert set(dict(plan.sources).values()) == {"static"}

    def test_environment_never_selects_the_mode(self):
        plan = plan_for({}, {"REPRO_POLICY": "auto"},
                        policy=stub_policy(CONFIG))
        assert plan.decision is None
        assert plan.engine == "batched"

    def test_only_the_vectorized_backend_consults(self):
        plan = plan_for({"policy": "auto", "backend": "brute"},
                        policy=stub_policy(CONFIG))
        assert plan.decision is None

    def test_applied_is_what_the_policy_decided(self):
        plan = plan_for({"policy": "auto", "traversal": "batched",
                         "leaf_size": 128}, policy=stub_policy(CONFIG))
        # a stored 'shards' is no policy knob: it routes nothing
        assert plan.policy_applied() == {"executor": "thread"}
        assert plan.shards == 1

    def test_real_store_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POLICY_PATH", str(tmp_path / "p.json"))
        policy_mod.reset_policy_store()
        layers = layers_for()
        key = policy_key(layers, CompileOptions.from_dict({}))
        policy_store().put(key, PolicyEntry(config=dict(CONFIG)))
        plan = resolve_plan(CompileOptions.from_dict({"policy": "auto"}), {},
                            policy_mod, layers)
        policy_mod.reset_policy_store()
        assert plan.decision.source == "policy-cache"
        assert (plan.engine, plan.leaf_size) == ("batched", 16)


class TestStaticRules:
    def test_engine_follows_the_rule_kind(self):
        """One engine name for both rule kinds: the batched engine reads
        the kind off the kernels, which carry ``bound_key_batch``
        exactly for a bound rule."""
        for problem, bound in (("kde", False), ("knn", True)):
            assert plan_for(problem=problem).engine == "batched"
            assert plan_for({"traversal": "stack"},
                            problem=problem).engine == "stack"
            kernels = expr_for(problem).compile().kernels
            assert (kernels.bound_key_batch is not None) is bound

    def test_executor_by_engine(self):
        assert plan_for(POOL).executor == "thread"
        assert plan_for(dict(POOL, traversal="stack")).executor == "process"

    def test_one_worker_process_pool_is_the_in_process_path(self):
        plan = plan_for({"parallel": True, "workers": 1,
                         "executor": "process"})
        assert plan.executor == "thread"

    def test_workers_default_and_task_target(self, two_workers):
        plan = plan_for()
        assert (plan.workers, plan.min_tasks) == (2, 2 * TASKS_PER_WORKER)

    def test_fields_without_a_layer_are_none(self):
        brute = plan_for({"backend": "brute", "parallel": True, "shards": 4})
        assert (brute.engine, brute.leaf_size, brute.shards) == (None,) * 3
        assert brute.executor == "serial"
        assert plan_for({"backend": "brute"}).engine is None

    def test_shard_count(self, two_workers):
        """Only an explicit count shards, clamped to the reference set;
        no static rule shards at any size, and ``'auto'`` is refused."""
        assert plan_for({"shards": 64}, nr=10).shards == 10  # clamped to nr
        assert plan_for({"workers": 8}, nr=1 << 20, nq=1).shards == 1
        with pytest.raises(SpecificationError, match="shards"):
            plan_for({"shards": "auto", "workers": 8}, nr=1 << 20, nq=1)

    def test_codegen_auto_threshold(self):
        """No pair-count threshold picks an emitter any more: plans either
        side of 2^21 pairs route the same, neither names a codegen, and
        ``codegen='auto'`` is an unknown option."""
        side = 1 << 10
        small = plan_for(nq=side - 1, nr=side - 1)
        large = plan_for(nq=side + 1, nr=side + 1)
        assert small == large
        assert "codegen" not in small.describe()
        with pytest.raises(SpecificationError, match="codegen"):
            plan_for({"codegen": "auto"}, nq=side + 1, nr=side + 1)


# -- typed errors for option values from the wire -----------------------------

@pytest.mark.parametrize("options", [
    {"workers": "two", "parallel": True}, {"workers": -1}, {"workers": 0},
    {"workers": True}, {"workers": 2.5},
    # the deleted task-count knob: no such option, whatever its value
    {"min_tasks": 8},
    # brute force is spelt backend='brute' only
    {"tree": "none"}, {"leaf_size": 0}, {"leaf_size": "big"},
    # a misspelt backend used to run the tree algorithm, uncached
    {"backend": "brue"},
    {"parallel": "maybe"}, {"cache": 2}, {"fastmath": 1.0},
    {"exclude_self": "sometimes"},
    # a deleted IR knob: no such option (the IR is built on read)
    {"verify_ir": True},
    {"tau": float("nan")}, {"tau": "x"}, {"tau": -1e-3}, {"tau": True},
    {"theta": "x"}, {"theta": float("inf")},
    # the last rows to get an ``allowed``: tree used to escape as
    # build_tree's bare ValueError, criterion only failed after the plan
    # was resolved
    {"tree": "foo"}, {"criterion": "foo"},
    # the deleted kd split knob: the median split is the only one
    {"split": "median"},
    # the deleted layout knob: no such option, whatever its value
    {"layout": "row"},
    # the deleted codegen surface: no such option, no such backend
    {"codegen": "numpy"}, {"backend": "native"},
    # the other deleted IR knob
    {"disable_passes": ("cse",)},
])
def test_bad_counts_are_specification_errors(options):
    with pytest.raises(SpecificationError, match="|".join(options)):
        CompileOptions.from_dict(options)


def test_none_and_numpy_ints_are_accepted():
    opts = CompileOptions.from_dict(
        {"workers": None, "shards": np.int64(4), "leaf_size": 32,
         "tau": 0, "theta": np.float64(0.4), "parallel": None})
    assert (opts.workers, opts.shards, opts.leaf_size) == (None, 4, 32)
    assert (opts.tau, opts.theta, opts.parallel) == (0, 0.4, None)


@pytest.mark.parametrize("name", [
    "parallel", "cache", "exclude_self"])
def test_a_flag_spelt_off_is_off(name):
    """``"false"`` from a serve client or ``--option parallel=off`` from
    the CLI is a non-empty string: it must not switch the feature on.
    ``cache`` is no option at all: every spelling is refused."""
    if name not in OPTION_TABLE:
        for value in ("false", "off", 0, False, "true", 1, True):
            with pytest.raises(SpecificationError, match=name):
                CompileOptions.from_dict({name: value})
        return
    for off in ("false", "off", "no", "0", "FALSE", 0, False, np.False_):
        assert getattr(CompileOptions.from_dict({name: off}), name) is False
    for on in ("true", "on", "yes", "1", " On ", 1, True, np.True_):
        assert getattr(CompileOptions.from_dict({name: on}), name) is True


def test_parallel_false_from_the_wire_stays_serial():
    assert plan_for({"parallel": "false", "workers": 2}).executor == "serial"


@pytest.mark.parametrize("env", [
    {"REPRO_EXECUTOR": "quantum"}, {"REPRO_EXECUTOR": "serial"},
])
def test_bad_environment_values_are_specification_errors(env):
    with pytest.raises(SpecificationError, match="|".join(
            OPTION_TABLE[n].name for n in OPTION_TABLE
            if OPTION_TABLE[n].metadata["env"] in env)):
        plan_for({"parallel": True}, env)


def test_options_are_immutable():
    opts = CompileOptions.from_dict({"shards": 4})
    assert opts.shards == 4
    with pytest.raises(AttributeError):
        opts.shards = 2


# -- property: deterministic, and a plan's own options are a fixed point ------

ROUTING = st.fixed_dictionaries({}, optional={
    "traversal": st.sampled_from(["batched", "stack"]),
    "parallel": st.booleans(),
    "executor": st.sampled_from(["auto", "thread", "process"]),
    "workers": st.integers(1, 4),
    "leaf_size": st.sampled_from([8, 64, 200]),
    "shards": st.integers(1, 5),
    "policy": st.sampled_from(["static", "auto", "search"]),
    "backend": st.sampled_from(["vectorized", "brute"]),
    "tree": st.sampled_from(["kd", "octree"]),
})
ENV = st.fixed_dictionaries({}, optional={
    "REPRO_EXECUTOR": st.sampled_from(["thread", "process", " auto "]),
})
# A stored entry may still name the retired 'bounded-batched' value.
ENTRY = st.none() | st.fixed_dictionaries({
    "traversal": st.sampled_from(["batched", "bounded-batched", "stack"]),
    "executor": st.sampled_from(["serial", "thread", "process"]),
    "leaf_size": st.sampled_from([16, 32, 128]),
    "shards": st.integers(1, 3),
})
LAYERS = {name: layers_for(name) for name in ("kde", "knn")}


@settings(max_examples=150, deadline=None)
@given(options=ROUTING, env=ENV, entry=ENTRY,
       problem=st.sampled_from(["kde", "knn"]))
def test_resolution_is_deterministic_and_pinning_is_a_fixed_point(
        options, env, entry, problem):
    layers, policy = LAYERS[problem], stub_policy(entry)

    def resolve(opts):
        return resolve_plan(CompileOptions.from_dict(opts), env, policy,
                            layers)

    plan = resolve(options)
    again = resolve(options)
    assert plan == again and plan.sources == again.sources
    assert plan.executor in ("serial", "thread", "process")
    assert plan.executor != "process" or plan.workers > 1

    pinned = resolve({**options, **plan.to_options()})
    assert pinned == plan
    for name, source in pinned.sources:
        # a field is pinned unless the program has no such layer or no
        # option sets it
        assert source == "explicit" or getattr(plan, name) is None or (
            name == "executor" and plan.engine is None) or (
            name == "min_tasks")


# -- the documented table is the option table ---------------------------------

def _plan_section() -> str:
    text = (ROOT / "docs" / "compiler.md").read_text()
    start = re.search(r"^## .*Execution plan$", text, re.M).start()
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_docs_list_every_option_and_only_options():
    rows = [line for line in _plan_section().splitlines()
            if line.startswith("| `")]
    documented = {re.match(r"\| `(\w+)`", line).group(1) for line in rows}
    assert documented == set(OPTION_TABLE)
    for line in rows:
        row = OPTION_TABLE[re.match(r"\| `(\w+)`", line).group(1)].metadata
        # each row names its environment variable and whether the
        # policy may fill it, exactly as the table has them
        assert set(re.findall(r"REPRO_[A-Z_]+", line)) >= (
            {row["env"]} if row["env"] else set())
        assert ("| policy |" in line) == row["policy"], line


def test_docs_list_every_environment_variable_and_only_those():
    in_source = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        in_source |= set(re.findall(r"REPRO_[A-Z_]+[A-Z]", path.read_text()))
    assert set(re.findall(r"REPRO_[A-Z_]+[A-Z]", _plan_section())) == in_source
