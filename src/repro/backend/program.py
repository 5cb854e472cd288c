"""The runnable product of a compile: :class:`CompiledProgram`.

Holds what :mod:`repro.backend.jit` produced — the options that were
asked (``options``), the plan that runs (``plan``), trees, generated
kernels, fresh state — and executes it: :meth:`~CompiledProgram.run`
dispatches on the plan (sharded / process / thread / serial over
:func:`repro.traversal.run_engine`, or the generated brute force, the IR
interpreter, the dense multi-layer backend), and
:meth:`~CompiledProgram.stats_summary` reports what happened.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..dsl.errors import CompileError
from ..dsl.funcs import MetricKernel
from ..dsl.layer import Layer
from ..dsl.ops import PortalOp, op_info
from ..ir.lowering import lower
from ..ir.passes import PassManager
from ..ir.printer import render_program, render_stages
from ..observe import collect, contribute, span
from ..parallel import parallel_dual_tree
from ..traversal import TraversalStats, run_engine
from .codegen import Bindings, GeneratedKernels
from .plan import CompileOptions, ExecutionPlan
from .state import Output, State

__all__ = ["CompiledProgram"]


@dataclass
class CompiledProgram:
    """A fully compiled Portal problem, ready to run."""

    #: the PortalExpr's name (the IR's ``problem``)
    name: str
    #: what was asked …
    options: CompileOptions
    #: … and what runs
    plan: ExecutionPlan
    layers: list[Layer]
    kernel: MetricKernel | None
    classification: object
    rule: object
    mode: str                        # 'tree' | 'brute' | 'interp' | 'multilayer'
    state: State
    kernels: GeneratedKernels | None = None
    qtree: object | None = None
    rtree: object | None = None      # None when sharded
    qdata: np.ndarray | None = None  # brute mode: original-order data
    rdata: np.ndarray | None = None
    #: reference-set size (``None`` for multi-layer programs)
    nr: int | None = None
    same_data: bool = False
    exclude_self: bool = False
    #: 'hit' (code half reused, data half bound) | 'miss' | 'off', or
    #: ``None`` for an uncacheable program
    cache_state: str | None = None
    #: sharded layout: per-shard states and kernels
    #: (:class:`repro.parallel.shard.ShardExecution`)
    shard_exec: object | None = None
    #: what the process executor ships to workers: the static (non-
    #: state) kernel operands — arrays to shared memory, scalars pickled
    #: — under a token that keys the publication, so repeated runs
    #: republish nothing
    bindings: Bindings | None = None
    program_token: str | None = None
    stats: TraversalStats | None = None
    output: Output | None = None
    #: the batched engine's epoch-loop counters of the last run
    bounded: dict | None = None
    #: broadcast counters and per-shard stats of the last sharded run
    shard_info: dict | None = None
    #: wall-clock seconds per compile stage that ran ('rules', 'codegen'
    #: — absent on a cache hit — 'tree_build', 'shard_build') plus 'run'
    #: after run()
    timings: dict = field(default_factory=dict)
    #: guards the mutable observability state (``timings`` / ``stats`` /
    #: ``bounded`` / ``shard_info``) against :meth:`stats_summary`
    #: snapshotting it while a concurrent :meth:`run` is mid-update (the
    #: serving layer reads stats from one thread while executes run on
    #: others)
    _stats_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False)
    #: the default pipeline's IR once something read it (:meth:`ir`)
    _ir: PassManager | None = field(default=None, repr=False,
                                   compare=False)
    #: whether a run has written into the state
    _ran: bool = field(default=False, repr=False, compare=False)

    # -- introspection ---------------------------------------------------------
    def ir(self, disable=()) -> PassManager:
        """This program's Portal IR: its own layers lowered and the
        optimisation passes run, skipping those named in ``disable`` (see
        :data:`repro.ir.passes.TOGGLEABLE_PASSES`), with the structural
        verifier after every pass.  Built on first read — no compile
        builds it, since the emitter works from the kernel, not from
        the IR — and the default pipeline's result is kept."""
        if self._ir is not None and not disable:
            return self._ir
        pm = PassManager(disabled=disable, verify=True)
        with span("compile.lowering", program=self.name):
            lowered = lower(self.layers, self.kernel, self.classification,
                            self.rule, self.name)
        with span("compile.passes", program=self.name):
            pm.run(lowered)
        if not disable:
            self._ir = pm
        return pm

    def ir_dump(self, stage: str = "final", disable=()) -> str:
        return render_program(self.ir(disable).stage(stage))

    def ir_stages(self, function: str = "BaseCase") -> str:
        return render_stages(self.ir().snapshots, function)

    def generated_source(self) -> str:
        if self.kernels is None:
            raise CompileError("no generated source in interp mode")
        return self.kernels.source

    # -- execution --------------------------------------------------------------
    def run(self) -> Output:
        """Execute the program and return its :class:`Output`.  Every run
        starts from fresh accumulators, so a repeated run answers as the
        first one did."""
        if self._ran:
            self.state.reset()
            if self.shard_exec is not None:
                for state in self.shard_exec.states:
                    state.reset()
        self._ran = True
        t0 = time.perf_counter()
        with span("run", mode=self.mode):
            out = self._run()
        with self._stats_lock:
            self.timings["run"] = time.perf_counter() - t0
            stats = self.stats
        decision = self.plan.decision
        if (decision is not None and decision.source == "policy-cache"
                and self.mode == "tree"):
            # Online refinement: feed the observed counters back so a
            # decision whose live profile deviates from its tuning
            # measurement is retired (marked stale → re-searched).
            from ..policy import observe_run

            observe_run(decision.key, stats, self.state.nq, self.nr)
        return out

    def _run(self) -> Output:
        if self.mode == "multilayer":
            from .multilayer import execute_multilayer

            self.stats = TraversalStats(base_cases=1)
            self.stats.contribute()
            self.output = execute_multilayer(self.layers, self.exclude_self)
            return self.output
        if self.mode == "interp":
            self.output = self._run_interp(self.ir())
            return self.output
        if self.mode == "tree":
            self.stats = self._run_tree()
            qperm = self.qtree.perm
            # Sharded runs have no single reference tree; the combine
            # step already mapped indices to original reference ids.
            rperm = self.rtree.perm if self.rtree is not None else None
        elif self.mode == "brute":
            self.stats = self._run_brute()
            qperm = np.arange(self.state.nq)
            rperm = None
        else:
            raise CompileError(f"cannot run mode {self.mode!r}")
        self.output = self.state.finalize(qperm, rperm)
        return self.output

    def stats_summary(self) -> dict:
        """Observability summary: traversal counters with prune/approx
        rates, per-IR-pass timings (empty until something read the IR)
        and per-compile-stage timings (the numbers behind ``repro.cli
        stats`` and ``PortalExpr.stats()``).

        Safe to call while another thread is executing this program: the
        mutable state (``timings`` / traversal and engine counters) is
        snapshotted under the program's stats lock, so the summary is a
        consistent point-in-time view and never tears a dict mid-read.
        """
        with self._stats_lock:
            st_d = (self.stats or TraversalStats()).as_dict()
            timings = dict(self.timings)
            pass_timings = {} if self._ir is None else dict(self._ir.timings)
            bounded = None if self.bounded is None else dict(self.bounded)
            shard = None if self.shard_info is None else dict(self.shard_info)
        plan = self.plan
        visited = st_d["visited"]
        summary = {
            "mode": self.mode,
            "backend": self.options.backend,
            "tree": self.options.tree if self.mode == "tree" else None,
            "traversal_engine": plan.engine,
            "executor": None if plan.executor == "serial" else plan.executor,
            "cache": self.cache_state,
            "shards": plan.shards,
            # The resolved execution plan, field → value and the source
            # that decided it (explicit / env / policy / static); the
            # routing keys above are read off it.
            "plan": plan.describe(),
            # How the plan was informed: the static rules alone, a
            # persistent policy-cache hit, or a fresh measured search
            # (see :mod:`repro.policy`).
            "policy": ({"source": "static-auto"} if plan.decision is None
                       else plan.decision.describe(plan.policy_applied())),
            "tree_version": getattr(self.qtree, "version", None),
            "traversal": dict(
                st_d,
                prune_rate=st_d["pruned"] / visited if visited else 0.0,
                approx_rate=(st_d["approximated"] / visited
                             if visited else 0.0),
            ),
            "pass_timings_ms": {
                name: dt * 1e3 for name, dt in pass_timings.items()
            },
            "compile_timings_ms": {
                name: dt * 1e3 for name, dt in timings.items()
                if name != "run"
            },
            "run_ms": timings.get("run", 0.0) * 1e3,
        }
        if bounded is not None:
            summary["bounded"] = bounded
        if shard is not None:
            summary["shard"] = shard
        if self.nr:
            summary["traversal"]["exact_pair_fraction"] = (
                st_d["base_case_pairs"] / (self.state.nq * self.nr)
            )
        return summary

    def _run_interp(self, ir: PassManager) -> Output:
        """Execute the final BaseCase IR of ``ir`` (a :meth:`ir` result)
        through the interpreter over the full datasets — the slow
        reference backend (small inputs only; self-pairs are not
        excluded, as the scalar IR has no notion of storage identity)."""
        from .interp import base_case_env, interpret_function

        outer, inner = self.layers
        qname, rname = outer.storage.name, inner.storage.name
        # The IR computes the kernel itself (including the Mahalanobis
        # form), so it runs over the *original* points — unlike the fast
        # backends, which pre-whiten.
        qdata, rdata = outer.storage.data, inner.storage.data
        extra = {}
        if self.kernel is not None and self.kernel.whiten:
            cov = self.kernel.covariance
            if cov is None:
                cov = np.cov(rdata.T)
            extra["Sigma"] = np.asarray(cov, dtype=np.float64)
        env = base_case_env(qname, rname, qdata, rdata, extra=extra)
        fn = ir.stage("final")["BaseCase"]
        with span("interp.run", function="BaseCase"):
            interpret_function(fn, env)
        self.stats = TraversalStats(base_cases=1,
                                    base_case_pairs=len(self.qdata)
                                    * len(self.rdata))
        self.stats.contribute()
        return self._interp_output(env)

    def _interp_output(self, env: dict) -> Output:
        outer, inner = self.layers
        info = op_info(inner.op)
        nq = len(self.qdata)
        rows = env.get("storage0_rows")
        if rows is not None:
            per_query = [rows.get(i, []) for i in range(nq)]
            if inner.op in (PortalOp.UNION, PortalOp.UNIONARG):
                arrays = [np.sort(np.asarray(v, dtype=np.int64
                                             if info.returns_index
                                             else np.float64))
                          for v in per_query]
                if info.returns_index:
                    return Output(indices=arrays)
                return Output(values=arrays)
            mat = np.asarray(per_query, dtype=np.float64)
            if info.returns_index:
                return Output(indices=mat.astype(np.int64))
            return Output(values=mat)
        storage0 = env["storage0"]
        if outer.op is PortalOp.FORALL:
            if info.returns_index:
                return Output(indices=np.asarray(storage0, dtype=np.int64))
            return Output(values=np.asarray(storage0, dtype=np.float64))
        # Outer reductions lower to a scalar accumulator.
        return Output(scalar=float(storage0))

    def _run_tree(self) -> TraversalStats:
        if self.plan.engine == "stack":
            return self._dispatch_tree()
        # Capture the epoch loop's bounded.* counters (epochs, deferred
        # prunes, bound refreshes, pending peak, row regime) for
        # stats_summary() regardless of whether the caller installed a
        # registry; everything captured is re-contributed so an outer
        # collect() still sees it.
        with collect() as bounded_counters:
            stats = self._dispatch_tree()
        snap = bounded_counters.as_dict()
        bounded = {
            name.split(".", 1)[1]: value
            for name, value in snap.items() if name.startswith("bounded.")
        }
        bounded["regime"] = "row" if bounded.get("row_regime") else "leaf"
        self.bounded = bounded
        contribute(snap)
        return stats

    def _dispatch_tree(self) -> TraversalStats:
        plan = self.plan
        if self.shard_exec is not None:
            from ..parallel.shard import run_sharded

            stats, self.shard_info = run_sharded(
                self.qtree, self.shard_exec, self.state, plan,
                token=self.program_token, q_bindings=self.bindings,
                source=self.kernels.source,
            )
            return stats
        qbound = self.state.arrays.get("qbound")
        if plan.executor == "serial":
            return run_engine(plan.engine, self.qtree, self.rtree,
                              self.kernels, qbound)
        if plan.executor == "process":
            from ..parallel.process_backend import parallel_dual_tree_process

            return parallel_dual_tree_process(
                self.qtree, self.rtree, self.kernels.source,
                self.bindings, self.state, self.nr,
                self.program_token, plan,
            )
        return parallel_dual_tree(
            self.qtree, self.rtree, self.kernels, engine=plan.engine,
            workers=plan.workers, min_tasks=plan.min_tasks, qbound=qbound,
        )

    def _run_brute(self) -> TraversalStats:
        stats = TraversalStats()
        nq, nr = self.qdata.shape[0], self.rdata.shape[0]
        # Block sizes bound the (qB, rB) temporaries.  A narrow reference
        # side (e.g. mixture components in EM) allows much taller query
        # blocks.
        qB, rB = (8192, nr) if nr <= 64 else (512, 2048)
        if self.same_data:
            rB = qB
        bc = self.kernels.base_case
        for qs in range(0, nq, qB):
            qe = min(qs + qB, nq)
            for rs in range(0, nr, rB):
                re = min(rs + rB, nr)
                bc(qs, qe, rs, re)
                stats.base_cases += 1
                stats.base_case_pairs += (qe - qs) * (re - rs)
        stats.contribute()
        return stats

    def validate_against_brute(self) -> float:
        """Re-run the problem brute-force and return the max |Δ| between
        the two outputs (0.0 for exact pruning problems)."""
        if self.output is None:
            self.run()
        from ..dsl.portal_expr import PortalExpr
        from .jit import compile_expr

        brute = compile_expr(
            PortalExpr.from_layers(self.layers, "validation"),
            {"backend": "brute", "exclude_self": self.options.exclude_self})
        return _max_output_delta(self.output, brute.run())


def _max_output_delta(a: Output, b: Output) -> float:
    if a.scalar is not None and b.scalar is not None:
        return abs(a.scalar - b.scalar)
    av, bv = np.asarray(a.values, dtype=float), np.asarray(b.values, dtype=float)
    return float(np.max(np.abs(av - bv)))
