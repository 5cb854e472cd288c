"""Standard passes and the pass manager (paper sections IV and IV-F).

The manager runs the pipeline of Fig. 1 —

    Lowering & Storage Injection → Flattening → Numerical Optimization →
    Strength Reduction → standard cleanups (algebraic simplification,
    constant folding, CSE, DCE) → Code Generation

— and keeps the IR snapshot after every stage so Figs 2 and 3 (the
per-stage IR dumps for nearest neighbor and KDE) can be regenerated.

When ``verify`` is enabled the structural verifier
(:mod:`repro.ir.verify`) checks the program after lowering and after
every pass, so a pass that emits invalid IR fails immediately with an
:class:`~repro.ir.verify.IRVerificationError` naming it — rather than as
a downstream miscompile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..observe import contribute, span
from .cse import common_subexpression_eliminate
from .dce import dead_code_eliminate
from .flattening import flatten
from .nodes import IRProgram
from .numerical_opt import numerical_optimize
from .simplify import fold_node, simplify
from .strength_reduction import strength_reduce
from .verify import verify_program

__all__ = [
    "constant_fold", "dead_code_eliminate", "common_subexpression_eliminate",
    "simplify", "PassManager", "PIPELINE_STAGES", "TOGGLEABLE_PASSES",
]

#: Ordered stage names of the compiler pipeline (Fig. 1).  Snapshots are
#: taken after flattening, after each named optimisation stage, and after
#: the closing fold+DCE cleanup ("final").
PIPELINE_STAGES = (
    "lowered", "flattened", "numopt", "strength", "simplify", "cse", "final",
)

#: Optimisation passes that may be disabled individually (flattening is
#: not optional: the backends address flattened 1-D strided storage).
TOGGLEABLE_PASSES = ("numopt", "strength", "simplify", "fold", "cse", "dce")


def constant_fold(program: IRProgram) -> IRProgram:
    """Evaluate constant sub-expressions and apply exact identities
    (the folding core shared with :func:`repro.ir.simplify.simplify`)."""
    return program.map_exprs(fold_node)


@dataclass
class PassManager:
    """Runs the optimisation pipeline, recording per-stage snapshots.

    ``timings`` accumulates per-pass wall-clock seconds (always on — a
    handful of ``perf_counter`` calls per compile); each pass also emits
    an ``ir.pass.<name>`` tracer span when tracing is enabled.  Passes
    named in ``disabled`` (see :data:`TOGGLEABLE_PASSES`) are skipped —
    the differential test harness uses this to check that every
    optimisation is semantics-preserving.  With ``verify`` on, the
    structural verifier runs after every pass (timed under the
    ``verify`` key and the ``passes.verify_s`` counter).
    """

    disabled: frozenset[str] = frozenset()
    verify: bool = False
    snapshots: dict[str, IRProgram] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.disabled = frozenset(self.disabled)
        unknown = self.disabled - set(TOGGLEABLE_PASSES)
        if unknown:
            raise ValueError(
                f"unknown passes in disabled={sorted(unknown)}; "
                f"toggleable: {TOGGLEABLE_PASSES}"
            )

    def _verify(self, name: str, prog: IRProgram):
        t0 = time.perf_counter()
        try:
            verify_program(prog, pass_name=name)
        except Exception:
            contribute({"passes.verify_failures": 1})
            raise
        finally:
            dt = time.perf_counter() - t0
            self.timings["verify"] = self.timings.get("verify", 0.0) + dt
            contribute({"passes.verify_s": dt})

    def _apply(self, name: str, fn, prog: IRProgram) -> IRProgram:
        if name in self.disabled:
            self.timings.setdefault(name, 0.0)
            return prog
        t0 = time.perf_counter()
        with span(f"ir.pass.{name}"):
            out = fn(prog)
        dt = time.perf_counter() - t0
        self.timings[name] = self.timings.get(name, 0.0) + dt
        contribute({f"passes.{name}_s": dt})
        if self.verify:
            self._verify(name, out)
        return out

    def run(self, lowered: IRProgram) -> IRProgram:
        self.snapshots["lowered"] = lowered
        if self.verify:
            self._verify("lowering", lowered)
        prog = self._apply("flatten", flatten, lowered)
        self.snapshots["flattened"] = prog
        prog = self._apply("numopt", numerical_optimize, prog)
        self.snapshots["numopt"] = prog
        prog = self._apply("strength", strength_reduce, prog)
        self.snapshots["strength"] = prog
        prog = self._apply("simplify", simplify, prog)
        self.snapshots["simplify"] = prog
        prog = self._apply("fold", constant_fold, prog)
        prog = self._apply("cse", common_subexpression_eliminate, prog)
        self.snapshots["cse"] = prog
        prog = self._apply("fold", constant_fold, prog)
        prog = self._apply("dce", dead_code_eliminate, prog)
        self.snapshots["final"] = prog
        return prog

    def stage(self, name: str) -> IRProgram:
        if name not in self.snapshots:
            raise KeyError(
                f"unknown stage {name!r}; available: {sorted(self.snapshots)}"
            )
        return self.snapshots[name]
