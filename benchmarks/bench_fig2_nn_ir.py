"""Fig. 2 — the nearest-neighbor IR at every compiler stage.

Regenerates the per-stage IR dumps of the paper's Fig. 2 (BaseCase,
Prune/Approximate and ComputeApprox for the nearest-neighbor problem)
from the live pass manager, asserting the figure's annotations:

* the kernel lowers to the dimension loop accumulating pow(·, 2),
* flattening rewrites loads into strided one-dimensional form,
* no numerical optimisation fires (NN has no Mahalanobis form),
* strength reduction turns pow into chained multiplication (the paper's
  sqrt → 1/fast_inverse_sqrt rewrite is not carried over: sqrt stays
  exact, DESIGN.md S7),
* ComputeApprox returns 0 (NN is a pruning problem).
"""

import numpy as np
import pytest

from harness import emit, time_interp_base_case, update_bench_json
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.ir.lowering import lower
from repro.ir.passes import PassManager
from repro.ir.printer import render_function, render_stages
from repro.rules import build_rules

#: The pipeline as it stood before the optimizer expansion: everything
#: except the three new passes.  Disabling them reproduces the old
#: pipeline exactly, so baseline-vs-extended is a true ablation.
SEED_PIPELINE_DISABLE = ("simplify", "cse", "dce")


def compile_nn():
    rng = np.random.default_rng(0)
    e = PortalExpr("nearest-neighbor")
    e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(200, 3)),
                                        name="query"))
    e.addLayer(PortalOp.ARGMIN, Storage(rng.normal(size=(200, 3)),
                                        name="reference"),
               PortalFunc.EUCLIDEAN)
    e.compile()
    return e


def test_fig2_ir_dump(benchmark):
    e = benchmark(compile_nn)
    pm = e.program.ir()

    text = []
    text.append("Fig. 2 — nearest neighbor IR, per stage")
    text.append("=" * 50)
    text.append(render_stages(pm.snapshots, "BaseCase"))
    text.append("--- PruneApprox (final) " + "-" * 26)
    text.append(render_function(pm.stage("final")["PruneApprox"]))
    text.append("--- ComputeApprox (final) " + "-" * 24)
    text.append(render_function(pm.stage("final")["ComputeApprox"]))
    dump = "\n".join(text)
    emit("fig2", dump)

    lowered = render_function(pm.stage("lowered")["BaseCase"])
    final = render_function(pm.stage("final")["BaseCase"])
    assert "pow(" in lowered and "for d in" in lowered
    assert "stride" in final
    assert pm.stage("numopt").meta["numerical_optimized"] is False
    assert "sqrt(" in final and "pow(" not in final
    assert "fast_inverse_sqrt" not in final
    assert "return 0" in render_function(pm.stage("final")["ComputeApprox"])


def test_fig2_ir_ablation_interp(benchmark):
    """Extended-vs-seed pipeline for the NN kernel, timed through the
    interpreter backend on BaseCase.  The Euclidean kernel has no
    repeated subexpressions after strength reduction, so the extended
    pipeline must leave its IR untouched — the ablation row records a
    ~1.0x ratio, and the assertion pins the no-regression half of the
    contract (the speedup half lives in the Fig 3 ablation)."""
    rng = np.random.default_rng(0)
    e = PortalExpr("nn-ablation")
    e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(40, 3)),
                                        name="query"))
    e.addLayer(PortalOp.SUM, Storage(rng.normal(size=(45, 3)),
                                     name="reference"),
               PortalFunc.EUCLIDEAN, tau=0.0)
    e.validate()
    kernel = e.layers[1].metric_kernel
    cls, rule = build_rules(e.layers, kernel)
    lowered = lower(e.layers, kernel, cls, rule, "nn")

    base_fn = PassManager(
        disabled=frozenset(SEED_PIPELINE_DISABLE)).run(lowered)["BaseCase"]
    ext_fn = benchmark(lambda: PassManager().run(lowered)["BaseCase"])

    # Identical IR in, identical IR out: the new passes are no-ops here.
    assert render_function(ext_fn) == render_function(base_fn)

    base_s = time_interp_base_case(base_fn, e.layers)
    ext_s = time_interp_base_case(ext_fn, e.layers)
    update_bench_json("BENCH_ir.json", "fig2", [{
        "kernel": "nn_euclidean",
        "baseline_pass_set_disables": list(SEED_PIPELINE_DISABLE),
        "baseline_wall_s": base_s,
        "extended_wall_s": ext_s,
        "speedup": base_s / ext_s,
        "ir_identical": True,
        "nq": 40, "nr": 45, "d": 3,
    }], meta={"backend": "interp", "function": "BaseCase", "repeats": 5})


def test_fig2_generated_backend_source(benchmark):
    e = benchmark(compile_nn)
    src = e.generated_source()
    # The backend artifact (our LLVM-IR stand-in) is also dumped.
    emit("fig2_generated", "Fig. 2 (backend) — generated NumPy source\n"
         + "=" * 50 + "\n" + src)
    assert "def base_case" in src and "def prune_or_approx" in src
