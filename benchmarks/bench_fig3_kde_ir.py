"""Fig. 3 — the kernel-density-estimation IR at every compiler stage.

KDE is the paper's *approximation* worked example: the dump must show the
Gaussian kernel lowering, the band approximation condition with
ComputeApprox adding the node's density-weighted centroid contribution,
and — for the Mahalanobis variant — the numerical-optimisation rewrite to
Cholesky + forward substitution (the purple box of Fig. 3).
"""

import numpy as np
import pytest

from harness import emit, time_interp_base_case, update_bench_json
from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, Storage, Var, exp, pow, sqrt,
)
from repro.ir.lowering import lower
from repro.ir.passes import PassManager
from repro.ir.printer import render_function, render_stages
from repro.rules import build_rules

#: See bench_fig2_nn_ir: disabling the three new passes reproduces the
#: pre-expansion pipeline exactly.
SEED_PIPELINE_DISABLE = ("simplify", "cse", "dce")


def compile_kde(mahalanobis: bool = False):
    rng = np.random.default_rng(0)
    e = PortalExpr("kernel-density-estimation")
    e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(200, 3)),
                                        name="query"))
    if mahalanobis:
        e.addLayer(PortalOp.MIN, Storage(rng.normal(size=(200, 3)),
                                         name="reference"),
                   PortalFunc.MAHALANOBIS, covariance=np.eye(3))
    else:
        e.addLayer(PortalOp.SUM, Storage(rng.normal(size=(200, 3)),
                                         name="reference"),
                   PortalFunc.GAUSSIAN, bandwidth=1.0)
    e.compile(tau=1e-3)
    return e


def test_fig3_ir_dump(benchmark):
    e = benchmark(compile_kde)
    pm = e.program.ir()

    text = ["Fig. 3 — kernel density estimation IR, per stage", "=" * 50,
            render_stages(pm.snapshots, "BaseCase"),
            "--- PruneApprox (final) " + "-" * 26,
            render_function(pm.stage("final")["PruneApprox"]),
            "--- ComputeApprox (final) " + "-" * 24,
            render_function(pm.stage("final")["ComputeApprox"])]
    emit("fig3", "\n".join(text))

    final_prune = render_function(pm.stage("final")["PruneApprox"])
    final_approx = render_function(pm.stage("final")["ComputeApprox"])
    assert "band_hi" in final_prune or "band_lo" in final_prune
    assert "node_weight" in final_approx
    assert "exp(" in render_function(pm.stage("lowered")["BaseCase"])


def _ablation_kernels():
    """KDE-family kernels for the IR ablation.  ``plummer_mixture`` is
    the CSE showcase: the Gaussian factor appears four times and the
    distance twice more, so hash-consing collapses most of the per-pair
    expression tree."""
    q, r = Var("q"), Var("r")
    d2 = pow(q - r, 2)
    t = exp(-(d2) / 2.0)
    return {
        "kde_gaussian": (PortalFunc.GAUSSIAN, {"bandwidth": 0.9}),
        "plummer_mixture": (
            (t + sqrt(d2)) * (t + pow(d2 + 0.25, -0.5))
            + t * sqrt(d2) + t,
            {},
        ),
    }


def test_fig3_ir_ablation_interp(benchmark):
    """Extended-vs-seed pipeline on KDE-family kernels, timed through
    the interpreter backend on BaseCase.  The extended pipeline must be
    at least 5% faster on at least one kernel — the paper's Fig 3
    claim that kernel-level redundancy is the optimiser's payoff."""
    rng = np.random.default_rng(0)
    Q, R = rng.normal(size=(40, 3)), rng.normal(size=(45, 3))
    rows = []
    for name, (func, params) in _ablation_kernels().items():
        e = PortalExpr(f"kde-ablation-{name}")
        e.addLayer(PortalOp.FORALL, Var("q"), Storage(Q, name="query"))
        e.addLayer(PortalOp.SUM, Var("r"), Storage(R, name="reference"),
                   func, tau=0.0, **params)
        e.validate()
        kernel = e.layers[1].metric_kernel
        cls, rule = build_rules(e.layers, kernel)
        lowered = lower(e.layers, kernel, cls, rule, name)

        base_fn = PassManager(
            disabled=frozenset(SEED_PIPELINE_DISABLE)).run(lowered)["BaseCase"]
        ext_fn = PassManager().run(lowered)["BaseCase"]
        base_s = time_interp_base_case(base_fn, e.layers)
        ext_s = time_interp_base_case(ext_fn, e.layers)
        rows.append({
            "kernel": name,
            "baseline_pass_set_disables": list(SEED_PIPELINE_DISABLE),
            "baseline_wall_s": base_s,
            "extended_wall_s": ext_s,
            "speedup": base_s / ext_s,
            "ir_identical": render_function(ext_fn)
            == render_function(base_fn),
            "nq": 40, "nr": 45, "d": 3,
        })

    benchmark(lambda: PassManager().run(lowered)["BaseCase"])
    if not benchmark.disabled:
        # wall times only when benchmarking (see bench_fig2_nn_ir.py)
        update_bench_json("BENCH_ir.json", "fig3", rows,
                          meta={"backend": "interp", "function": "BaseCase",
                                "repeats": 5})
    best = max(rows, key=lambda r: r["speedup"])
    assert best["speedup"] >= 1.05, (
        f"extended pipeline not >=5% faster on any kernel: {rows}"
    )


def test_fig3_mahalanobis_numerical_optimisation(benchmark):
    e = benchmark(lambda: compile_kde(mahalanobis=True))
    pm = e.program.ir()
    numopt = render_function(pm.stage("numopt")["BaseCase"])
    lowered = render_function(pm.stage("lowered")["BaseCase"])
    emit("fig3_mahalanobis",
         "Fig. 3 (purple box) — Mahalanobis numerical optimisation\n"
         + "=" * 50
         + "\n--- before (naive inverse) ---\n" + lowered
         + "\n--- after (Cholesky + forward substitution) ---\n" + numopt)
    assert "mahalanobis" in lowered
    assert "cholesky" in numopt and "forward_sub" in numopt
    assert "mahalanobis(" not in numopt
