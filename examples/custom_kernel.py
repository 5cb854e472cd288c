"""Defining custom kernels: symbolic, pre-defined and external.

Shows the three kernel flavours of paper section III-C and what the
compiler does with each:

* a *symbolic* kernel the normaliser recognises (optimised tree path),
* a *Mahalanobis* kernel (triggers the numerical-optimisation pass —
  Cholesky + forward substitution + whitened trees),
* an *external* Python kernel (linked, not optimised: brute-force path,
  exactly like external C++ functions in the paper).

Run:  python examples/custom_kernel.py
"""

import numpy as np

from repro import (
    PortalExpr, PortalFunc, PortalOp, Storage, Var, exp, pow, sqrt,
)


def main() -> None:
    rng = np.random.default_rng(11)
    Q = Storage(rng.normal(size=(800, 3)), name="query")
    R = Storage(rng.normal(size=(1000, 3)), name="reference")

    # --- 1. symbolic kernel: inverse multiquadric Σ 1/sqrt(t + 1) -----------
    q, r = Var("q"), Var("r")
    imq = 1.0 / sqrt(pow(q - r, 2) + 1.0)
    e1 = PortalExpr("inverse-multiquadric-sum")
    e1.addLayer(PortalOp.FORALL, q, Q)
    e1.addLayer(PortalOp.SUM, r, R, imq)
    out1 = e1.execute(tau=1e-4, exclude_self=False)
    print("symbolic kernel 1/sqrt(‖q−r‖²+1):")
    print(f"  classified: {e1.program.classification.category} / "
          f"{e1.program.classification.algorithm}")
    print(f"  kernel normal form: {e1.layers[1].metric_kernel.describe()}")
    print(f"  Σ at first query: {out1.values[0]:.3f}, "
          f"{e1.program.stats.approximated} node pairs approximated")

    # --- 2. Mahalanobis: the numerical-optimisation pass --------------------
    cov = np.diag([1.0, 4.0, 0.25])
    e2 = PortalExpr("mahalanobis-nn")
    e2.addLayer(PortalOp.FORALL, Q)
    e2.addLayer(PortalOp.ARGMIN, R, PortalFunc.MAHALANOBIS, covariance=cov)
    out2 = e2.execute()
    numopt = e2.program.ir().stage("numopt")
    print("\nMahalanobis nearest neighbor:")
    print(f"  numerical optimisation fired: "
          f"{numopt.meta['numerical_optimized']}")
    print("  IR now factorises the covariance once (Cholesky) and runs "
          "forward substitution per pair;")
    print("  at runtime both trees are built over L⁻¹-whitened points.")
    print(f"  nearest (whitened) reference of query 0: {out2.indices[0]}")

    # --- 3. external kernel: linked, not optimised ---------------------------
    def cosine_similarity(Qb, Rb):
        qn = Qb / np.linalg.norm(Qb, axis=1, keepdims=True)
        rn = Rb / np.linalg.norm(Rb, axis=1, keepdims=True)
        return qn @ rn.T

    e3 = PortalExpr("max-cosine")
    e3.addLayer(PortalOp.FORALL, Q)
    e3.addLayer(PortalOp.MAX, R, cosine_similarity)
    out3 = e3.execute()
    print("\nexternal kernel (cosine similarity):")
    print(f"  algorithm choice: {e3.program.classification.algorithm} "
          "(external kernels are linked, not optimised — paper §III-C)")
    print(f"  best cosine of query 0: {out3.values[0]:.4f}")


if __name__ == "__main__":
    main()
