"""Integration: the Prune/Approximate *IR* agrees with the generated
runtime closures on real tree metadata.

The IR functions are documentation-grade artifacts (Figs 2–3), but they
must also be *true*: interpreting the PruneApprox IR over a node pair's
bounding-box metadata has to reach the same decision as the compiled
``prune_or_approx`` closure the traversal actually runs.
"""

import numpy as np
import pytest

from repro.backend.interp import interpret_function
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage


@pytest.fixture
def rng():
    return np.random.default_rng(32)


def _metadata_env(prog, qi, ri, extra=None):
    qtree, rtree = prog.qtree, prog.rtree
    env = {
        "dim": qtree.dim,
        "N1_min": qtree.lo[qi], "N1_max": qtree.hi[qi],
        "N2_min": rtree.lo[ri], "N2_max": rtree.hi[ri],
        "N1": qi, "N2": ri,
    }
    env.update(extra or {})
    return env


class TestPruneIRAgreement:
    def test_knn_bound_prune(self, rng):
        Q = rng.normal(size=(120, 3))
        R = rng.normal(size=(140, 3))
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
        e.addLayer(PortalOp.ARGMIN, Storage(R, name="reference"),
                   PortalFunc.EUCLIDEAN)
        prog = e.compile(leaf_size=8)
        prog.run()

        ns = prog.kernels.namespace
        best = ns["best"]
        qstart, qend = prog.qtree.start, prog.qtree.end
        prune_ir = prog.ir().stage("final")["PruneApprox"]

        def node_bound(n1):
            return best[qstart[n1]:qend[n1]].max()

        for qi in prog.qtree.leaves()[:8]:
            for ri in prog.rtree.leaves()[:8]:
                runtime = ns["prune_or_approx"](int(qi), int(ri))
                # The deferral optimisation keeps runtime bounds in base
                # (squared) units while the IR compares g(t) = sqrt(t)
                # against B(N_q); supplying the bound in g units makes
                # the two comparisons decision-equivalent.
                ir_val = interpret_function(prune_ir, _metadata_env(
                    prog, int(qi), int(ri), extra={
                        "node_bound":
                            lambda n1, b=node_bound: float(np.sqrt(b(n1))),
                        "band_lo": lambda lo_v, hi_v: min(lo_v, hi_v),
                        "band_hi": lambda lo_v, hi_v: max(lo_v, hi_v),
                    },
                ))
                assert (float(ir_val) != 0.0) == (runtime == 1)

    def test_kde_band_approx(self, rng):
        X = rng.uniform(0, 10, size=(300, 3))
        e = PortalExpr()
        s = Storage(X, name="data")
        e.addLayer(PortalOp.FORALL, s)
        e.addLayer(PortalOp.SUM, s, PortalFunc.GAUSSIAN, bandwidth=0.5)
        prog = e.compile(tau=1e-3, leaf_size=16, exclude_self=False)
        prog.run()

        ns = prog.kernels.namespace
        prune_ir = prog.ir().stage("final")["PruneApprox"]
        leaves = prog.qtree.leaves()
        checked = both = 0
        for qi in leaves[:10]:
            for ri in leaves[:10]:
                runtime = ns["prune_or_approx"](int(qi), int(ri))
                env = _metadata_env(prog, int(qi), int(ri), extra={
                    "band_lo": lambda a, b: min(a, b),
                    "band_hi": lambda a, b: max(a, b),
                })
                # Interpreting the approx IR must not *execute* the
                # contribution (the runtime closure mutates acc), so we
                # only compare the condition value.
                ir_val = interpret_function(prune_ir, env)
                checked += 1
                if (float(ir_val) != 0.0) == (runtime == 2):
                    both += 1
        assert both == checked  # exact condition agreement
