"""A run imports what it runs, and nothing more.

SciPy serves the Mahalanobis whitening, and ``multiprocessing`` with
the process pool serve the process executor.  So a serial Euclidean
k-NN in a fresh interpreter loads none of them, through the DSL or
through ``repro.problems`` (whose EM, EMST and naive Bayes import SciPy
where they call it), while a Mahalanobis run
and a process-executor run load what they use and give the serial
Euclidean answer.
"""

import json
import os
import subprocess
import sys

_CHILD = r"""
import json, sys
import numpy as np
from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "multiprocessing")
                  or m == "concurrent.futures.process")

rng = np.random.default_rng(0)
Q, R = rng.normal(size=(300, 3)), rng.normal(size=(500, 3))

def knn(func, kernel_options=None, **options):
    e = PortalExpr("knn")
    e.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    e.addLayer((PortalOp.KARGMIN, 5), Storage(R, name="reference"), func,
               **(kernel_options or {}))
    return np.asarray(e.execute(**options).indices)

want = knn(PortalFunc.EUCLIDEAN)
seen = {"serial": loaded()}
from repro.problems import knn as knn_problem
_, via_problems = knn_problem(Q, R, k=5)
seen["problems"] = loaded()
maha = knn(PortalFunc.MAHALANOBIS, {"covariance": np.eye(3)})
seen["mahalanobis"] = loaded()
pooled = knn(PortalFunc.EUCLIDEAN, parallel=True, workers=2,
             executor="process")
seen["process"] = loaded()
seen["same"] = [bool(np.array_equal(maha, want)),
                bool(np.array_equal(pooled, want)),
                bool(np.array_equal(via_problems, want))]
print(json.dumps(seen))
"""


def test_a_serial_knn_loads_no_scipy_and_no_process_pool():
    env = {k: v for k, v in os.environ.items() if k != "REPRO_EXECUTOR"}
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["serial"] == []
    assert seen["problems"] == []
    assert "scipy.linalg" in seen["mahalanobis"]
    assert not any(m.startswith("multiprocessing")
                   for m in seen["mahalanobis"])
    assert {"multiprocessing", "concurrent.futures.process"} <= set(
        seen["process"])
    assert seen["same"] == [True, True, True]
