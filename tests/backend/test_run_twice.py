"""A compiled program run again answers as a fresh ``execute()`` does.

``CompiledProgram.run()`` starts every run from fresh accumulators; a
second run used to fold into the first run's state (KDE sums doubled,
k-NN rows repeating their ids).  Held for k-NN, KDE and range search (a
``UNION`` list) in tree and brute modes, sharded, and under whatever
executor the environment selects.
"""

import numpy as np
import pytest

from repro.backend.cache import clear_caches
from repro.dsl import (PortalExpr, PortalFunc, PortalOp, Storage, Var,
                       indicator, pow, sqrt)

MODES = {"tree": {}, "brute": {"backend": "brute"}, "shards2": {"shards": 2}}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(17)
    return rng.normal(size=(300, 3)), rng.normal(size=(1_200, 3))


def _expr(problem, Q, R):
    expr = PortalExpr(problem)
    if problem == "range":
        q, r = Var("q"), Var("r")
        expr.addLayer(PortalOp.FORALL, q, Storage(Q, name="query"))
        expr.addLayer(PortalOp.UNION, r, Storage(R, name="reference"),
                      indicator(sqrt(pow(q - r, 2)) < 0.4))
        return expr
    expr.addLayer(PortalOp.FORALL, Storage(Q, name="query"))
    if problem == "knn":
        expr.addLayer((PortalOp.KARGMIN, 5), Storage(R, name="reference"),
                      PortalFunc.EUCLIDEAN)
    else:
        expr.addLayer(PortalOp.SUM, Storage(R, name="reference"),
                      PortalFunc.GAUSSIAN, bandwidth=0.5)
    return expr


def _options(problem, mode):
    options = dict(MODES[mode], leaf_size=16)
    if problem == "kde":
        options["tau"] = 1e-3
    return options


def _assert_same(a, b):
    for name in ("values", "indices"):
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, list):
            assert len(x) == len(y)
            assert all(u.tobytes() == v.tobytes() for u, v in zip(x, y))
        elif x is None:
            assert y is None
        else:
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("problem", ["knn", "kde", "range"])
def test_second_run_equals_a_fresh_execute(data, problem, mode):
    Q, R = data
    options = _options(problem, mode)
    program = _expr(problem, Q, R).compile(**options)
    first = program.run()
    second = program.run()
    clear_caches()
    fresh = _expr(problem, Q, R).execute(**options)
    _assert_same(second, fresh)
    _assert_same(first, fresh)


def test_an_earlier_output_survives_the_next_run(data):
    """The reset happens in place, so an Output handed out earlier must
    own its arrays."""
    Q, R = data
    program = _expr("kde", Q, R).compile(tau=1e-3)
    first = program.run()
    kept = np.asarray(first.values).copy()
    program.run()
    assert np.asarray(first.values).tobytes() == kept.tobytes()
