"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.backend.cache import clear_caches


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden IR dumps under tests/ir/golden/",
    )


@pytest.fixture(autouse=True)
def _isolated_caches():
    """Tests must be order-independent: the execution caches are
    process-global, so drop them around every test."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_qr(rng):
    """A small (query, reference) pair in 3-D."""
    return rng.normal(size=(120, 3)), rng.normal(size=(150, 3))


@pytest.fixture
def small_highdim(rng):
    """A small (query, reference) pair in 12-D (row-major layout path)."""
    return rng.normal(size=(90, 12)), rng.normal(size=(110, 12))


@pytest.fixture
def clustered_2d(rng):
    """Two well-separated Gaussian clusters in 2-D, with labels."""
    a = rng.normal(loc=(-4.0, 0.0), scale=1.0, size=(80, 2))
    b = rng.normal(loc=(4.0, 0.0), scale=1.0, size=(80, 2))
    X = np.concatenate([a, b])
    y = np.array([0] * 80 + [1] * 80)
    return X, y


#: the engine value retired when the batched engine absorbed the bound
#: form; only a policy entry stored before then can still name it
RETIRED_ENGINE = "bounded-batched"


@pytest.fixture
def stored_traversal(tmp_path, monkeypatch):
    """Rewrite run options that ask for :data:`RETIRED_ENGINE`.

    ``execute(traversal="bounded-batched")`` is a ``SpecificationError``;
    the value reaches a run only from a stored policy entry, which
    ``resolve_plan`` folds into ``"batched"``.  So such a request is
    seeded into a per-test policy store under the program's key and the
    returned options ask ``policy="auto"`` instead; other options pass
    through unchanged."""
    from repro.backend.plan import CompileOptions
    from repro.policy import (
        PolicyEntry, policy_key, policy_store, reset_policy_store,
    )

    monkeypatch.setenv("REPRO_POLICY_PATH", str(tmp_path / "policy.json"))
    reset_policy_store()

    def options(build, run_opts: dict) -> dict:
        if run_opts.get("traversal") != RETIRED_ENGINE:
            return run_opts
        opts = {k: v for k, v in run_opts.items() if k != "traversal"}
        expr = build()
        expr.validate()
        key = policy_key(expr.layers, CompileOptions.from_dict(opts))
        policy_store().put(key, PolicyEntry(
            config={"traversal": RETIRED_ENGINE}))
        return dict(opts, policy="auto")

    yield options
    reset_policy_store()
