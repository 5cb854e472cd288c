"""Shared fixtures for the test suite."""

import importlib.util
import pathlib
import traceback

import numpy as np
import pytest

from repro.backend.cache import clear_caches


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden IR dumps under tests/ir/golden/",
    )


def _shm_segments() -> set:
    """The shared-memory segments this host lists (``/dev/shm``)."""
    root = pathlib.Path("/dev/shm")
    return {p.name for p in root.iterdir()} if root.is_dir() else set()


@pytest.fixture(scope="session", autouse=True)
def _shared_memory_audit():
    """Every process-executor publication is released: once the caches
    are cleared and the pools shut down at the end of the session, the
    block registry is empty and no segment made during the session is
    left behind."""
    from repro.parallel import shm, shutdown_pools

    before = _shm_segments()
    yield
    clear_caches()
    shutdown_pools()
    assert shm.shared_block_stats()["blocks"] == 0
    assert not _shm_segments() - before, "leaked shared-memory segments"


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


@pytest.fixture(scope="session")
def spine_datagen():
    """The benchmark spine's seeded input generators
    (``benchmarks/spine/datagen.py``, which is not in a package)."""
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks" / "spine" / "datagen.py")
    spec = importlib.util.spec_from_file_location("spine_datagen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def small_qr(rng):
    """A small (query, reference) pair in 3-D."""
    return rng.normal(size=(120, 3)), rng.normal(size=(150, 3))


@pytest.fixture
def small_highdim(rng):
    """A small (query, reference) pair in 12-D."""
    return rng.normal(size=(90, 12)), rng.normal(size=(110, 12))


@pytest.fixture
def clustered_2d(rng):
    """Two well-separated Gaussian clusters in 2-D, with labels."""
    a = rng.normal(loc=(-4.0, 0.0), scale=1.0, size=(80, 2))
    b = rng.normal(loc=(4.0, 0.0), scale=1.0, size=(80, 2))
    X = np.concatenate([a, b])
    y = np.array([0] * 80 + [1] * 80)
    return X, y


#: the tree kind deleted because it ran the kd-tree's splits and boxes
#: bit for bit; a tree-parametrised test keeps its ``ball`` column, which
#: pins that the same call is refused (no alias brings the kind back)
REMOVED_TREE = "ball"


def assert_tree_refused(call, *args, **kwargs):
    """``call(*args, **kwargs)`` names :data:`REMOVED_TREE` and is refused
    before any work: ``execute`` and ``compile`` raise the option table's
    ``SpecificationError``, the tree dispatcher its ``ValueError``; both
    name the two kinds that remain."""
    from repro.dsl.errors import SpecificationError

    with pytest.raises((SpecificationError, ValueError),
                       match=rf"unknown tree (kind )?'{REMOVED_TREE}'"
                             r".*'kd', 'octree'"):
        call(*args, **kwargs)


def uncacheable(op, query, reference, func, **params):
    """A two-layer program over ``query`` × ``reference`` whose reference
    layer carries a parameter with no content identity: it is never
    cached (``stats()["cache"]`` is ``None``), so it has no program token
    and a process run publishes its blocks for that run alone."""
    from repro.dsl import PortalExpr, PortalOp, Storage

    expr = PortalExpr("uncacheable")
    expr.addLayer(PortalOp.FORALL, Storage(query, name="query"))
    expr.addLayer(op, Storage(reference, name="reference"), func, **params)
    expr.layers[-1].params["opaque"] = object()
    return expr


#: the engine value retired when the batched engine absorbed the bound
#: form; only a policy entry stored before then can still name it
RETIRED_ENGINE = "bounded-batched"


@pytest.fixture
def stored_traversal(tmp_path, monkeypatch):
    """Rewrite run options that ask for :data:`RETIRED_ENGINE`.

    ``execute(traversal="bounded-batched")`` is a ``SpecificationError``;
    the value reaches a run only from a stored policy entry, whose
    ``traversal`` key no plan reads (the engine is no policy knob), so
    the run takes the static ``"batched"``.  So such a request is
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


@pytest.fixture
def refit_never_fails(monkeypatch):
    """Fail the test if a live-tree refit raised: the cache swallows the
    exception into ``cache.tree.refit_failed`` and rebuilds from scratch,
    so outputs stay right while the refit path goes untested."""
    from repro.backend import cache

    failures = []
    contribute = cache.contribute

    def watch(mapping):
        if mapping.get("cache.tree.refit_failed"):
            failures.append(traceback.format_exc())
        contribute(mapping)

    monkeypatch.setattr(cache, "contribute", watch)
    yield
    assert not failures, "live-tree refit raised:\n" + failures[0]
