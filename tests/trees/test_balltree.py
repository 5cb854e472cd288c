"""The tree dispatcher and the surface that used to select a ball tree.

There are two tree kinds, the kd-tree and the octree.  The ball tree
ran the kd-tree's splits and boxes bit for bit and added sphere radii
nothing read, so it is gone.  These tests pin that nothing builds one
any more and that the point bounds it computed from spheres come from
the kd-tree's boxes, the dispatcher's two kinds, and that every
spelling which once picked a ball tree — ``execute``, the CLI's
``--option``, a served request's options — is a loud
:class:`SpecificationError` naming the allowed kinds, while a policy
store written when ``ball`` was a kind still loads, without its ``ball``
rows.
"""

import importlib.util

import numpy as np
import pytest

from repro.backend.plan import OPTION_TABLE, CompileOptions
from repro.cli import main
from repro.data import save_csv
from repro.dsl.errors import SpecificationError
from repro.observe import collect
from repro.policy import PolicyEntry, PolicyKey, PolicyStore, policy_key
from repro.problems import knn
import repro.trees
from repro.trees import build_tree

from tests.backend.test_plan import layers_for
from tests.conftest import REMOVED_TREE, assert_tree_refused
from tests.serve.test_frontend import (
    PROGRAM, _bindings, _connect, _with_frontend,
)
from tests.trees.test_geometry import _bounds

KINDS = ("kd", "octree")


class TestConstruction:
    def test_basic(self, rng):
        """No module, class or builder of a ball tree is left, and the
        dispatcher refuses the kind."""
        assert importlib.util.find_spec("repro.trees.balltree") is None
        for name in ("BallTree", "build_balltree"):
            assert not hasattr(repro.trees, name)
            assert name not in repro.trees.__all__
        assert_tree_refused(build_tree, REMOVED_TREE,
                            rng.normal(size=(100, 3)), leaf_size=10)

    def test_point_bounds_true(self, rng):
        """The point-to-node bounds the ball tree took from spheres are
        the emitted box bounds over the kd-tree's leaves (a point is a
        zero-width box)."""
        t = build_tree("kd", rng.normal(size=(50, 3)), leaf_size=5)
        x = rng.normal(size=3)
        for i in t.leaves():
            s, e = t.slice(i)
            d2 = ((t.points[s:e] - x) ** 2).sum(axis=1)
            mn, mx = _bounds("sqeuclidean", x, x, t.lo[i], t.hi[i])
            assert mn <= d2.min() + 1e-9
            assert d2.max() <= mx + 1e-9


class TestDispatcher:
    def test_build_tree_kinds(self, rng):
        X = rng.normal(size=(40, 3))
        for kind in KINDS:
            assert build_tree(kind, X).kind == kind

    def test_unknown_kind(self, rng):
        for kind in ("rtree", "ball"):
            with pytest.raises(ValueError, match="unknown tree kind"):
                build_tree(kind, rng.normal(size=(10, 2)))


class TestBallRejected:
    def test_option_table_allows_kd_and_octree(self):
        assert OPTION_TABLE["tree"].metadata["allowed"] == KINDS

    def test_execute(self, rng):
        Q, R = rng.normal(size=(10, 3)), rng.normal(size=(20, 3))
        with pytest.raises(SpecificationError,
                           match=r"unknown tree 'ball'.*\('kd', 'octree'\)"):
            knn(Q, R, k=2, tree="ball")

    def test_cli(self, rng, tmp_path, capsys):
        prog = tmp_path / "nn.portal"
        prog.write_text(PROGRAM + "nn.execute();\n")
        binds = []
        for name, n in (("q.csv", 10), ("r.csv", 20)):
            save_csv(tmp_path / name, rng.normal(size=(n, 3)))
            binds.append(f"--bind={name}={tmp_path / name}")
        assert main(["run", str(prog), *binds, "--option", "tree=ball"]) != 0
        err = capsys.readouterr().err
        assert "unknown tree 'ball'" in err and "('kd', 'octree')" in err

    def test_serve_request(self):
        Q, _, data = _bindings()

        async def scenario(fe):
            c = await _connect(fe)
            r = await c.rpc({"op": "register", "id": 1, "program": PROGRAM,
                             "data": data, "options": {"tree": "ball"}})
            assert not r["ok"] and r["error"]["type"] == "SpecificationError"
            assert "('kd', 'octree')" in r["error"]["message"]
            reg = await c.rpc({"op": "register", "id": 2,
                               "program": PROGRAM, "data": data})
            hid = reg["handle"]
            r = await c.rpc({"op": "query", "id": 3, "handle": hid,
                             "points": Q[:2].tolist(),
                             "options": {"tree": "ball"}})
            assert not r["ok"] and r["error"]["type"] == "SpecificationError"
            assert "('kd', 'octree')" in r["error"]["message"]
            # the connection and the handle stay usable
            r = await c.rpc({"op": "query", "id": 4, "handle": hid,
                             "points": Q[:2].tolist()})
            assert r["ok"] and r["rows"] == 2
            c.close()

        _with_frontend(scenario)

    def test_stored_policy_key_still_loads(self, tmp_path):
        """A store file holding a ``:ball:`` entry, written before the
        kind went, loads without it: the rest of the table survives, the
        dead row is counted, and the next save leaves it out of the
        file.  No key an execute derives names the kind."""
        path = str(tmp_path / "policy.json")
        config = {"executor": "serial", "leaf_size": 64}
        keys = {kind: PolicyKey(program_class="cafe0123", tree=kind,
                                nq_bucket=8, nr_bucket=9, dim=3, k=4)
                for kind in ("kd", "ball", "octree")}
        writer = PolicyStore(path)
        for kind in ("kd", "ball"):
            writer.put(keys[kind], PolicyEntry(config=dict(config)))

        with collect() as counters:
            store = PolicyStore(path)
            assert len(store) == 1
            assert store.get(keys["kd"]).config == config
        snap = counters.as_dict()
        assert "policy.load_failed" not in snap
        assert snap["policy.dropped_entries"] == 1
        assert ":ball:" in open(path).read()
        store.put(keys["octree"], PolicyEntry(config=dict(config)))
        text = open(path).read()
        assert ":ball:" not in text and ":kd:" in text
        layers = layers_for("knn")
        for kind in KINDS:
            assert policy_key(layers, CompileOptions(tree=kind)).tree == kind


@pytest.fixture
def rng():
    return np.random.default_rng(7)
