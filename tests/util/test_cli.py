"""Tests for the Portal command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.data import save_csv

PROGRAM = """
Storage query("query.csv");
Storage reference("reference.csv");
PortalExpr nn;
nn.addLayer(FORALL, query);
nn.addLayer(ARGMIN, reference, EUCLIDEAN);
nn.execute();
Storage output = nn.getOutput();
"""


@pytest.fixture
def setup(tmp_path):
    rng = np.random.default_rng(0)
    prog = tmp_path / "nn.portal"
    prog.write_text(PROGRAM)
    q = tmp_path / "q.csv"
    r = tmp_path / "r.csv"
    save_csv(q, rng.normal(size=(50, 3)))
    save_csv(r, rng.normal(size=(60, 3)))
    return str(prog), [f"--bind=query.csv={q}", f"--bind=reference.csv={r}"]


class TestCli:
    def test_run(self, setup, capsys):
        prog, binds = setup
        assert main(["run", prog, *binds]) == 0
        out = capsys.readouterr().out
        assert "== nn ==" in out and "values" in out

    def test_run_with_options(self, setup, capsys):
        prog, binds = setup
        assert main(["run", prog, *binds, "--option", "tree=ball",
                     "--option", "leaf_size=16"]) == 0

    def test_ir_stage(self, setup, capsys):
        prog, binds = setup
        assert main(["ir", prog, *binds, "--stage", "lowered"]) == 0
        out = capsys.readouterr().out
        assert "BaseCase" in out and "alloc storage0" in out

    def test_ir_disable_pass_and_verify(self, setup, capsys):
        # The dumped IR is always verified; --disable-pass changes the
        # dump, and run / stats no longer take the flag.
        prog, binds = setup
        assert main(["ir", prog, *binds, "--stage", "final", "--disable-pass",
                     "strength", "--disable-pass", "cse"]) == 0
        out = capsys.readouterr().out
        # Strength reduction skipped: pow survives to the final stage.
        assert "pow(" in out
        assert main(["ir", prog, *binds, "--stage", "final"]) == 0
        assert "pow(" not in capsys.readouterr().out
        for command in ("run", "stats"):
            with pytest.raises(SystemExit):
                main([command, prog, *binds, "--disable-pass", "cse"])
        with pytest.raises(SystemExit):
            main(["ir", prog, *binds, "--verify-ir"])

    def test_disable_pass_rejects_unknown(self, setup, capsys):
        prog, binds = setup
        with pytest.raises(SystemExit):
            main(["ir", prog, *binds, "--disable-pass", "nonsense"])

    def test_stats_reports_new_pass_timings(self, setup, capsys):
        # The interpreter reads the IR, so its run reports the passes.
        prog, binds = setup
        assert main(["stats", prog, *binds,
                     "--option", "backend=interp"]) == 0
        out = capsys.readouterr().out
        passes = next(l for l in out.splitlines() if "IR passes:" in l)
        for key in ("simplify", "cse", "dce", "verify"):
            assert key in passes

    def test_ir_generated(self, setup, capsys):
        prog, binds = setup
        assert main(["ir", prog, *binds, "--generated"]) == 0
        assert "_pairwise" in capsys.readouterr().out

    def test_explain(self, setup, capsys):
        prog, binds = setup
        assert main(["explain", prog, *binds]) == 0
        out = capsys.readouterr().out
        assert "category:  pruning" in out
        assert "rule:" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.portal"
        bad.write_text("Var q $")
        assert main(["run", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.portal"]) == 1

    def test_bad_option_format(self, setup):
        prog, binds = setup
        with pytest.raises(SystemExit):
            main(["run", prog, *binds, "--option", "nokey"])

    def test_bad_bind_format(self, setup):
        prog, _ = setup
        with pytest.raises(SystemExit):
            main(["run", prog, "--bind", "nopath"])


class TestCliStats:
    def test_stats(self, setup, capsys):
        prog, binds = setup
        assert main(["stats", prog, *binds]) == 0
        out = capsys.readouterr().out
        assert "== nn ==" in out
        assert "prune-rate:" in out
        assert "approximation-rate:" in out
        assert "IR passes:" in out
        plan = next(l for l in out.splitlines() if "plan:" in l)
        assert "engine=batched(static)" in plan
        assert "executor=serial(static)" in plan and "shards=1(" in plan

    def test_stats_json(self, setup, capsys):
        import json

        prog, binds = setup
        assert main(["stats", prog, *binds, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["programs"]["nn"]
        tr = stats["traversal"]
        assert tr["visited"] == (tr["pruned"] + tr["approximated"]
                                 + tr["recursions"] + tr["base_cases"])
        # A tree run never builds the IR: no pass ran, none is timed.
        assert stats["pass_timings_ms"] == {}
        assert set(stats["compile_timings_ms"]) == {
            "rules", "codegen", "tree_build"}
        assert payload["counters"]["compile.count"] == 1
        assert payload["counters"]["traversal.visited"] == tr["visited"]

    def test_stats_trace(self, setup, tmp_path, capsys):
        import json

        prog, binds = setup
        trace = tmp_path / "trace.jsonl"
        assert main(["stats", prog, *binds, "--trace", str(trace)]) == 0
        names = {json.loads(l)["name"]
                 for l in trace.read_text().splitlines()}
        assert "codegen" in names
        # A tree run never builds the IR.
        assert not any(n.startswith("ir.pass.") for n in names)

    def test_stats_respects_options(self, setup, capsys):
        prog, binds = setup
        assert main(["stats", prog, *binds, "--option",
                     "backend=brute"]) == 0
        out = capsys.readouterr().out
        assert "backend: brute" in out


class TestTuner:
    def test_tune_returns_best(self, monkeypatch):
        import time

        from repro.util import tune_leaf_size

        # Fake clock: tune_leaf_size times run() via time.perf_counter,
        # so a stepped counter makes the ranking deterministic.
        now = [0.0]
        monkeypatch.setattr(time, "perf_counter", lambda: now[0])
        calls = []

        def run(leaf):
            calls.append(leaf)
            now[0] += 0.001 if leaf == 64 else 0.005

        res = tune_leaf_size(run, candidates=(32, 64), repeats=1)
        assert res.best == 64
        assert set(res.timings) == {32, 64}
        assert res.timings[64] == pytest.approx(0.001)

    def test_tune_validation(self):
        from repro.util import tune_leaf_size

        with pytest.raises(ValueError):
            tune_leaf_size(lambda leaf: None, candidates=())
        with pytest.raises(ValueError):
            tune_leaf_size(lambda leaf: None, candidates=(0,), repeats=1)

    def test_tune_on_real_problem(self):
        from repro.problems import knn
        from repro.util import tune_leaf_size

        rng = np.random.default_rng(1)
        Q = rng.normal(size=(300, 3))
        res = tune_leaf_size(lambda leaf: knn(Q, k=1, leaf_size=leaf),
                             candidates=(16, 128), repeats=1)
        assert res.best in (16, 128)
