"""Golden IR tests: pin the printed IR of each evaluated problem after
every pass stage of the optimisation pipeline.

The goldens make pass changes reviewable — a pipeline edit shows up as a
readable textual diff instead of a silent behaviour change.  Regenerate
with::

    PYTHONPATH=src python -m pytest tests/ir/test_golden_ir.py --update-golden
"""

from pathlib import Path

import numpy as np
import pytest

from repro.ir.lowering import lower
from repro.ir.passes import PIPELINE_STAGES, PassManager
from repro.ir.printer import render_program
from repro.rules import build_rules

from tests.backend.test_differential import make_problem

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The nine evaluated problems (naive_bayes lowers identically to kde up
# to the bandwidth constant, so it adds no distinct golden).
PROBLEMS = ["knn", "nearest", "kde", "range_search", "range_count",
            "hausdorff", "two_point", "em", "barnes_hut"]

SEED = 101


def _pipeline_dump(name: str) -> str:
    build, _, _ = make_problem(name, SEED)
    e = build()
    e.validate()
    kernel = e.layers[-1].metric_kernel
    cls, rule = build_rules(e.layers, kernel)
    lowered = lower(e.layers, kernel, cls, rule, name)
    pm = PassManager(verify=True)
    pm.run(lowered)
    chunks = []
    for stage in PIPELINE_STAGES:
        prog = pm.snapshots[stage]
        chunks.append(f"=== stage: {stage} " + "=" * 40)
        chunks.append(render_program(prog))
        chunks.append("")
    return "\n".join(chunks)


@pytest.mark.parametrize("name", PROBLEMS)
def test_golden_ir(name, request):
    dump = _pipeline_dump(name)
    path = GOLDEN_DIR / f"{name}.ir"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(dump)
        pytest.skip(f"updated {path.name}")
    assert path.exists(), (
        f"missing golden {path}; run with --update-golden to create it"
    )
    expected = path.read_text()
    assert dump == expected, (
        f"IR pipeline output for {name!r} drifted from {path.name}; "
        "inspect the diff and re-run with --update-golden if intended"
    )


def test_dump_is_deterministic():
    # Same seed, two fresh compilations: the printed pipeline must be
    # byte-identical, otherwise the goldens would flake.
    assert _pipeline_dump("kde") == _pipeline_dump("kde")


def test_golden_covers_all_stages():
    dump = _pipeline_dump("knn")
    for stage in PIPELINE_STAGES:
        assert f"=== stage: {stage} " in dump
