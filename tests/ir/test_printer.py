"""Tests for the IR pretty-printer (Fig 2/3 regeneration)."""

import numpy as np
import pytest

from repro.dsl import PortalExpr, PortalFunc, PortalOp, Storage
from repro.ir.printer import render_function, render_program, render_stages


@pytest.fixture
def nn_program(rng):
    e = PortalExpr("nn")
    e.addLayer(PortalOp.FORALL, Storage(rng.normal(size=(20, 3)), name="query"))
    e.addLayer(PortalOp.ARGMIN, Storage(rng.normal(size=(25, 3)),
                                        name="reference"),
               PortalFunc.EUCLIDEAN)
    return e.compile()


@pytest.fixture
def rng():
    return np.random.default_rng(10)


class TestRenderFunction:
    def test_header_and_loops(self, nn_program):
        text = render_function(nn_program.ir().stage("lowered")["BaseCase"])
        assert text.startswith("BaseCase(query, reference):")
        assert "for" in text and "..." in text

    def test_storage_injection_comments(self, nn_program):
        text = render_function(nn_program.ir().stage("lowered")["BaseCase"])
        assert "/* Storage injection for outer layer */" in text
        assert "alloc storage0[query.size]" in text

    def test_strength_reduction_visible(self, nn_program):
        low = render_function(nn_program.ir().stage("lowered")["BaseCase"])
        final = render_function(nn_program.ir().stage("final")["BaseCase"])
        assert "pow(" in low
        assert "pow(" not in final          # chained multiply now
        assert "sqrt(" in final             # exact: no fast_inverse_sqrt
        assert "fast_inverse_sqrt" not in final

    def test_flattening_visible(self, nn_program):
        low = render_function(nn_program.ir().stage("lowered")["BaseCase"])
        flat = render_function(
            nn_program.ir().stage("flattened")["BaseCase"])
        import re

        assert re.search(r"load\(query_data,\w+,d\)", low.replace(" ", ""))
        assert "stride" in flat

    def test_prune_renders_return(self, nn_program):
        text = render_function(nn_program.ir().stage("final")["PruneApprox"])
        assert "return" in text and "node_bound" in text

    def test_compute_approx_zero_for_pruning(self, nn_program):
        text = render_function(
            nn_program.ir().stage("final")["ComputeApprox"])
        assert "pruning problem" in text
        assert "return 0" in text


class TestRenderProgram:
    def test_three_functions(self, nn_program):
        text = render_program(nn_program.ir().stage("final"))
        assert "BaseCase(" in text
        assert "PruneApprox(" in text
        assert "ComputeApprox(" in text

    def test_stage_dump_contains_all_stages(self, nn_program):
        text = render_stages(nn_program.ir().snapshots)
        for stage in ("lowered", "flattened", "numopt", "strength", "final"):
            assert f"=== stage: {stage}" in text
