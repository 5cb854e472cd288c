"""Tests for PortalExpr validation and lifecycle."""

import numpy as np
import pytest

from repro.dsl import (
    PortalExpr, PortalFunc, PortalOp, SpecificationError, Storage,
)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


@pytest.fixture
def stores(rng):
    return (Storage(rng.normal(size=(30, 3)), name="q"),
            Storage(rng.normal(size=(40, 3)), name="r"))


class TestValidation:
    def test_single_layer_rejected(self, stores):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, stores[0])
        with pytest.raises(SpecificationError, match="two layers"):
            e.validate()

    def test_zero_layers_rejected(self):
        with pytest.raises(SpecificationError):
            PortalExpr().validate()

    def test_missing_kernel_rejected(self, stores):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, stores[0])
        e.addLayer(PortalOp.ARGMIN, stores[1])
        with pytest.raises(SpecificationError, match="kernel"):
            e.validate()

    def test_dim_mismatch_rejected(self, rng, stores):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, stores[0])
        e.addLayer(PortalOp.ARGMIN, Storage(rng.normal(size=(10, 5))),
                   PortalFunc.EUCLIDEAN)
        with pytest.raises(SpecificationError, match="dimensionality"):
            e.validate()

    def test_valid_program_passes(self, stores):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, stores[0])
        e.addLayer(PortalOp.ARGMIN, stores[1], PortalFunc.EUCLIDEAN)
        e.validate()
        assert e.layers[1].metric_kernel is not None

    def test_vars_autofilled(self, stores):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, stores[0])
        e.addLayer(PortalOp.ARGMIN, stores[1], PortalFunc.EUCLIDEAN)
        e.validate()
        assert all(l.var is not None for l in e.layers)


class TestLifecycle:
    def test_output_before_execute_raises(self, stores):
        e = PortalExpr()
        with pytest.raises(SpecificationError):
            e.getOutput()

    def test_program_before_compile_raises(self):
        with pytest.raises(SpecificationError):
            _ = PortalExpr().program

    def test_execute_sets_output(self, stores):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, stores[0])
        e.addLayer(PortalOp.ARGMIN, stores[1], PortalFunc.EUCLIDEAN)
        out = e.execute()
        assert e.getOutput() is out
        assert out.values.shape == (30,)

    def test_unknown_option_rejected(self, stores):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, stores[0])
        e.addLayer(PortalOp.ARGMIN, stores[1], PortalFunc.EUCLIDEAN)
        with pytest.raises(SpecificationError, match="unknown execute"):
            e.execute(bogus=True)

    def test_describe_lists_layers(self, stores):
        e = PortalExpr("nn")
        e.addLayer(PortalOp.FORALL, stores[0])
        e.addLayer(PortalOp.ARGMIN, stores[1], PortalFunc.EUCLIDEAN)
        text = e.describe()
        assert "FORALL" in text and "ARGMIN" in text

    def test_ir_dump_accessible_after_compile(self, stores):
        e = PortalExpr()
        e.addLayer(PortalOp.FORALL, stores[0])
        e.addLayer(PortalOp.ARGMIN, stores[1], PortalFunc.EUCLIDEAN)
        e.compile()
        assert "BaseCase" in e.ir_dump("lowered")
        assert "def base_case(" in e.generated_source()

    def test_snake_case_aliases(self, stores):
        e = PortalExpr()
        e.add_layer(PortalOp.FORALL, stores[0])
        e.add_layer(PortalOp.ARGMIN, stores[1], PortalFunc.EUCLIDEAN)
        e.execute()
        assert e.get_output() is not None
