"""Tests for runtime accumulator state allocation and finalisation."""

import numpy as np
import pytest

from repro.backend.state import Output, allocate_state
from repro.dsl.errors import CompileError
from repro.dsl.ops import PortalOp


class TestAllocation:
    def test_argmin(self):
        st = allocate_state(PortalOp.FORALL, PortalOp.ARGMIN, None, 10, 20)
        assert st.arrays["best"].shape == (10,)
        assert np.all(np.isinf(st.arrays["best"]))
        assert st.arrays["best_idx"].shape == (10,)

    def test_kargmin(self):
        st = allocate_state(PortalOp.FORALL, PortalOp.KARGMIN, 3, 10, 20)
        assert st.arrays["best"].shape == (10, 3)
        assert st.arrays["best_idx"].shape == (10, 3)

    def test_sum(self):
        st = allocate_state(PortalOp.FORALL, PortalOp.SUM, None, 10, 20)
        assert np.all(st.arrays["acc"] == 0.0)

    def test_prod_identity(self):
        st = allocate_state(PortalOp.FORALL, PortalOp.PROD, None, 10, 20)
        assert np.all(st.arrays["acc"] == 1.0)

    def test_max_identity(self):
        st = allocate_state(PortalOp.FORALL, PortalOp.MAX, None, 10, 20)
        assert np.all(np.isneginf(st.arrays["best"]))

    def test_union_lists(self):
        st = allocate_state(PortalOp.FORALL, PortalOp.UNIONARG, None, 10, 20)
        assert len(st.lists) == 10

    def test_inner_forall_dense(self):
        st = allocate_state(PortalOp.FORALL, PortalOp.FORALL, None, 10, 20)
        assert st.arrays["dense"].shape == (10, 20)

    def test_unsupported_rejected(self):
        class Fake:
            name = "FAKE"

        with pytest.raises(CompileError):
            allocate_state(PortalOp.FORALL, Fake(), None, 5, 5)


class TestFinalize:
    def test_permutation_mapping(self):
        st = allocate_state(PortalOp.FORALL, PortalOp.ARGMIN, None, 4, 4)
        st.arrays["best"][:] = [10.0, 11.0, 12.0, 13.0]
        st.arrays["best_idx"][:] = [0, 1, 2, 3]
        qperm = np.array([2, 0, 3, 1])  # permuted[i] = original[qperm[i]]
        rperm = np.array([1, 3, 0, 2])
        out = st.finalize(qperm, rperm)
        # original index 2 sits at permuted position 0 -> value 10.
        assert out.values[2] == 10.0
        assert out.indices[2] == rperm[0]

    def test_outer_sum_scalar(self):
        st = allocate_state(PortalOp.SUM, PortalOp.SUM, None, 3, 5)
        st.arrays["acc"][:] = [1.0, 2.0, 3.0]
        out = st.finalize(np.arange(3), None)
        assert out.scalar == 6.0

    def test_outer_max_scalar(self):
        st = allocate_state(PortalOp.MAX, PortalOp.MIN, None, 3, 5)
        st.arrays["best"][:] = [1.0, 5.0, 3.0]
        out = st.finalize(np.arange(3), None)
        assert out.scalar == 5.0

    def test_modifier_applied_before_outer_reduce(self):
        st = allocate_state(PortalOp.SUM, PortalOp.SUM, None, 3, 5,
                            modifier=np.log)
        st.arrays["acc"][:] = [np.e, np.e, np.e]
        out = st.finalize(np.arange(3), None)
        assert out.scalar == pytest.approx(3.0)

    def test_union_lists_mapped(self):
        st = allocate_state(PortalOp.FORALL, PortalOp.UNIONARG, None, 2, 4)
        st.lists[0].append(np.array([0, 1]))
        st.lists[1].append(np.array([2]))
        qperm = np.array([1, 0])
        rperm = np.array([3, 2, 1, 0])
        out = st.finalize(qperm, rperm)
        # original query 1 was permuted position 0 -> refs {0,1} -> rperm {3,2}
        assert sorted(out.indices[1].tolist()) == [2, 3]
        assert sorted(out.indices[0].tolist()) == [1]

    def test_empty_union_entries(self):
        st = allocate_state(PortalOp.FORALL, PortalOp.UNIONARG, None, 2, 4)
        out = st.finalize(np.arange(2), np.arange(4))
        assert all(len(ix) == 0 for ix in out.indices)

    def test_repr(self):
        st = allocate_state(PortalOp.SUM, PortalOp.SUM, None, 2, 2)
        st.arrays["acc"][:] = 1.0
        out = st.finalize(np.arange(2), None)
        assert "scalar" in repr(out)

    def test_repr_of_list_values_counts_rows(self):
        """``UNION`` rows are lists: ragged ones have no array shape, and
        equal-length ones must not be shown as a 2-D array."""
        ragged = Output(values=[np.arange(3), np.arange(1)])
        assert repr(ragged) == "Output(values.rows=2)"
        even = Output(values=[np.arange(3), np.arange(3)])
        assert repr(even) == "Output(values.rows=2)"
        assert repr(Output(values=np.zeros((2, 3)))) == \
            "Output(values.shape=(2, 3))"


@pytest.mark.parametrize("options", [
    {}, {"traversal": "stack"}, {"backend": "brute"}, {"shards": 2},
    {"parallel": True, "executor": "process", "workers": 2},
], ids=["default", "stack", "brute", "shards", "process"])
def test_unfilled_k_slots_stay_minus_one(options):
    """A 6-point self-join with k = 6 has five valid neighbours per row
    (self pairs are excluded by default): the sixth slot is the -1
    sentinel at distance inf on every path — never ``rperm[-1]``, a real
    point (for one row, the query itself)."""
    from repro.dsl import PortalExpr, PortalFunc, Storage

    data = Storage(np.random.default_rng(6).normal(size=(6, 3)), name="data")
    e = PortalExpr("knn")
    e.addLayer(PortalOp.FORALL, data)
    e.addLayer((PortalOp.KARGMIN, 6), data, PortalFunc.EUCLIDEAN)
    out = e.execute(**options)
    assert np.array_equal(out.indices[:, 5], np.full(6, -1))
    assert np.all(np.isinf(out.values[:, 5]))
    others = np.sort(out.indices[:, :5], axis=1)
    for row in range(6):
        assert others[row].tolist() == [i for i in range(6) if i != row]
