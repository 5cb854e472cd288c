"""Tests for the Storage data structure."""

import numpy as np
import pytest

from repro.dsl.errors import StorageError
from repro.dsl.storage import Storage


class TestConstruction:
    def test_from_array(self, rng):
        s = Storage(rng.normal(size=(10, 4)))
        assert s.n == 10 and s.dim == 4

    def test_from_list(self):
        s = Storage([[1.0, 2.0], [3.0, 4.0]])
        assert s.n == 2 and s.dim == 2

    def test_1d_promoted(self):
        s = Storage([1.0, 2.0, 3.0])
        assert s.n == 3 and s.dim == 1

    def test_from_storage_shares_data(self, rng):
        a = Storage(rng.normal(size=(5, 2)), name="a")
        b = Storage(a)
        assert b.data is a.data
        assert b.name == "a"

    def test_empty_rejected(self):
        with pytest.raises(StorageError, match="empty"):
            Storage(np.empty((0, 3)))

    def test_3d_rejected(self, rng):
        with pytest.raises(StorageError, match="2-D"):
            Storage(rng.normal(size=(2, 3, 4)))

    def test_nan_rejected(self):
        with pytest.raises(StorageError, match="NaN"):
            Storage([[1.0, np.nan]])

    def test_inf_rejected(self):
        with pytest.raises(StorageError):
            Storage([[np.inf, 1.0]])

    def test_weights_shape_checked(self, rng):
        with pytest.raises(StorageError, match="weights"):
            Storage(rng.normal(size=(5, 2)), weights=np.ones(4))

    def test_labels_shape_checked(self, rng):
        with pytest.raises(StorageError, match="labels"):
            Storage(rng.normal(size=(5, 2)), labels=np.zeros(6))


class TestCSV:
    def test_roundtrip(self, tmp_path, rng):
        data = rng.normal(size=(8, 3))
        path = tmp_path / "pts.csv"
        np.savetxt(path, data, delimiter=",")
        s = Storage(str(path))
        assert np.allclose(s.data, data)
        assert s.name == "pts"

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        s = Storage(str(path))
        assert s.n == 2

    def test_missing_file(self):
        with pytest.raises(StorageError, match="not found"):
            Storage("/nonexistent/file.csv")

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(StorageError, match="ragged"):
            Storage(str(path))

    def test_non_numeric_body_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1,2\nx,4\n")
        with pytest.raises(StorageError, match="non-numeric"):
            Storage(str(path))


class TestLifecycle:
    def test_clear_releases(self, rng):
        s = Storage(rng.normal(size=(4, 2)))
        s.clear()
        with pytest.raises(StorageError, match="clear"):
            _ = s.data
        with pytest.raises(StorageError):
            _ = s.n

    def test_repr_after_clear(self, rng):
        s = Storage(rng.normal(size=(4, 2)), name="x")
        s.clear()
        assert "cleared" in repr(s)

    def test_subset(self, rng):
        s = Storage(rng.normal(size=(10, 2)), weights=np.arange(10.0))
        sub = s.subset([1, 3, 5])
        assert sub.n == 3
        assert np.array_equal(sub.weights, [1.0, 3.0, 5.0])

    def test_len(self, rng):
        assert len(Storage(rng.normal(size=(7, 2)))) == 7


@pytest.fixture
def rng():
    return np.random.default_rng(1)
