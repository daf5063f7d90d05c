"""Unit tests for window descriptors and the window algebra."""

import numpy as np
import pytest

from repro.errors import WindowError
from repro.sysvm import ArrayHandle
from repro.langvm import Window, block, col, row, vec, whole


def handle(shape, aid=1):
    return ArrayHandle(aid, shape, "float64", cluster=0, owner_task=None)


class TestConstruction:
    def test_whole_2d(self):
        w = whole(handle((4, 6)))
        assert w.shape == (4, 6)
        assert w.words == 24

    def test_whole_1d(self):
        w = whole(handle((10,)))
        assert w.shape == (1, 10)
        assert w.words == 10

    def test_row_col_block_kinds(self):
        h = handle((4, 6))
        assert row(h, 2).shape == (1, 6)
        assert col(h, 3).shape == (4, 1)
        assert block(h, (1, 3), (2, 4)).shape == (2, 2)

    def test_vec_window(self):
        w = vec(handle((10,)), 2, 7)
        assert w.words == 5

    def test_vec_requires_1d(self):
        with pytest.raises(WindowError):
            vec(handle((3, 3)), 0, 2)

    def test_out_of_bounds_rejected(self):
        h = handle((4, 6))
        with pytest.raises(WindowError):
            Window(h, (0, 5), (0, 6))
        with pytest.raises(WindowError):
            Window(h, (2, 2), (0, 6))  # empty range
        with pytest.raises(WindowError):
            Window(h, (-1, 2), (0, 6))

    def test_3d_arrays_rejected(self):
        with pytest.raises(WindowError):
            whole(handle((2, 2, 2)))

    def test_descriptor_size_is_constant(self):
        assert whole(handle((100, 100))).size_words() == 8


class TestAccess:
    def test_read_block(self):
        arr = np.arange(24.0).reshape(4, 6)
        w = block(handle((4, 6)), (1, 3), (2, 4))
        assert np.array_equal(w.read_from(arr), arr[1:3, 2:4])

    def test_read_returns_copy(self):
        arr = np.zeros((4, 6))
        w = whole(handle((4, 6)))
        out = w.read_from(arr)
        out[0, 0] = 99
        assert arr[0, 0] == 0

    def test_write_and_accumulate(self):
        arr = np.ones((4, 6))
        w = block(handle((4, 6)), (0, 2), (0, 3))
        w.write_to(arr, np.full((2, 3), 5.0))
        assert arr[0, 0] == 5 and arr[3, 5] == 1
        w.write_to(arr, np.full((2, 3), 2.0), accumulate=True)
        assert arr[0, 0] == 7

    def test_write_reshapes_flat_data(self):
        arr = np.zeros((2, 2))
        w = whole(handle((2, 2)))
        w.write_to(arr, [1.0, 2.0, 3.0, 4.0])
        assert arr[1, 1] == 4

    def test_1d_access(self):
        arr = np.arange(10.0)
        w = vec(handle((10,)), 3, 6)
        assert list(w.read_from(arr)) == [3, 4, 5]
        w.write_to(arr, [0, 0, 0])
        assert arr[4] == 0


class TestAlgebra:
    def test_split_rows_partitions_exactly(self):
        w = whole(handle((10, 4)))
        parts = w.split_rows(3)
        assert len(parts) == 3
        assert sum(p.shape[0] for p in parts) == 10
        # contiguous, ordered, disjoint
        assert parts[0].rows[1] == parts[1].rows[0]

    def test_split_more_parts_than_rows(self):
        w = whole(handle((2, 4)))
        assert len(w.split_rows(5)) == 2

    def test_split_cols_of_vector(self):
        w = whole(handle((10,)))
        parts = w.split_cols(4)
        assert sum(p.words for p in parts) == 10

    def test_split_invalid(self):
        with pytest.raises(WindowError):
            whole(handle((4, 4))).split_rows(0)

    def test_windows_are_values(self):
        """Windows are immutable, hashable values — transmissible as
        parameters and storable in variables."""
        h = handle((4, 4))
        w1, w2 = row(h, 1), row(h, 1)
        assert w1 == w2
        assert hash(w1) == hash(w2)
        with pytest.raises(AttributeError):
            w1.rows = (0, 1)
