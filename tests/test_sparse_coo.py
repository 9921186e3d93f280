"""COO format: canonicalization, invariants, views."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.sparse import CooMatrix


def _identity(n):
    """The ``n x n`` identity, built as a diagonal COO matrix."""
    idx = np.arange(n)
    return CooMatrix((n, n), idx, idx, np.ones(n))


class TestConstruction:
    def test_round_trip_dense(self, small_dense):
        coo = CooMatrix.from_dense(small_dense)
        assert np.array_equal(coo.to_dense(), small_dense)

    def test_duplicates_are_summed(self):
        coo = CooMatrix((2, 2), [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
        assert coo.nnz == 2
        assert coo.to_dense()[0, 1] == 5.0

    def test_explicit_zeros_dropped(self):
        coo = CooMatrix((2, 2), [0, 1], [0, 1], [0.0, 1.0])
        assert coo.nnz == 1

    def test_canonical_ordering_row_major(self):
        coo = CooMatrix((3, 3), [2, 0, 1, 0], [0, 2, 1, 0], [1, 2, 3, 4])
        rows = coo.rows.tolist()
        cols = coo.cols.tolist()
        keys = [r * 3 + c for r, c in zip(rows, cols)]
        assert keys == sorted(keys)

    def test_cancelling_duplicates_removed(self):
        coo = CooMatrix((2, 2), [0, 0], [0, 0], [1.0, -1.0])
        assert coo.nnz == 0

    def test_out_of_range_row_raises(self):
        with pytest.raises(FormatError):
            CooMatrix((2, 2), [2], [0], [1.0])

    def test_out_of_range_col_raises(self):
        with pytest.raises(FormatError):
            CooMatrix((2, 2), [0], [-1], [1.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(FormatError):
            CooMatrix((2, 2), [0, 1], [0], [1.0])

    def test_negative_shape_raises(self):
        with pytest.raises(ShapeError):
            CooMatrix((-1, 2), [], [], [])

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ShapeError):
            CooMatrix.from_dense(np.ones(4))


class TestViews:
    def test_row_nnz_matches_dense(self, small_dense, small_coo):
        expected = (small_dense != 0).sum(axis=1)
        assert np.array_equal(small_coo.row_nnz(), expected)

    def test_col_nnz_matches_dense(self, small_dense, small_coo):
        expected = (small_dense != 0).sum(axis=0)
        assert np.array_equal(small_coo.col_nnz(), expected)

    def test_density(self):
        coo = CooMatrix((2, 5), [0, 1], [0, 4], [1.0, 1.0])
        assert coo.density == pytest.approx(0.2)

    def test_density_empty_shape(self):
        assert CooMatrix.empty((0, 0)).density == 0.0

    def test_identity(self):
        eye = _identity(4)
        assert np.array_equal(eye.to_dense(), np.eye(4))

    def test_empty(self):
        empty = CooMatrix.empty((3, 4))
        assert empty.nnz == 0
        assert empty.to_dense().shape == (3, 4)


class TestSemantics:
    def test_equality(self, small_dense):
        a = CooMatrix.from_dense(small_dense)
        b = CooMatrix.from_dense(small_dense)
        assert a == b

    def test_inequality_different_values(self, small_dense):
        a = CooMatrix.from_dense(small_dense)
        b = CooMatrix(a.shape, a.rows, a.cols, a.vals * 2.0)
        assert a != b

    def test_immutable(self, small_coo):
        with pytest.raises(AttributeError):
            small_coo.shape = (1, 1)

    def test_repr_mentions_shape_and_nnz(self, small_coo):
        text = repr(small_coo)
        assert str(small_coo.nnz) in text
        assert str(small_coo.shape) in text
