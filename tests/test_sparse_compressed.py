"""CSR and CSC formats: invariants and accessors."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.sparse import (
    CooMatrix,
    CscMatrix,
    CsrMatrix,
    coo_to_csc,
    coo_to_csr,
)
from sparse_helpers import csr_to_dense


@pytest.fixture
def csr(small_coo):
    return coo_to_csr(small_coo)


@pytest.fixture
def csc(small_coo):
    return coo_to_csc(small_coo)


class TestCsrInvariants:
    def test_indptr_length(self, csr):
        assert csr.indptr.size == csr.shape[0] + 1

    def test_indptr_ends_at_nnz(self, csr):
        assert csr.indptr[-1] == csr.nnz

    def test_bad_indptr_length_raises(self):
        with pytest.raises(FormatError):
            CsrMatrix((2, 2), [0, 1], [0], [1.0])

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(FormatError):
            CsrMatrix((2, 2), [1, 1, 1], [0], [1.0])

    def test_decreasing_indptr_raises(self):
        with pytest.raises(FormatError):
            CsrMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_col_out_of_range_raises(self):
        with pytest.raises(FormatError):
            CsrMatrix((2, 2), [0, 1, 2], [0, 5], [1.0, 2.0])

    def test_unsorted_cols_within_row_raises(self):
        with pytest.raises(FormatError):
            CsrMatrix((1, 3), [0, 2], [2, 0], [1.0, 2.0])

    def test_duplicate_cols_within_row_raises(self):
        with pytest.raises(FormatError):
            CsrMatrix((1, 3), [0, 2], [1, 1], [1.0, 2.0])

    def test_boundary_descent_is_allowed(self):
        # Column index may drop across a row boundary.
        mat = CsrMatrix((2, 3), [0, 2, 3], [1, 2, 0], [1.0, 2.0, 3.0])
        assert mat.nnz == 3

    def test_indptr_must_match_nnz(self):
        with pytest.raises(FormatError):
            CsrMatrix((1, 3), [0, 3], [0, 1], [1.0, 2.0])


class TestCsrAccessors:
    def test_dense_round_trip(self, small_dense, csr):
        assert np.array_equal(csr_to_dense(csr), small_dense)

    def test_row_nnz(self, small_dense, csr):
        assert np.array_equal(csr.row_nnz(), (small_dense != 0).sum(axis=1))

    def test_row_slice(self, small_dense, csr):
        for row in range(small_dense.shape[0]):
            lo, hi = csr.indptr[row], csr.indptr[row + 1]
            cols, vals = csr.col_ids[lo:hi], csr.vals[lo:hi]
            expected_cols = np.nonzero(small_dense[row])[0]
            assert np.array_equal(cols, expected_cols)
            assert np.allclose(vals, small_dense[row, expected_cols])

    def test_expand_rows_length(self, csr):
        assert csr.expand_rows().size == csr.nnz

    def test_immutable(self, csr):
        with pytest.raises(AttributeError):
            csr.shape = (1, 1)


class TestCscInvariants:
    def test_indptr_length(self, csc):
        assert csc.indptr.size == csc.shape[1] + 1

    def test_dense_round_trip(self, small_dense, csc):
        assert np.array_equal(csc.to_dense(), small_dense)

    def test_row_out_of_range_raises(self):
        with pytest.raises(FormatError):
            CscMatrix((2, 2), [0, 1, 2], [0, 9], [1.0, 2.0])

    def test_unsorted_rows_within_col_raises(self):
        with pytest.raises(FormatError):
            CscMatrix((3, 1), [0, 2], [2, 0], [1.0, 2.0])

    def test_col_nnz(self, small_dense, csc):
        assert np.array_equal(csc.col_nnz(), (small_dense != 0).sum(axis=0))

    def test_row_nnz(self, small_dense, csc):
        assert np.array_equal(csc.row_nnz(), (small_dense != 0).sum(axis=1))

    def test_col_slice(self, small_dense, csc):
        for col in range(small_dense.shape[1]):
            lo, hi = csc.indptr[col], csc.indptr[col + 1]
            rows, vals = csc.row_ids[lo:hi], csc.vals[lo:hi]
            expected_rows = np.nonzero(small_dense[:, col])[0]
            assert np.array_equal(rows, expected_rows)
            assert np.allclose(vals, small_dense[expected_rows, col])

    def test_expand_cols_matches_fig4(self):
        # The Fig. 4 example from the paper.
        dense = np.array(
            [
                [1.0, 0, 6, 0, 9],
                [0, 0, 0, 2, 0],
                [0, 0, 0, 0, 7],
                [3, 0, 0, 0, 0],
                [0, 5, 0, 3, 0],
            ]
        )
        csc = coo_to_csc(CooMatrix.from_dense(dense))
        assert csc.vals.tolist() == [1, 3, 5, 6, 2, 3, 9, 7]
        assert csc.row_ids.tolist() == [0, 3, 4, 0, 1, 4, 0, 2]
        assert csc.indptr.tolist() == [0, 2, 3, 4, 6, 8]
