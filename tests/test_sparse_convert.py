"""Format conversions: COO to the compressed formats, entry for entry."""

import numpy as np

from repro.sparse import CooMatrix, coo_to_csc, coo_to_csr
from sparse_helpers import csr_to_dense


class TestRoundTrips:
    def test_coo_csr_coo(self, small_coo):
        csr = coo_to_csr(small_coo)
        back = CooMatrix(csr.shape, csr.expand_rows(), csr.col_ids, csr.vals)
        assert back == small_coo

    def test_coo_csc_coo(self, small_coo):
        csc = coo_to_csc(small_coo)
        back = CooMatrix(csc.shape, csc.row_ids, csc.expand_cols(), csc.vals)
        assert back == small_coo

    def test_empty_matrix(self):
        empty = CooMatrix.empty((4, 6))
        assert coo_to_csr(empty).nnz == 0
        assert coo_to_csc(empty).nnz == 0
        csr = coo_to_csr(empty)
        back = CooMatrix(csr.shape, csr.expand_rows(), csr.col_ids, csr.vals)
        assert back == empty

    def test_single_row_matrix(self):
        coo = CooMatrix((1, 5), [0, 0], [1, 3], [2.0, 4.0])
        assert np.array_equal(
            coo_to_csc(coo).to_dense(), coo.to_dense()
        )

    def test_single_col_matrix(self):
        coo = CooMatrix((5, 1), [1, 3], [0, 0], [2.0, 4.0])
        assert np.array_equal(
            csr_to_dense(coo_to_csr(coo)), coo.to_dense()
        )

