"""Reference kernels against dense numpy arithmetic."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.sparse import (
    CooMatrix,
    coo_to_csc,
    coo_to_csr,
    spmm_csc_dense,
    spmm_csr_dense,
)
from repro.sparse import ops
from repro.sparse.ops import _FLAT_KERNEL_THRESHOLD


@pytest.fixture
def operands(rng):
    dense = rng.normal(size=(23, 17))
    dense[rng.random(dense.shape) > 0.3] = 0.0
    b = rng.normal(size=(17, 6))
    return dense, b


class TestSpmm:
    def test_csc_dense_matches_numpy(self, operands):
        dense, b = operands
        csc = coo_to_csc(CooMatrix.from_dense(dense))
        assert np.allclose(spmm_csc_dense(csc, b), dense @ b)

    def test_csr_dense_matches_numpy(self, operands):
        dense, b = operands
        csr = coo_to_csr(CooMatrix.from_dense(dense))
        assert np.allclose(spmm_csr_dense(csr, b), dense @ b)

    def test_csc_column_loop_kernel(self, operands, monkeypatch):
        # Force the large-matrix code path and check it agrees.
        dense, b = operands
        csc = coo_to_csc(CooMatrix.from_dense(dense))
        monkeypatch.setattr(ops, "_FLAT_KERNEL_THRESHOLD", 0)
        assert np.allclose(ops.spmm_csc_dense(csc, b), dense @ b)

    def test_empty_matrix(self):
        csc = coo_to_csc(CooMatrix.empty((4, 5)))
        out = spmm_csc_dense(csc, np.ones((5, 2)))
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_zero_columns_operand(self, operands):
        dense, _ = operands
        csc = coo_to_csc(CooMatrix.from_dense(dense))
        out = spmm_csc_dense(csc, np.zeros((17, 0)))
        assert out.shape == (23, 0)

    def test_shape_mismatch_raises(self, operands):
        dense, _ = operands
        csc = coo_to_csc(CooMatrix.from_dense(dense))
        with pytest.raises(ShapeError):
            spmm_csc_dense(csc, np.ones((99, 2)))

    def test_wrong_type_raises(self):
        with pytest.raises(ShapeError):
            spmm_csc_dense(np.ones((2, 2)), np.ones((2, 2)))

    def test_duplicate_accumulation_semantics(self):
        # Two entries on the same row accumulate into the same output row
        # through different columns — the RaW-hazard pattern in hardware.
        dense = np.array([[1.0, 2.0], [0.0, 0.0]])
        csc = coo_to_csc(CooMatrix.from_dense(dense))
        b = np.array([[10.0], [100.0]])
        assert np.allclose(spmm_csc_dense(csc, b), [[210.0], [0.0]])


class TestFlatKernelBoundary:
    """The two spmm_csc_dense kernels agree across the dispatch boundary.

    The flat scatter-add and the column-loop kernels must be drop-in
    replacements for each other; the property is checked by running the
    same operands with the module's ``_FLAT_KERNEL_THRESHOLD`` patched to
    each side of the actual ``nnz * k`` product (including exactly at
    it, which takes the flat path — the comparison is ``<=``).
    """

    @given(
        st.integers(1, 14),
        st.integers(1, 14),
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernels_agree_across_threshold(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(m, n))
        dense[rng.random((m, n)) > 0.4] = 0.0
        b = rng.normal(size=(n, k))
        csc = coo_to_csc(CooMatrix.from_dense(dense))
        work = csc.nnz * k
        with mock.patch.object(ops, "_FLAT_KERNEL_THRESHOLD", work):
            flat = spmm_csc_dense(csc, b)
        with mock.patch.object(ops, "_FLAT_KERNEL_THRESHOLD", work - 1):
            column_loop = spmm_csc_dense(csc, b)
        assert np.allclose(flat, column_loop)
        assert np.allclose(flat, dense @ b)

    def test_default_threshold_is_module_constant(self, operands,
                                                  monkeypatch):
        dense, b = operands
        csc = coo_to_csc(CooMatrix.from_dense(dense))
        expected = dense @ b
        # Patching the module constant still steers the default path.
        monkeypatch.setattr(ops, "_FLAT_KERNEL_THRESHOLD", 0)
        assert np.allclose(ops.spmm_csc_dense(csc, b), expected)
        monkeypatch.setattr(ops, "_FLAT_KERNEL_THRESHOLD", 10**12)
        assert np.allclose(ops.spmm_csc_dense(csc, b), expected)

