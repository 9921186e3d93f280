"""Property-based tests for the sparse substrate (hypothesis).

The oracle is scipy; the properties are round-trip identity, value
conservation under canonicalization, and kernel agreement.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sparse import (
    CooMatrix,
    coo_to_csc,
    coo_to_csr,
    spmm_csc_dense,
    spmm_csr_dense,
)
from sparse_helpers import csr_to_dense


@st.composite
def sparse_dense_pairs(draw):
    """A random sparse-ish dense matrix."""
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 12))
    dense = draw(
        hnp.arrays(
            dtype=np.float64,
            shape=(n_rows, n_cols),
            elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.0, 0.5, 3.0]),
        )
    )
    return dense


@st.composite
def coo_triples(draw):
    """Raw (possibly duplicated, unsorted) COO triples."""
    n_rows = draw(st.integers(1, 10))
    n_cols = draw(st.integers(1, 10))
    nnz = draw(st.integers(0, 30))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-5, 5, allow_nan=False), min_size=nnz, max_size=nnz
        )
    )
    return (n_rows, n_cols), rows, cols, vals


@settings(max_examples=60, deadline=None)
@given(sparse_dense_pairs())
def test_dense_round_trip(dense):
    coo = CooMatrix.from_dense(dense)
    assert np.array_equal(coo.to_dense(), dense)
    assert np.array_equal(csr_to_dense(coo_to_csr(coo)), dense)
    assert np.array_equal(coo_to_csc(coo).to_dense(), dense)


@settings(max_examples=60, deadline=None)
@given(coo_triples())
def test_canonicalization_matches_scipy(triple):
    shape, rows, cols, vals = triple
    ours = CooMatrix(shape, rows, cols, vals)
    theirs = sp.coo_matrix((vals, (rows, cols)), shape=shape).toarray()
    assert np.allclose(ours.to_dense(), theirs)


@settings(max_examples=60, deadline=None)
@given(coo_triples())
def test_format_conversions_preserve_matrix(triple):
    shape, rows, cols, vals = triple
    coo = CooMatrix(shape, rows, cols, vals)
    csr = coo_to_csr(coo)
    assert CooMatrix(shape, csr.expand_rows(), csr.col_ids, csr.vals) == coo
    csc = coo_to_csc(coo)
    assert CooMatrix(shape, csc.row_ids, csc.expand_cols(), csc.vals) == coo


@settings(max_examples=40, deadline=None)
@given(sparse_dense_pairs(), st.integers(1, 5))
def test_spmm_kernels_agree_with_numpy(dense, k):
    rng = np.random.default_rng(dense.shape[0] * 31 + dense.shape[1])
    b = rng.normal(size=(dense.shape[1], k))
    coo = CooMatrix.from_dense(dense)
    expected = dense @ b
    assert np.allclose(spmm_csc_dense(coo_to_csc(coo), b), expected)
    assert np.allclose(spmm_csr_dense(coo_to_csr(coo), b), expected)


@settings(max_examples=40, deadline=None)
@given(coo_triples())
def test_row_col_nnz_consistency(triple):
    shape, rows, cols, vals = triple
    coo = CooMatrix(shape, rows, cols, vals)
    assert coo.row_nnz().sum() == coo.nnz
    assert coo.col_nnz().sum() == coo.nnz
    transposed = CooMatrix(shape[::-1], coo.cols, coo.rows, coo.vals)
    assert np.array_equal(transposed.row_nnz(), coo.col_nnz())
