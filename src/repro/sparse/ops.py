"""Reference sparse kernels used as the numerical oracle.

These kernels define *what* the accelerator computes; the simulators in
:mod:`repro.hw` and :mod:`repro.accel` define *how fast*. The SPMM kernel
``spmm_csc_dense`` mirrors the paper's Eq. 4 formulation: the resulting
matrix ``C`` is assembled column-of-A by column-of-A, broadcasting
``b[j, k]`` over column ``j`` of ``A``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.csc import CscMatrix
from repro.sparse.csr import CsrMatrix

# Up to this many (nnz * k) products SPMM runs one flat scatter-add,
# which allocates an (nnz, k) temporary but avoids the Python-level loop
# over columns; above it, the column loop bounds the temporary.
_FLAT_KERNEL_THRESHOLD = 2_000_000


def spmm_csc_dense(a_csc, b_dense):
    """Multiply ``A (CSC, m x n) @ B (dense, n x k)`` -> dense ``(m, k)``.

    This is the computation TDQ-2 performs in hardware: for each column
    ``j`` of ``A`` and each round ``k``, broadcast ``b[j, k]`` to all
    non-zeros of column ``j`` and accumulate into the rows of ``C``
    (paper Eq. 4 and Fig. 5).

    ``_FLAT_KERNEL_THRESHOLD`` picks the kernel: the flat scatter-add
    when ``nnz * k`` is at or below it, the column loop above it. Both
    compute the same sums in the same per-column order.
    """
    if not isinstance(a_csc, CscMatrix):
        raise ShapeError(f"a_csc must be CscMatrix, got {type(a_csc).__name__}")
    b_dense = np.asarray(b_dense, dtype=np.float64)
    if b_dense.ndim != 2 or b_dense.shape[0] != a_csc.shape[1]:
        raise ShapeError(
            f"B must be 2-D with {a_csc.shape[1]} rows, got shape {b_dense.shape}"
        )
    m, k = a_csc.shape[0], b_dense.shape[1]
    out = np.zeros((m, k))
    if a_csc.nnz == 0 or k == 0:
        return out
    if a_csc.nnz * k <= _FLAT_KERNEL_THRESHOLD:
        cols = a_csc.expand_cols()
        np.add.at(out, a_csc.row_ids, a_csc.vals[:, None] * b_dense[cols, :])
        return out
    indptr = a_csc.indptr
    for j in range(a_csc.shape[1]):
        lo, hi = indptr[j], indptr[j + 1]
        if lo == hi:
            continue
        rows = a_csc.row_ids[lo:hi]
        contrib = np.outer(a_csc.vals[lo:hi], b_dense[j, :])
        np.add.at(out, rows, contrib)
    return out


def spmm_csr_dense(a_csr, b_dense):
    """Multiply ``A (CSR, m x n) @ B (dense, n x k)`` -> dense ``(m, k)``.

    Row-oriented formulation: each output row is the weighted sum of the
    B rows selected by that A row. The reference GCN layer computes a
    sparse ``X @ W`` with it.
    """
    if not isinstance(a_csr, CsrMatrix):
        raise ShapeError(f"a_csr must be CsrMatrix, got {type(a_csr).__name__}")
    b_dense = np.asarray(b_dense, dtype=np.float64)
    if b_dense.ndim != 2 or b_dense.shape[0] != a_csr.shape[1]:
        raise ShapeError(
            f"B must be 2-D with {a_csr.shape[1]} rows, got shape {b_dense.shape}"
        )
    m, k = a_csr.shape[0], b_dense.shape[1]
    out = np.zeros((m, k))
    if a_csr.nnz == 0 or k == 0:
        return out
    rows = a_csr.expand_rows()
    np.add.at(out, rows, a_csr.vals[:, None] * b_dense[a_csr.col_ids, :])
    return out
