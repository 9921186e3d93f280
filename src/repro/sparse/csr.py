"""Compressed-Sparse-Row (CSR) format.

CSR is the row-oriented twin of the CSC format used by the accelerator.
The simulators use it to enumerate the non-zeros a PE owns (PEs are
assigned contiguous row ranges, paper Sec. 3.2), and the reference GCN
layer multiplies its sparse features in CSR
(:func:`~repro.sparse.ops.spmm_csr_dense`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError, ShapeError


class CsrMatrix:
    """An immutable sparse matrix in CSR form.

    Invariants enforced at construction:

    * ``indptr`` has length ``n_rows + 1``, starts at 0, is monotonically
      non-decreasing and ends at ``nnz``;
    * column indices are in range and strictly increasing within a row
      (i.e. sorted with no duplicates).
    """

    __slots__ = ("shape", "indptr", "col_ids", "vals")

    def __init__(self, shape, indptr, col_ids, vals):
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"shape must be non-negative, got {shape}")
        indptr = np.asarray(indptr, dtype=np.int64).ravel()
        col_ids = np.asarray(col_ids, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        _check_compressed(n_rows, n_cols, indptr, col_ids, vals, axis="row")
        object.__setattr__(self, "shape", (n_rows, n_cols))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "col_ids", col_ids)
        object.__setattr__(self, "vals", vals)

    def __setattr__(self, name, value):
        raise AttributeError("CsrMatrix is immutable")

    @property
    def nnz(self):
        """Number of stored entries."""
        return int(self.vals.size)

    @property
    def density(self):
        """Fraction of cells that are non-zero (0.0 for empty shapes)."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def row_nnz(self):
        """Per-row non-zero counts (length n_rows)."""
        return np.diff(self.indptr)

    def expand_rows(self):
        """Return the implicit row index of every stored entry (length nnz)."""
        return np.repeat(np.arange(self.shape[0]), self.row_nnz())

    def __repr__(self):
        return (
            f"CsrMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3%})"
        )


def _check_compressed(n_major, n_minor, indptr, minor_ids, vals, *, axis):
    """Shared invariant checks for CSR (axis='row') and CSC (axis='col')."""
    major_name = "indptr"
    if indptr.size != n_major + 1:
        raise FormatError(
            f"{major_name} must have length {n_major + 1}, got {indptr.size}"
        )
    if indptr.size and indptr[0] != 0:
        raise FormatError(f"{major_name} must start at 0, got {indptr[0]}")
    if np.any(np.diff(indptr) < 0):
        raise FormatError(f"{major_name} must be non-decreasing")
    if minor_ids.size != vals.size:
        raise FormatError(
            f"index and value arrays must match, got {minor_ids.size} != {vals.size}"
        )
    if indptr.size and indptr[-1] != vals.size:
        raise FormatError(
            f"{major_name}[-1] ({indptr[-1]}) must equal nnz ({vals.size})"
        )
    if minor_ids.size:
        if minor_ids.min() < 0 or minor_ids.max() >= n_minor:
            raise FormatError(f"{axis} minor index out of range")
    # Sorted + unique within each major slice, vectorized: consecutive
    # entries must strictly increase except across slice boundaries.
    if minor_ids.size > 1:
        non_increasing = minor_ids[1:] <= minor_ids[:-1]
        if non_increasing.any():
            boundaries = np.zeros(minor_ids.size - 1, dtype=bool)
            starts = indptr[1:-1]
            starts = starts[(starts > 0) & (starts < minor_ids.size)]
            boundaries[starts - 1] = True
            if np.any(non_increasing & ~boundaries):
                raise FormatError(
                    f"indices within each {axis} must be strictly increasing"
                )
