"""Coordinate (COO) sparse matrix format.

COO is the interchange format of this package: the synthetic graph
generators emit edge lists, which are COO triples, and every other format
is built from it. Entries are kept in canonical order (row-major, then by
column) with duplicates summed, which makes equality checks and format
conversions deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError, ShapeError


class CooMatrix:
    """An immutable sparse matrix in canonical COO form.

    Parameters
    ----------
    shape:
        ``(n_rows, n_cols)``.
    rows, cols, vals:
        Parallel 1-D arrays of coordinates and values. They are copied,
        canonicalized (sorted row-major, duplicates summed), and explicit
        zeros, including duplicates that sum to zero, are dropped.
    """

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(self, shape, rows, cols, vals):
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"shape must be non-negative, got {shape}")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (rows.size == cols.size == vals.size):
            raise FormatError(
                "rows, cols and vals must have equal length, got "
                f"{rows.size}, {cols.size}, {vals.size}"
            )
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise FormatError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise FormatError("column index out of range")
        rows, cols, vals = _canonicalize(n_rows, n_cols, rows, cols, vals)
        if vals.size:
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        object.__setattr__(self, "shape", (n_rows, n_cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    def __setattr__(self, name, value):
        raise AttributeError("CooMatrix is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense):
        """Build a COO matrix from a 2-D dense array, dropping zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError(f"dense input must be 2-D, got {dense.ndim}-D")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape, rows, cols, dense[rows, cols])

    @classmethod
    def empty(cls, shape):
        """An all-zero matrix of the given shape."""
        return cls(shape, [], [], [])

    # ------------------------------------------------------------------
    # properties and views
    # ------------------------------------------------------------------
    @property
    def nnz(self):
        """Number of stored (non-zero) entries."""
        return int(self.vals.size)

    @property
    def density(self):
        """Fraction of cells that are non-zero (0.0 for empty shapes)."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def row_nnz(self):
        """Per-row non-zero counts as an ``int64`` array of length n_rows."""
        return np.bincount(self.rows, minlength=self.shape[0]).astype(np.int64)

    def col_nnz(self):
        """Per-column non-zero counts as an ``int64`` array of length n_cols."""
        return np.bincount(self.cols, minlength=self.shape[1]).astype(np.int64)

    def to_dense(self):
        """Materialize as a dense float64 array."""
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def __eq__(self, other):
        if not isinstance(other, CooMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )

    def __hash__(self):
        return hash((self.shape, self.nnz))

    def __repr__(self):
        return (
            f"CooMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3%})"
        )


def _canonicalize(n_rows, n_cols, rows, cols, vals):
    """Sort row-major and sum duplicate coordinates."""
    if rows.size == 0:
        return rows, cols, vals
    keys = rows * n_cols + cols
    order = np.argsort(keys, kind="stable")
    keys, rows, cols, vals = keys[order], rows[order], cols[order], vals[order]
    unique_mask = np.empty(keys.size, dtype=bool)
    unique_mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=unique_mask[1:])
    if unique_mask.all():
        return rows, cols, vals
    # Segmented sum over the sorted duplicates: reduceat accumulates each
    # run in element order, exactly like the scalar loop it replaces.
    starts = np.flatnonzero(unique_mask)
    summed = np.add.reduceat(vals, starts)
    return rows[unique_mask], cols[unique_mask], summed
