"""Compressed-Sparse-Column (CSC) format — the accelerator's native format.

Paper Fig. 4: the non-zeros are stored column-by-column in a dense value
array (``vals``) with their row indices alongside (``row_ids``) and a
column pointer (``indptr``). TDQ-2 streams ``vals`` directly — "if we can
directly process the dense array, we gain from avoiding all the zeros" —
and routes each element to the PE owning its row through the Omega
network, using ``row_ids``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.csr import _check_compressed


class CscMatrix:
    """An immutable sparse matrix in CSC form.

    Invariants mirror :class:`~repro.sparse.csr.CsrMatrix` with the roles
    of rows and columns exchanged: ``indptr`` has length ``n_cols + 1``
    and row indices are strictly increasing within each column.
    """

    __slots__ = ("shape", "indptr", "row_ids", "vals")

    def __init__(self, shape, indptr, row_ids, vals):
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"shape must be non-negative, got {shape}")
        indptr = np.asarray(indptr, dtype=np.int64).ravel()
        row_ids = np.asarray(row_ids, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        _check_compressed(n_cols, n_rows, indptr, row_ids, vals, axis="col")
        object.__setattr__(self, "shape", (n_rows, n_cols))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "row_ids", row_ids)
        object.__setattr__(self, "vals", vals)

    def __setattr__(self, name, value):
        raise AttributeError("CscMatrix is immutable")

    @property
    def nnz(self):
        """Number of stored entries."""
        return int(self.vals.size)

    @property
    def density(self):
        """Fraction of cells that are non-zero (0.0 for empty shapes)."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def col_nnz(self):
        """Per-column non-zero counts (length n_cols)."""
        return np.diff(self.indptr)

    def row_nnz(self):
        """Per-row non-zero counts (length n_rows).

        This is the quantity whose skew drives the whole paper: the PE
        that owns a heavy row receives that many MAC tasks per round.
        """
        return np.bincount(self.row_ids, minlength=self.shape[0]).astype(np.int64)

    def expand_cols(self):
        """Return the implicit column index of every stored entry."""
        return np.repeat(np.arange(self.shape[1]), self.col_nnz())

    def to_dense(self):
        """Materialize as a dense float64 array."""
        out = np.zeros(self.shape)
        out[self.row_ids, self.expand_cols()] = self.vals
        return out

    def __repr__(self):
        return (
            f"CscMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3%})"
        )
