"""Conversions from the COO format to the compressed CSR and CSC formats.

All conversions are vectorized (argsort + cumulative counts) so the
Reddit-scale adjacency matrix (~24M non-zeros) converts in well under a
second. Nothing here touches scipy; the test suite uses it as an
independent oracle.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CscMatrix
from repro.sparse.csr import CsrMatrix


def coo_to_csr(coo):
    """Convert a canonical :class:`CooMatrix` to :class:`CsrMatrix`."""
    counts = np.bincount(coo.rows, minlength=coo.shape[0])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    # canonical COO is already sorted row-major, then by column
    return CsrMatrix(coo.shape, indptr, coo.cols, coo.vals)


def coo_to_csc(coo):
    """Convert a canonical :class:`CooMatrix` to :class:`CscMatrix`."""
    order = np.lexsort((coo.rows, coo.cols))
    rows = coo.rows[order]
    cols = coo.cols[order]
    vals = coo.vals[order]
    counts = np.bincount(cols, minlength=coo.shape[1])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CscMatrix(coo.shape, indptr, rows, vals)

