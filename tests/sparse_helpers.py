"""Dense views the sparse tests compare against.

``src/`` never materializes a CSR matrix, so its dense form lives here.
"""

import numpy as np


def csr_to_dense(csr):
    """A :class:`~repro.sparse.CsrMatrix` as a dense float64 array."""
    out = np.zeros(csr.shape)
    out[csr.expand_rows(), csr.col_ids] = csr.vals
    return out
