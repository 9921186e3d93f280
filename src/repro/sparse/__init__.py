"""From-scratch sparse matrix formats and reference kernels.

The AWB-GCN hardware streams the ultra-sparse adjacency matrix in
Compressed-Sparse-Column (CSC) form (paper Fig. 4) and the general-sparse
feature matrix in dense form. This subpackage implements the three
classic coordinate formats (COO, CSR, CSC) with explicit invariants,
the conversions from COO to the compressed formats, the reference
sparse-times-dense kernels used as the numerical oracle for the
simulators, and the distribution statistics that drive the
workload-imbalance analysis (paper Figs. 1, 9 and 13).

scipy is deliberately *not* used here — it serves only as an independent
oracle in the test suite.
"""

from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix
from repro.sparse.csc import CscMatrix
from repro.sparse.convert import coo_to_csc, coo_to_csr
from repro.sparse.ops import spmm_csc_dense, spmm_csr_dense
from repro.sparse.stats import (
    row_nnz_histogram,
    DistributionStats,
    distribution_stats,
)

__all__ = [
    "CooMatrix",
    "CsrMatrix",
    "CscMatrix",
    "coo_to_csc",
    "coo_to_csr",
    "spmm_csc_dense",
    "spmm_csr_dense",
    "row_nnz_histogram",
    "DistributionStats",
    "distribution_stats",
]
