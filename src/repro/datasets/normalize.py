"""GCN adjacency normalization: ``A~ = D^-1/2 (A + I) D^-1/2``.

Paper Sec. 2.1: without normalization, nodes with more neighbours grow
larger feature values layer over layer. ``A~`` is constant across layers
and computed offline, exactly as we do here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.coo import CooMatrix


def add_self_loops(adjacency):
    """Return ``A + I`` for a square :class:`CooMatrix`.

    Cells that already contain a self edge simply get +1 (canonical COO
    sums duplicates), matching the standard GCN preprocessing.
    """
    n_rows, n_cols = adjacency.shape
    if n_rows != n_cols:
        raise ShapeError(f"adjacency must be square, got {adjacency.shape}")
    idx = np.arange(n_rows)
    rows = np.concatenate([adjacency.rows, idx])
    cols = np.concatenate([adjacency.cols, idx])
    vals = np.concatenate([adjacency.vals, np.ones(n_rows)])
    return CooMatrix(adjacency.shape, rows, cols, vals)


def gcn_normalize(adjacency):
    """Symmetric degree normalization of a square adjacency matrix.

    Computes ``D^-1/2 (A + I) D^-1/2`` where ``D`` is the diagonal degree
    matrix of ``A + I`` (``D_ii = sum_j (A + I)_ij``). A row whose degree
    is not positive keeps zero entries.
    """
    adjacency = add_self_loops(adjacency)
    n_rows = adjacency.shape[0]
    degree = np.zeros(n_rows)
    np.add.at(degree, adjacency.rows, adjacency.vals)
    inv_sqrt = np.zeros(n_rows)
    positive = degree > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    vals = adjacency.vals * inv_sqrt[adjacency.rows] * inv_sqrt[adjacency.cols]
    return CooMatrix(adjacency.shape, adjacency.rows, adjacency.cols, vals)
