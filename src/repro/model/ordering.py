"""Computation-order analysis: ``(A X) W`` vs ``A (X W)`` — Table 2.

A GCN layer multiplies three matrices. Because matrix multiplication is
associative, the hardware may compute either order; the non-zero counts
decide the cost:

* ``A (X W)``: two SPMM passes. Multiplications =
  ``nnz(X) * f_out + nnz(A) * f_out``.
* ``(A X) W``: an SPGEMM producing a dense buffer, then a dense GEMM.
  Multiplications = ``sum_k col_nnz(A)[k] * row_nnz(X)[k]`` for the
  SPGEMM plus ``n * f_in * f_out`` for the GEMM (the product ``A X`` is
  stored dense, so the GEMM pays full dense cost).

These formulas reproduce the paper's Table 2 numbers to within rounding
on the published statistics — e.g. Cora layer 2: 329.3K vs 468.2K, and
Nell layer 1's 257G is exactly ``65755 * 61278 * 64``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.sparse.coo import CooMatrix


@dataclass(frozen=True)
class OrderingOps:
    """Multiplication counts for one layer under both orders."""

    ops_ax_w: int
    """(A @ X) @ W multiplications."""
    ops_a_xw: int
    """A @ (X @ W) multiplications."""


def count_ops_a_xw(a_nnz, x_nnz, f_out):
    """Multiplications for ``A @ (X @ W)`` given non-zero counts."""
    return int(x_nnz) * int(f_out) + int(a_nnz) * int(f_out)


def count_ops_ax_w(a_col_nnz, x_row_nnz, n_rows, x_n_cols, f_out):
    """Multiplications for ``(A @ X) @ W``.

    ``a_col_nnz`` and ``x_row_nnz`` are aligned on the contraction axis
    (columns of A = rows of X): each non-zero in column ``k`` of A
    multiplies every stored element of row ``k`` of X. The second factor
    is a dense GEMM over the materialized ``A @ X`` buffer of shape
    ``(n_rows, x_n_cols)``.
    """
    a_col_nnz = np.asarray(a_col_nnz, dtype=np.int64)
    x_row_nnz = np.asarray(x_row_nnz, dtype=np.int64)
    if a_col_nnz.shape != x_row_nnz.shape:
        raise ShapeError(
            f"contraction axes disagree: {a_col_nnz.shape} vs {x_row_nnz.shape}"
        )
    spgemm_ops = int(np.dot(a_col_nnz, x_row_nnz))
    return spgemm_ops + int(n_rows) * int(x_n_cols) * int(f_out)


def layer_ordering_ops(adjacency, x_row_nnz, x_n_cols, f_out):
    """Op counts for one layer under both orders (Table 2 row builder).

    Parameters
    ----------
    adjacency:
        The normalized adjacency as a :class:`CooMatrix`.
    x_row_nnz:
        Per-row non-zero counts of the layer input X (length = nodes).
    x_n_cols:
        Column count of X (the layer's input feature dimension).
    f_out:
        Output feature count of the layer (columns of W).
    """
    if not isinstance(adjacency, CooMatrix):
        raise ShapeError(
            f"adjacency must be CooMatrix, got {type(adjacency).__name__}"
        )
    x_row_nnz = np.asarray(x_row_nnz, dtype=np.int64)
    if x_row_nnz.size != adjacency.shape[1]:
        raise ShapeError(
            f"x_row_nnz must have length {adjacency.shape[1]}, "
            f"got {x_row_nnz.size}"
        )
    x_nnz = int(x_row_nnz.sum())
    a_nnz = adjacency.nnz
    return OrderingOps(
        ops_ax_w=count_ops_ax_w(
            adjacency.col_nnz(), x_row_nnz, adjacency.shape[0], x_n_cols,
            f_out,
        ),
        ops_a_xw=count_ops_a_xw(a_nnz, x_nnz, f_out),
    )
