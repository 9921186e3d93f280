"""Feature and weight matrix generation.

Layer-1 feature matrices in GCN datasets are raw per-node attributes
(bag-of-words, one-hot entity features) and are very sparse — Table 1
reports 0.011%-51.6% density. We generate them as Bernoulli-sparse
matrices with mildly skewed per-row densities (some documents are longer
than others), which is what makes the X*W SPMM's workload not perfectly
flat either.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sparse.coo import CooMatrix
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_fraction, check_positive_int


def sparse_feature_matrix(n_rows, n_cols, density, *, rng=None, row_skew=0.5):
    """Generate a sparse feature matrix with the requested global density.

    Per-row non-zero counts are drawn from a lognormal around the mean
    implied by ``density`` (``row_skew`` is the lognormal sigma; 0 gives
    uniform rows). Values are positive floats in [0.5, 1.5], loosely like
    tf-idf weights. Returns a canonical :class:`CooMatrix`.
    """
    n_rows = check_positive_int(n_rows, "n_rows")
    n_cols = check_positive_int(n_cols, "n_cols")
    density = check_fraction(density, "density")
    if row_skew < 0:
        raise ConfigError(f"row_skew must be >= 0, got {row_skew}")
    rng = rng_from_seed(rng)
    row_counts = sample_row_nnz(
        n_rows, n_cols, density, rng=rng, row_skew=row_skew
    )
    total = int(row_counts.sum())
    if total == 0:
        return CooMatrix.empty((n_rows, n_cols))
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), row_counts)
    # Draw columns with replacement then dedupe per row; the density
    # target tolerates the tiny loss from collisions.
    cols = rng.integers(0, n_cols, size=total, dtype=np.int64)
    vals = rng.uniform(0.5, 1.5, size=total)
    return CooMatrix((n_rows, n_cols), rows, cols, vals)


def sample_row_nnz(n_rows, n_cols, density, *, rng=None, row_skew=0.5):
    """Sample per-row non-zero counts matching a global density target.

    This is the pattern-only path used for the ``full`` presets of Nell
    and Reddit, where materializing tens of millions of feature values
    would buy nothing: the accelerator's workload model only consumes
    per-row non-zero counts (an :class:`~repro.accel.SpmmJob` is its
    ``row_nnz`` profile and a round count).
    """
    rng = rng_from_seed(rng)
    mean_nnz = density * n_cols
    if row_skew == 0:
        counts = np.full(n_rows, mean_nnz)
    else:
        # lognormal with unit mean, sigma = row_skew
        counts = mean_nnz * rng.lognormal(
            mean=-0.5 * row_skew**2, sigma=row_skew, size=n_rows
        )
    counts = np.round(counts).astype(np.int64)
    np.clip(counts, 0, n_cols, out=counts)
    return counts


def dense_weight_matrix(n_in, n_out, *, rng=None):
    """Glorot-uniform dense weight matrix, as used for W(l) (always dense)."""
    n_in = check_positive_int(n_in, "n_in")
    n_out = check_positive_int(n_out, "n_out")
    rng = rng_from_seed(rng)
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))
