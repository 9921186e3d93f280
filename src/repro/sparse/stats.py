"""Non-zero distribution statistics — the quantities behind Figs. 1/9/13.

The paper's entire motivation is that per-row non-zero counts of graph
adjacency matrices are power-law distributed, so a static equal-rows
partition starves most PEs while one drowns. This module quantifies that
skew (coefficient of variation, Gini, max/mean) and gives the row owners
of the static equal-rows partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.utils.validation import check_1d_int_array, check_positive_int


@dataclass(frozen=True)
class DistributionStats:
    """Summary statistics of a per-row non-zero count vector."""

    count: int
    total: int
    mean: float
    std: float
    max: int
    min: int
    cv: float
    """Coefficient of variation std/mean (0 for perfectly even)."""
    gini: float
    """Gini coefficient of the counts (0 even .. ~1 concentrated)."""
    max_over_mean: float
    """How many times heavier the heaviest row is than the average row."""
    p99_over_median: float
    """Tail heaviness: 99th percentile over median (medians of 0 give inf)."""

    def describe(self):
        """One-line human-readable summary used in reports."""
        return (
            f"n={self.count} nnz={self.total} mean={self.mean:.2f} "
            f"max={self.max} cv={self.cv:.2f} gini={self.gini:.2f} "
            f"max/mean={self.max_over_mean:.1f}"
        )


def distribution_stats(counts):
    """Compute :class:`DistributionStats` for a vector of row-nnz counts."""
    counts = check_1d_int_array(counts, "counts")
    if counts.size == 0:
        raise ConfigError("counts must be non-empty")
    if counts.min() < 0:
        raise ConfigError("counts must be non-negative")
    total = int(counts.sum())
    mean = float(counts.mean())
    std = float(counts.std())
    median = float(np.median(counts))
    p99 = float(np.percentile(counts, 99))
    return DistributionStats(
        count=int(counts.size),
        total=total,
        mean=mean,
        std=std,
        max=int(counts.max()),
        min=int(counts.min()),
        cv=std / mean if mean else 0.0,
        gini=_gini(counts),
        max_over_mean=float(counts.max()) / mean if mean else 0.0,
        p99_over_median=p99 / median if median else float("inf"),
    )


def row_nnz_histogram(counts, *, n_bins=50):
    """Histogram of per-row nnz counts (the data behind Figs. 1 and 13).

    Returns ``(bin_edges, bin_counts)``. The edges grow geometrically,
    which is the natural axis for power-law data.
    """
    counts = check_1d_int_array(counts, "counts")
    n_bins = check_positive_int(n_bins, "n_bins")
    if counts.size == 0:
        raise ConfigError("counts must be non-empty")
    top = max(int(counts.max()), 1)
    edges = np.unique(
        np.round(np.geomspace(1, top + 1, n_bins + 1)).astype(np.int64)
    )
    edges = np.concatenate(([0], edges))
    hist, edges = np.histogram(counts, bins=edges)
    return edges, hist


def equal_rows_owner(n_rows, n_partitions):
    """Owner PE of each row under contiguous equal-rows partitioning.

    Uses interleaved (round-robin) assignment of *blocks*: rows are split
    into ``n_partitions`` contiguous blocks of (nearly) equal size, block
    ``p`` belonging to PE ``p``. The final blocks are one row shorter when
    ``n_rows`` is not divisible by ``n_partitions``.
    """
    n_partitions = check_positive_int(n_partitions, "n_partitions")
    if n_rows < 0:
        raise ConfigError(f"n_rows must be >= 0, got {n_rows}")
    if n_rows == 0:
        return np.zeros(0, dtype=np.int64)
    base = n_rows // n_partitions
    extra = n_rows % n_partitions
    sizes = np.full(n_partitions, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.repeat(np.arange(n_partitions, dtype=np.int64), sizes)


def _gini(counts):
    """Gini coefficient of a non-negative integer vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    sorted_counts = np.sort(counts).astype(np.float64)
    n = sorted_counts.size
    cumulative = np.cumsum(sorted_counts)
    # Standard formula: G = (2 * sum(i*x_i) / (n * sum(x)) - (n+1)/n)
    index = np.arange(1, n + 1)
    return float(2.0 * np.sum(index * sorted_counts) / (n * total) - (n + 1) / n)
