"""Distribution statistics and partition loads."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.accel.workload import per_pe_loads
from repro.sparse import distribution_stats, row_nnz_histogram
from repro.sparse.stats import equal_rows_owner


def partition_loads(row_nnz, n_partitions):
    """Per-PE work under the static equal-rows partition (paper Fig. 6)."""
    owners = equal_rows_owner(len(row_nnz), n_partitions)
    return per_pe_loads(owners, row_nnz, n_partitions)


class TestDistributionStats:
    def test_uniform_counts(self):
        stats = distribution_stats(np.full(10, 5))
        assert stats.cv == 0.0
        assert stats.gini == pytest.approx(0.0, abs=1e-12)
        assert stats.max_over_mean == pytest.approx(1.0)

    def test_concentrated_counts(self):
        counts = np.zeros(100, dtype=int)
        counts[0] = 1000
        stats = distribution_stats(counts)
        assert stats.gini > 0.95
        assert stats.max_over_mean == pytest.approx(100.0)

    def test_total_and_extremes(self):
        stats = distribution_stats([1, 2, 3, 10])
        assert stats.total == 16
        assert stats.max == 10
        assert stats.min == 1

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            distribution_stats([])

    def test_negative_raises(self):
        with pytest.raises(ConfigError):
            distribution_stats([-1, 2])

    def test_all_zero(self):
        stats = distribution_stats([0, 0, 0])
        assert stats.cv == 0.0
        assert stats.gini == 0.0

    def test_describe_is_string(self):
        assert "gini" in distribution_stats([1, 2, 3]).describe()

    def test_gini_ordering(self):
        # More skew must increase gini.
        mild = distribution_stats([4, 5, 6, 5])
        wild = distribution_stats([0, 0, 1, 19])
        assert wild.gini > mild.gini


class TestHistogram:
    def test_counts_conserved(self):
        counts = np.array([0, 1, 1, 2, 5, 9, 100])
        _edges, hist = row_nnz_histogram(counts, n_bins=5)
        assert hist.sum() == counts.size

    def test_log_bins_monotone(self):
        edges, _ = row_nnz_histogram(np.arange(100), n_bins=8)
        assert np.all(np.diff(edges) > 0)

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            row_nnz_histogram([])


class TestPartitioning:
    def test_equal_rows_owner_contiguous(self):
        owner = equal_rows_owner(10, 3)
        assert owner.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_owner_covers_all_pes_when_possible(self):
        owner = equal_rows_owner(100, 7)
        assert set(owner.tolist()) == set(range(7))

    def test_more_pes_than_rows(self):
        owner = equal_rows_owner(3, 8)
        assert owner.tolist() == [0, 1, 2]

    def test_zero_rows(self):
        assert equal_rows_owner(0, 4).size == 0

    def test_partition_loads_sum(self):
        row_nnz = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        loads = partition_loads(row_nnz, 3)
        assert loads.sum() == row_nnz.sum()

    def test_partition_loads_values(self):
        row_nnz = np.array([1, 2, 3, 4])
        loads = partition_loads(row_nnz, 2)
        assert loads.tolist() == [3, 7]

    def test_bad_partitions_raises(self):
        with pytest.raises(ConfigError):
            partition_loads([1, 2], 0)
