"""Detailed SPMM engine: numeric exactness and timing behaviour."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hw import simulate_spmm_detailed
from repro.sparse import CooMatrix


@pytest.fixture
def random_case(rng):
    dense = rng.normal(size=(24, 18))
    dense[rng.random(dense.shape) > 0.3] = 0.0
    b = rng.normal(size=(18, 4))
    return dense, b


class TestNumericExactness:
    @pytest.mark.parametrize("tdq", ["tdq1", "tdq2"])
    @pytest.mark.parametrize("hop", [0, 1, 2])
    def test_matches_numpy(self, random_case, tdq, hop):
        dense, b = random_case
        a = CooMatrix.from_dense(dense)
        result, _stats = simulate_spmm_detailed(
            a, b, n_pes=8, hop=hop, tdq=tdq
        )
        assert np.allclose(result, dense @ b)

    def test_empty_matrix(self):
        a = CooMatrix.empty((8, 8))
        result, stats = simulate_spmm_detailed(a, np.ones((8, 2)), n_pes=4)
        assert np.array_equal(result, np.zeros((8, 2)))
        assert stats.tasks == 0

    def test_single_nonzero(self):
        a = CooMatrix((4, 4), [2], [3], [5.0])
        b = np.arange(8, dtype=float).reshape(4, 2)
        result, stats = simulate_spmm_detailed(a, b, n_pes=2)
        expected = a.to_dense() @ b
        assert np.allclose(result, expected)
        assert stats.tasks == 2

    def test_non_power_of_two_pes(self, random_case):
        dense, b = random_case
        a = CooMatrix.from_dense(dense)
        result, _ = simulate_spmm_detailed(a, b, n_pes=6, tdq="tdq2")
        assert np.allclose(result, dense @ b)

    def test_bad_b_shape_raises(self, random_case):
        dense, _b = random_case
        a = CooMatrix.from_dense(dense)
        with pytest.raises(ConfigError):
            simulate_spmm_detailed(a, np.ones((3, 2)))

    def test_bad_tdq_raises(self, random_case):
        dense, b = random_case
        a = CooMatrix.from_dense(dense)
        with pytest.raises(ConfigError):
            simulate_spmm_detailed(a, b, tdq="tdq3")

    def test_bad_matrix_type_raises(self):
        with pytest.raises(ConfigError):
            simulate_spmm_detailed(np.eye(3), np.ones((3, 1)))


class TestTimingBehaviour:
    def test_stats_accounting(self, random_case):
        dense, b = random_case
        a = CooMatrix.from_dense(dense)
        _result, stats = simulate_spmm_detailed(a, b, n_pes=8)
        assert stats.tasks == a.nnz * b.shape[1]
        assert stats.busy_cycles.sum() == stats.tasks
        assert stats.cycles_per_round.sum() == stats.cycles
        assert 0 < stats.utilization <= 1.0

    def test_sharing_helps_hot_partition(self, rng):
        # All work lands on PE 0's rows; neighbours should relieve it.
        # A realistic MAC depth matters here: with a single-cycle MAC
        # the hot PE drains exactly as fast as its Omega port delivers,
        # queues never build, and the sharing logic (correctly) never
        # engages — it is the RaW-stall backlog that trips it.
        dense = np.zeros((32, 48))
        dense[0:4, :] = rng.normal(size=(4, 48))
        a = CooMatrix.from_dense(dense)
        b = rng.normal(size=(48, 2))
        base_result, base = simulate_spmm_detailed(
            a, b, n_pes=8, hop=0, mac_latency=5
        )
        share_result, share = simulate_spmm_detailed(
            a, b, n_pes=8, hop=2, mac_latency=5
        )
        assert np.allclose(base_result, share_result)
        assert share.cycles < base.cycles
        assert share.utilization > base.utilization

    def test_raw_stalls_counted_for_hot_row(self, rng):
        # A single output row with many tasks forces RaW spacing.
        dense = np.zeros((8, 64))
        dense[0, :] = 1.0
        a = CooMatrix.from_dense(dense)
        b = rng.normal(size=(64, 1))
        _res, stats = simulate_spmm_detailed(
            a, b, n_pes=4, mac_latency=8, queues_per_pe=1
        )
        assert stats.stall_events > 0

    def test_queue_high_water_positive(self, random_case):
        dense, b = random_case
        a = CooMatrix.from_dense(dense)
        _res, stats = simulate_spmm_detailed(a, b, n_pes=2)
        assert stats.max_queue_occupancy > 0
