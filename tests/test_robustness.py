"""Robustness: degenerate inputs and failure injection across the stack."""

import numpy as np
import pytest

from repro.accel import ArchConfig, GcnAccelerator, SpmmJob, simulate_spmm
from repro.accel.localshare import share_makespan
from repro.accel.workload import RowAssignment
from repro.datasets import gcn_normalize
from repro.hw import simulate_spmm_detailed
from repro.model import GcnModel
from repro.sparse import CooMatrix
from test_accel_workload import move_rows


class TestDegenerateGraphs:
    def test_single_node_graph(self, rng):
        adjacency = gcn_normalize(CooMatrix.empty((1, 1)))
        model = GcnModel(adjacency, [rng.normal(size=(4, 2))])
        trace = model.forward(rng.normal(size=(1, 4)))
        assert trace.probabilities.shape == (1, 2)

    def test_disconnected_graph(self, rng):
        # Two components; the normalized matrix is block diagonal.
        dense = np.zeros((6, 6))
        dense[0, 1] = dense[1, 0] = 1.0
        dense[4, 5] = dense[5, 4] = 1.0
        adjacency = gcn_normalize(CooMatrix.from_dense(dense))
        model = GcnModel(adjacency, [rng.normal(size=(3, 2))])
        trace = model.forward(rng.normal(size=(6, 3)))
        assert np.isfinite(trace.probabilities).all()

    def test_empty_feature_rows(self, rng):
        dense = np.zeros((5, 5))
        dense[0, 1] = dense[1, 0] = 1.0
        adjacency = gcn_normalize(CooMatrix.from_dense(dense))
        features = CooMatrix.empty((5, 3))
        model = GcnModel(adjacency, [rng.normal(size=(3, 2))])
        trace = model.forward(features)
        # All-zero input: softmax of zero logits is uniform.
        assert np.allclose(trace.probabilities, 0.5)

    def test_all_zero_row_nnz_job(self):
        # An SPMM whose sparse operand is empty still terminates.
        job = SpmmJob(name="z", row_nnz=np.zeros(16, dtype=int), n_rounds=3)
        result = simulate_spmm(job, ArchConfig(n_pes=4))
        assert result.total_work == 0
        assert result.total_cycles >= 0

    def test_more_pes_than_rows(self):
        job = SpmmJob(name="j", row_nnz=[3, 2, 1], n_rounds=2)
        result = simulate_spmm(job, ArchConfig(n_pes=64))
        assert 0 < result.utilization <= 1.0


class TestExtremeConfigs:
    def test_hop_larger_than_array(self):
        loads = np.array([10, 0, 0, 0])
        assert share_makespan(loads, hop=100) == 3  # ceil(10/4)

    def test_single_pe(self):
        job = SpmmJob(name="j", row_nnz=[5, 5], n_rounds=2)
        result = simulate_spmm(job, ArchConfig(n_pes=1, hop=1))
        assert result.utilization > 0.2

    def test_remote_switching_single_pe(self):
        job = SpmmJob(name="j", row_nnz=[5, 5], n_rounds=4)
        result = simulate_spmm(
            job, ArchConfig(n_pes=1, remote_switching=True)
        )
        assert result.total_cycles > 0

    def test_huge_single_row(self):
        row_nnz = np.zeros(32, dtype=int)
        row_nnz[0] = 10_000
        job = SpmmJob(name="hub", row_nnz=row_nnz, n_rounds=2)
        for hop in (0, 1, 3):
            result = simulate_spmm(job, ArchConfig(n_pes=32, hop=hop))
            # A single atomic row bounds the makespan by its share of
            # the neighbourhood, never below ideal.
            assert result.cycles_per_round[0] >= 10_000 // (2 * hop + 1)


class TestBackPressure:
    def test_detailed_engine_with_tiny_network_buffers(self, rng):
        # Buffer depth 1 forces constant back-pressure; the round must
        # still complete with exact numerics.
        dense = rng.normal(size=(16, 12))
        dense[rng.random(dense.shape) > 0.4] = 0.0
        a = CooMatrix.from_dense(dense)
        b = rng.normal(size=(12, 2))
        result, stats = simulate_spmm_detailed(
            a, b, n_pes=8, buffer_depth=1
        )
        assert np.allclose(result, dense @ b)
        assert stats.cycles > 0

    def test_assignment_rejects_foreign_rows(self):
        asg = RowAssignment([1, 2, 3], 2)
        with pytest.raises(IndexError):
            move_rows(asg, [99], 0)


class TestAcceleratorEdgeCases:
    def test_tiny_dataset_many_pes(self, tiny_cora):
        report = GcnAccelerator(tiny_cora, ArchConfig(n_pes=1024)).run()
        assert report.total_cycles > 0
        assert report.utilization <= 1.0

    def test_zero_drain_config(self, tiny_cora):
        report = GcnAccelerator(
            tiny_cora, ArchConfig(n_pes=16, drain_cycles=0)
        ).run()
        assert report.total_cycles * 16 >= report.total_work
