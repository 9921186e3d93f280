"""Extension features: multi-hop aggregation, deep GCNs, Eq. 5 approx."""

import numpy as np
import pytest

from repro.accel import (
    ArchConfig,
    GcnAccelerator,
    build_spmm_jobs,
    jobs_for_layers,
)
from repro.accel.remote import _shift_approx_step
from repro.datasets import gcn_normalize
from repro.errors import ConfigError
from repro.model import GcnModel
from repro.model.layers import GcnLayer
from repro.sparse import CooMatrix


@pytest.fixture
def graph(rng):
    dense = (rng.random((14, 14)) < 0.3).astype(float)
    dense = np.maximum(dense, dense.T)
    return gcn_normalize(CooMatrix.from_dense(dense))


class TestMultiHopModel:
    def test_two_hop_matches_numpy(self, graph, rng):
        w = rng.normal(size=(6, 4))
        x = rng.normal(size=(14, 6))
        layer = GcnLayer(graph, w, a_hops=2)
        a = graph.to_dense()
        expected = np.maximum(a @ (a @ (x @ w)), 0.0)
        assert np.allclose(layer.forward(x).output, expected)

    def test_orders_agree_with_hops(self, graph, rng):
        w = rng.normal(size=(6, 4))
        x = rng.normal(size=(14, 6))
        layer = GcnLayer(graph, w, a_hops=3)
        assert np.allclose(
            layer.forward(x).output, layer.forward_ax_w(x).output
        )

    def test_model_level_hops(self, graph, rng):
        weights = [rng.normal(size=(6, 5)), rng.normal(size=(5, 3))]
        x = rng.normal(size=(14, 6))
        model = GcnModel(graph, weights, a_hops=2)
        a = graph.to_dense()
        h1 = np.maximum(a @ (a @ (x @ weights[0])), 0.0)
        logits = a @ (a @ (h1 @ weights[1]))
        assert np.allclose(model.forward(x).logits, logits)

    def test_bad_hops_raises(self, graph, rng):
        for a_hops in (0, True, 1.0):
            with pytest.raises(ConfigError, match="a_hops"):
                GcnLayer(graph, rng.normal(size=(6, 4)), a_hops=a_hops)


class TestDeepGcnModel:
    def test_five_layer_forward(self, graph, rng):
        dims = [6, 8, 8, 8, 8, 3]
        weights = [
            rng.normal(size=(dims[i], dims[i + 1])) for i in range(5)
        ]
        model = GcnModel(graph, weights)
        trace = model.forward(rng.normal(size=(14, 6)))
        assert len(trace.layer_results) == 5
        assert trace.probabilities.shape == (14, 3)


class TestMultiHopJobs:
    def test_job_count_per_layer(self, tiny_cora):
        layers = build_spmm_jobs(tiny_cora, a_hops=2)
        assert [len(stages) for stages in layers] == [3, 3]
        assert layers[0][2].name == "L1:A^2(XW)"

    def test_bad_hops_raises(self, tiny_cora):
        with pytest.raises(ConfigError):
            build_spmm_jobs(tiny_cora, a_hops=0)

    def test_accelerator_runs_two_hop(self, tiny_cora):
        report = GcnAccelerator(
            tiny_cora, ArchConfig(n_pes=16), a_hops=2
        ).run()
        assert len(report.spmm_results) == 6
        assert 0 < report.utilization <= 1.0

    def test_two_hop_costs_more_than_one(self, tiny_cora):
        one = GcnAccelerator(tiny_cora, ArchConfig(n_pes=16), a_hops=1).run()
        two = GcnAccelerator(tiny_cora, ArchConfig(n_pes=16), a_hops=2).run()
        assert two.total_cycles > one.total_cycles
        # ...but less than 2x: the extra A stage pipelines into the rest.
        assert two.total_cycles < 2 * one.total_cycles

    def test_a_map_reused_across_stages(self, tiny_nell):
        config = ArchConfig(n_pes=16, hop=2, remote_switching=True)
        report = GcnAccelerator(tiny_nell, config, a_hops=2).run()
        first_a = report.layers[0].stages[1]
        second_a = report.layers[0].stages[2]
        # The second A stage starts from the first one's converged map.
        assert (
            second_a.cycles_per_round[0] <= first_a.cycles_per_round[0]
        )


class TestDeepGcnJobs:
    def test_jobs_for_layers(self, tiny_cora):
        a_nnz = tiny_cora.adjacency.row_nnz()
        x_nnz = tiny_cora.x1_row_nnz
        specs = [(f"L{i + 1}", x_nnz, 8) for i in range(6)]
        layers = jobs_for_layers(a_nnz, specs)
        assert len(layers) == 6
        report = GcnAccelerator.from_jobs(
            layers, ArchConfig(n_pes=16), name="deep"
        ).run()
        assert len(report.layers) == 6
        assert report.dataset == "deep"

    def test_from_jobs_validates_config(self, tiny_cora):
        with pytest.raises(ConfigError):
            GcnAccelerator.from_jobs([], "nope")


class TestEq5Approximation:
    def test_shift_step_matches_exact_at_powers_of_two(self):
        exact = (0.5 / 1.0) * (64 / 2.0)
        assert _shift_approx_step(50, 100, 64) == pytest.approx(exact)

    def test_shift_step_within_sqrt2_of_exact(self):
        for gap, g1 in ((30, 100), (75, 100), (99, 100), (10, 100)):
            exact = (gap / g1) * 32.0
            approx = _shift_approx_step(gap, g1, 64)
            assert exact / np.sqrt(2) <= approx <= exact * np.sqrt(2)

    def test_zero_gap_gives_zero(self):
        assert _shift_approx_step(0, 100, 64) == 0.0

    def test_approximate_tuner_still_converges(self, rng):
        from repro.accel import SpmmJob, simulate_spmm

        row_nnz = rng.integers(1, 5, size=256)
        row_nnz[7] = 500
        job = SpmmJob(name="j", row_nnz=row_nnz, n_rounds=16)
        exact = simulate_spmm(
            job, ArchConfig(n_pes=16, remote_switching=True)
        )
        approx = simulate_spmm(
            job,
            ArchConfig(n_pes=16, remote_switching=True, eq5_approximate=True),
        )
        static = simulate_spmm(job, ArchConfig(n_pes=16))
        assert approx.total_cycles < static.total_cycles
        # The approximation costs little vs the exact Eq. 5.
        assert approx.total_cycles <= exact.total_cycles * 1.35
