"""Comparison-platform models: CPU, GPU, EIE, energy."""

import pytest

from repro.accel import ArchConfig, GcnAccelerator
from repro.baselines import (
    CpuModel,
    EieLikeModel,
    GpuModel,
    PLATFORM_POWER_WATTS,
    energy_joules,
    inferences_per_kilojoule,
)
from repro.baselines.cpu import total_inference_ops
from repro.errors import ConfigError


class TestCpuModel:
    def test_reproduces_paper_cora(self):
        # Table 2: Cora total A(XW) ops = 1.33M -> Table 3: 3.90 ms.
        assert CpuModel().latency_ms(1.33e6) == pytest.approx(3.90, rel=0.2)

    def test_reproduces_paper_nell(self):
        # Nell: 782M ops -> 1.61 s.
        assert CpuModel().latency_ms(782e6) == pytest.approx(1610, rel=0.1)

    def test_monotone_in_ops(self):
        cpu = CpuModel()
        assert cpu.latency_ms(2e6) > cpu.latency_ms(1e6)

    def test_total_inference_ops(self, tiny_cora):
        ops = total_inference_ops(tiny_cora)
        f2, f3 = tiny_cora.feature_dims[1], tiny_cora.feature_dims[2]
        manual = (
            int(tiny_cora.x1_row_nnz.sum()) + tiny_cora.adjacency.nnz
        ) * f2 + (
            int(tiny_cora.x2_row_nnz.sum()) + tiny_cora.adjacency.nnz
        ) * f3
        assert ops == manual

    def test_evaluate_builds_result(self, tiny_cora):
        result = CpuModel().evaluate("cora", 1e6)
        assert result.platform == "cpu"
        assert result.power_watts == PLATFORM_POWER_WATTS["cpu"]


class TestGpuModel:
    def test_reproduces_paper_nell(self):
        # Nell: 782M ops -> 130.65 ms on the P100.
        assert GpuModel().latency_ms(782e6) == pytest.approx(130.65, rel=0.1)

    def test_small_graph_overhead_bound(self):
        # Cora: 1.33M ops -> ~1.78 ms, dominated by launch overhead.
        assert GpuModel().latency_ms(1.33e6) == pytest.approx(1.78, rel=0.15)

    def test_large_graphs_use_degraded_throughput(self):
        gpu = GpuModel()
        just_below = gpu.latency_ms(0.99e9)
        just_above = gpu.latency_ms(1.01e9)
        assert just_above > just_below * 1.5

    def test_gpu_faster_than_cpu(self):
        for ops in (1e6, 1e8, 1e10):
            assert GpuModel().latency_ms(ops) < CpuModel().latency_ms(ops)


class TestEieModel:
    def test_runs_at_285mhz(self):
        assert EieLikeModel().config.frequency_mhz == 285.0

    def test_no_rebalancing(self):
        cfg = EieLikeModel().config
        assert cfg.hop == 0 and not cfg.remote_switching

    def test_close_to_baseline(self, tiny_nell):
        eie = EieLikeModel(n_pes=16).evaluate(tiny_nell)
        baseline = GcnAccelerator(
            tiny_nell, ArchConfig(n_pes=16, frequency_mhz=275.0)
        ).run()
        # Same cycles, different clocks: EIE is ~3.6% faster.
        assert eie.latency_ms == pytest.approx(
            baseline.latency_ms * 275.0 / 285.0, rel=0.01
        )


class TestEnergy:
    def test_energy_formula(self):
        assert energy_joules("cpu", 1000.0) == pytest.approx(135.0)

    def test_paper_cpu_cora_efficiency(self):
        # 3.90 ms at 135 W -> ~1.9E3 inferences/kJ (paper: 1.90E3).
        assert inferences_per_kilojoule("cpu", 3.90) == pytest.approx(
            1.90e3, rel=0.03
        )

    def test_paper_awb_cora_efficiency(self):
        # 0.011 ms at 38 W -> ~2.4E6 inferences/kJ (paper: 2.38E6).
        assert inferences_per_kilojoule("awb", 0.011) == pytest.approx(
            2.38e6, rel=0.03
        )

    def test_unknown_platform_raises(self):
        with pytest.raises(ConfigError):
            energy_joules("tpu", 1.0)

    def test_negative_latency_raises(self):
        with pytest.raises(ConfigError):
            energy_joules("cpu", -1.0)

    def test_zero_latency_infinite_efficiency(self):
        assert inferences_per_kilojoule("cpu", 0.0) == float("inf")
