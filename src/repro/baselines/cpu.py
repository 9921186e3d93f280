"""CPU (PyTorch on Xeon E5-2698V4) latency model.

The paper's CPU runs the ``A (X W)`` order through PyTorch, which calls
sparse kernels whose *effective* throughput on these workloads is far
below peak — back-solving the published Table 3 latencies against the
Table 2 operation counts gives a consistent 0.4-0.6 effective GFLOP/s
plus ~1 ms of framework overhead:

    dataset   ops (Table 2)   paper latency   implied GFLOP/s
    cora      1.33M           3.90 ms         0.34
    citeseer  2.23M           4.33 ms         0.52
    pubmed    18.6M           34.15 ms        0.54
    nell      782M            1.61 s          0.49
    reddit    6.6G            10.8 s          0.61

The model uses 0.5 GFLOP/s + 1.0 ms. It is analytic on purpose: the
host running this reproduction is not the paper's Xeon, so a measured
time would not compare with the published numbers Table 3 reports.
"""

from __future__ import annotations

from repro.baselines.energy import PLATFORM_POWER_WATTS
from repro.baselines.platforms import PlatformResult
from repro.model.ordering import count_ops_a_xw

CPU_EFFECTIVE_GFLOPS = 0.5
CPU_OVERHEAD_MS = 1.0


class CpuModel:
    """Analytic CPU latency from the ``A (X W)`` operation counts, at
    the calibrated ``CPU_EFFECTIVE_GFLOPS`` plus ``CPU_OVERHEAD_MS``."""

    def latency_ms(self, total_ops):
        """Latency for an inference needing ``total_ops`` multiplications."""
        compute_ms = total_ops / (CPU_EFFECTIVE_GFLOPS * 1e9) * 1e3
        return compute_ms + CPU_OVERHEAD_MS

    def evaluate(self, dataset_name, total_ops):
        """Build a :class:`PlatformResult` for one dataset."""
        return PlatformResult(
            platform="cpu",
            dataset=dataset_name,
            latency_ms=self.latency_ms(total_ops),
            power_watts=PLATFORM_POWER_WATTS["cpu"],
        )


def total_inference_ops(dataset):
    """Multiplication count of a 2-layer GCN in the ``A (X W)`` order."""
    a_nnz = dataset.adjacency.nnz
    _f1, f2, f3 = dataset.feature_dims
    x1_nnz = int(dataset.x1_row_nnz.sum())
    x2_nnz = int(dataset.x2_row_nnz.sum())
    layer1 = count_ops_a_xw(a_nnz, x1_nnz, f2)
    layer2 = count_ops_a_xw(a_nnz, x2_nnz, f3)
    return layer1 + layer2

