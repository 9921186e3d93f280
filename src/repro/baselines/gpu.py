"""GPU (Tesla P100 + cuSPARSE) latency model.

No GPU exists in this environment, so the model is analytic: effective
sparse throughput plus per-inference launch overhead, calibrated against
the paper's published P100 latencies and Table 2 operation counts:

    dataset   ops     paper latency   implied GFLOP/s
    cora      1.33M   1.78 ms         ~0.9 (overhead-bound)
    citeseer  2.23M   2.09 ms         ~1.4 (overhead-bound)
    pubmed    18.6M   7.71 ms         3.0
    nell      782M    130.7 ms        6.0
    reddit    6.6G    2.43 s          2.7

cuSPARSE SPMM on power-law matrices is memory-bound and itself suffers
load imbalance between warps, hence single-digit effective GFLOP/s on a
10-TFLOP part; large, denser inputs (Reddit) get *worse* per-op because
the working set spills cache. The model uses 6 GFLOP/s for graphs under
1G ops, degrading to 2.7 GFLOP/s above, plus 1.5 ms overhead.
"""

from __future__ import annotations

from repro.baselines.energy import PLATFORM_POWER_WATTS
from repro.baselines.platforms import PlatformResult

GPU_SMALL_GFLOPS = 6.0
GPU_LARGE_GFLOPS = 2.7
GPU_LARGE_THRESHOLD_OPS = 1e9
GPU_OVERHEAD_MS = 1.5


class GpuModel:
    """Analytic P100 latency from operation counts, at the calibrated
    module constants above."""

    def latency_ms(self, total_ops):
        """Latency for an inference needing ``total_ops`` multiplications."""
        gflops = (
            GPU_SMALL_GFLOPS
            if total_ops < GPU_LARGE_THRESHOLD_OPS
            else GPU_LARGE_GFLOPS
        )
        return total_ops / (gflops * 1e9) * 1e3 + GPU_OVERHEAD_MS

    def evaluate(self, dataset_name, total_ops):
        """Build a :class:`PlatformResult` for one dataset."""
        return PlatformResult(
            platform="gpu",
            dataset=dataset_name,
            latency_ms=self.latency_ms(total_ops),
            power_watts=PLATFORM_POWER_WATTS["gpu"],
        )
