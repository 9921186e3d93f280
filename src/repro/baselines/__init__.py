"""Comparison platforms for the Table 3 cross-platform evaluation.

The paper compares its accelerator against PyTorch on a Xeon E5-2698V4,
PyTorch+cuSPARSE on a Tesla P100, an EIE-like reference design, and the
no-rebalancing baseline. None of that hardware is available offline,
so each platform is a substitute:

* CPU — an analytic model calibrated against the paper's published
  Xeon latencies;
* GPU — an analytic throughput+overhead model calibrated against the
  paper's published P100 numbers (no GPU in this environment);
* EIE — the baseline engine clocked at 285 MHz (the paper itself calls
  its EIE reference "similar to our baseline design with TDQ-1");
* energy — constant platform power times latency, with powers
  back-derived from the paper's own latency/energy pairs.
"""

from repro.baselines.platforms import PlatformResult
from repro.baselines.cpu import CpuModel
from repro.baselines.gpu import GpuModel
from repro.baselines.eie import EieLikeModel
from repro.baselines.energy import (
    PLATFORM_POWER_WATTS,
    energy_joules,
    inferences_per_kilojoule,
)

__all__ = [
    "PlatformResult",
    "CpuModel",
    "GpuModel",
    "EieLikeModel",
    "PLATFORM_POWER_WATTS",
    "energy_joules",
    "inferences_per_kilojoule",
]
