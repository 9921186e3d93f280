"""The AWB-GCN accelerator model — the paper's primary contribution.

This package implements the fast (vectorized) cycle model of the SPMM
engine and its two rebalancing mechanisms:

* :mod:`repro.accel.localshare` — dynamic local sharing (paper Sec. 4.1):
  the achievable round makespan when each PE may offload tasks to
  neighbours within ``hop`` positions, plus the online convergence
  behaviour;
* :mod:`repro.accel.remote` — dynamic remote switching (Sec. 4.2):
  the PESM hotspot/coldspot tracker and the Eq. 5 auto-tuner that
  migrates rows between remote PEs round by round;
* :mod:`repro.accel.cyclemodel` — per-SPMM cycle/utilization simulation
  combining partitioning, sharing, switching, the RaW cooldown bound and
  per-round drain overhead;
* :mod:`repro.accel.gcnaccel` — full GCN inference: four SPMM jobs per
  2-layer network, chained with the Fig. 8 column pipeline;
* :mod:`repro.accel.designs` — the paper's five design points (baseline,
  A, B, C, D) and their per-dataset hop overrides;
* :mod:`repro.accel.resources` — the CLB area model of Fig. 14 K-O.

The detailed event-driven simulator lives separately in :mod:`repro.hw`
and validates this model on small inputs.
"""

from repro.accel.config import ArchConfig
from repro.accel.workload import (
    RowAssignment,
    initial_assignment,
    per_pe_loads,
)
from repro.accel.localshare import (
    share_effective_loads,
    share_makespan,
    share_makespan_batch,
    share_window_bounds_batch,
)
from repro.accel.remote import RemoteAutoTuner, TrackedTuple
from repro.accel.cyclemodel import (
    SpmmJob,
    SpmmResult,
    simulate_spmm,
    simulate_spmm_frozen,
)
from repro.accel.gcnaccel import (
    AcceleratorReport,
    CachedStage,
    CachedTuning,
    GcnAccelerator,
    LayerTiming,
    build_spmm_jobs,
    jobs_for_layers,
    slice_jobs,
)
from repro.accel.designs import (
    DESIGN_NAMES,
    design_config,
    design_hops,
    run_design_suite,
)
from repro.accel.resources import ResourceModel, estimate_resources

__all__ = [
    "ArchConfig",
    "RowAssignment",
    "initial_assignment",
    "per_pe_loads",
    "share_effective_loads",
    "share_makespan",
    "share_makespan_batch",
    "share_window_bounds_batch",
    "RemoteAutoTuner",
    "TrackedTuple",
    "SpmmJob",
    "SpmmResult",
    "simulate_spmm",
    "simulate_spmm_frozen",
    "AcceleratorReport",
    "CachedStage",
    "CachedTuning",
    "GcnAccelerator",
    "LayerTiming",
    "build_spmm_jobs",
    "jobs_for_layers",
    "slice_jobs",
    "DESIGN_NAMES",
    "design_config",
    "design_hops",
    "run_design_suite",
    "ResourceModel",
    "estimate_resources",
]
