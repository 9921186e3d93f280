"""AWB-GCN reproduction: a GCN accelerator with runtime workload rebalancing.

This library reproduces *AWB-GCN: A Graph Convolutional Network
Accelerator with Runtime Workload Rebalancing* (MICRO 2020; arXiv
preprint titled UWB-GCN) as a pure-Python system:

* :mod:`repro.sparse`   — from-scratch COO/CSR/CSC formats and kernels;
* :mod:`repro.datasets` — Table-1-calibrated synthetic dataset substrate;
* :mod:`repro.model`    — numpy reference GCN (Eq. 1) and the Table 2
  computation-order analysis;
* :mod:`repro.accel`    — the accelerator cycle model: baseline SPMM
  engine, dynamic local sharing, Eq. 5 remote switching, Fig. 8
  pipelining, and the CLB area model;
* :mod:`repro.hw`       — a detailed cycle-level simulator (Omega
  network, task queues, RaW-stalling MAC pipelines) for validation;
* :mod:`repro.baselines`— CPU / GPU / EIE-like comparison platforms and
  the energy model;
* :mod:`repro.analysis` — regeneration of every table and figure;
* :mod:`repro.serve`    — batched multi-graph inference serving with
  autotune caching (scheduler, accelerator pool);
* :mod:`repro.cluster`  — sharded multi-chip execution with chip-level
  runtime rebalancing (``benchmarks/bench_shard_scaling.py``);
* :mod:`repro.obs`      — event tracing on the simulated clock and
  Chrome-trace export (``repro trace``).

Quickstart::

    from repro import load_dataset, ArchConfig, GcnAccelerator

    dataset = load_dataset("cora")
    report = GcnAccelerator(dataset, ArchConfig(n_pes=256, hop=1,
                                                remote_switching=True)).run()
    print(report.utilization, report.latency_ms)
"""

from repro.accel import (
    ArchConfig,
    GcnAccelerator,
    SpmmJob,
    simulate_spmm,
    design_config,
    run_design_suite,
)
from repro.datasets import GcnDataset, build_dataset, load_dataset
from repro.errors import ReproError
from repro.hw import simulate_spmm_detailed
from repro.model import GcnModel, build_model
from repro.serve import (
    AutotuneCache,
    InferenceRequest,
    InferenceService,
    serve_requests,
    synthetic_traffic,
)
from repro.sparse import CooMatrix, CscMatrix, CsrMatrix

__version__ = "1.0.0"

__all__ = [
    "ArchConfig",
    "GcnAccelerator",
    "SpmmJob",
    "simulate_spmm",
    "design_config",
    "run_design_suite",
    "GcnDataset",
    "build_dataset",
    "load_dataset",
    "ReproError",
    "simulate_spmm_detailed",
    "GcnModel",
    "build_model",
    "AutotuneCache",
    "InferenceRequest",
    "InferenceService",
    "serve_requests",
    "synthetic_traffic",
    "CooMatrix",
    "CscMatrix",
    "CsrMatrix",
    "__version__",
]
