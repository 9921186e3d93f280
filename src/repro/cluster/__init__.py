"""Sharded multi-chip execution with inter-chip rebalancing.

The paper scales one chip to 1024 PEs (Fig. 15); production graphs
outgrow any single chip. This package adds the next level of the
hierarchy — a *cluster* of AWB-GCN chips executing one graph — by
generalizing the paper's own mechanisms one level up:

* :mod:`repro.cluster.partition` — contiguous row-block partitioning
  (``"rows"`` static / ``"nnz"`` greedy-balanced) into a
  :class:`ShardPlan`, plus the :class:`HaloExchange` feature-row sets
  each chip must receive before aggregation;
* :mod:`repro.cluster.exec` — numerically exact sharded SpMM / GCN
  forward (each chip touches only its rows + halo), proving the
  partition reassembles the unpartitioned result bit-for-bit;
* :mod:`repro.cluster.multichip` — the multi-chip cycle model: per-chip
  single-chip simulations (autotune cache and all) composed with a
  halo-bandwidth + per-layer-barrier communication model, and a
  chip-level rebalancer that migrates row blocks between chips using
  the same Eq. 5 utilization signal (per-chip observed load) and the
  SLT's ``gap / 2`` transfer rule, as contiguity-preserving boundary
  diffusion along the chip chain. A :class:`ShardedAccelerator` keeps
  one graph's plans, halo sets and per-chip accelerators across runs.

The serving layer (:class:`repro.serve.InferenceService`) plans
requests whose graphs exceed a per-chip capacity as sharded jobs across
its instance pool; ``repro shard-bench`` sweeps weak/strong scaling.

Quickstart::

    from repro.cluster import ClusterConfig, simulate_multichip_gcn
    from repro.serve import RmatGraphSpec

    dataset = RmatGraphSpec(n_nodes=8192, seed=1).build()
    report = simulate_multichip_gcn(dataset, ClusterConfig(n_chips=4))
    print(report.total_cycles, report.comm_fraction,
          report.rebalance.migrated_blocks)
"""

from repro.cluster.partition import (
    PARTITION_STRATEGIES,
    HaloExchange,
    ShardPlan,
    check_capacities,
    check_row_ceilings,
    halo_exchange,
    make_plan,
)
from repro.cluster.topology import (
    TOPOLOGY_KINDS,
    Topology,
    make_topology,
    subtopology,
)
from repro.cluster.exec import (
    reference_forward,
    sharded_gcn_forward,
    sharded_spmm,
)
from repro.cluster.multichip import (
    REBALANCE_SIGNALS,
    ClusterConfig,
    ClusterReport,
    RebalanceInfo,
    ShardedAccelerator,
    StragglerEvent,
    rebalance_plan,
    simulate_multichip_gcn,
)

__all__ = [
    "PARTITION_STRATEGIES",
    "REBALANCE_SIGNALS",
    "TOPOLOGY_KINDS",
    "HaloExchange",
    "ShardPlan",
    "Topology",
    "check_capacities",
    "check_row_ceilings",
    "halo_exchange",
    "make_plan",
    "make_topology",
    "subtopology",
    "reference_forward",
    "sharded_gcn_forward",
    "sharded_spmm",
    "ClusterConfig",
    "ClusterReport",
    "RebalanceInfo",
    "ShardedAccelerator",
    "StragglerEvent",
    "rebalance_plan",
    "simulate_multichip_gcn",
]
