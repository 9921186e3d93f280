"""Hardware resource (area) model — Fig. 14 K-O.

The paper normalizes area to Configurable Logic Blocks (CLBs) and splits
it into the task queues (TQ, the red bars) versus everything else (the
green bars), observing that (i) rebalancing logic adds only 2.7% /
4.3% / 1.9% of baseline area for 1-hop sharing, 2-hop sharing and remote
switching, and (ii) balanced workloads shrink the TQ depth dramatically
(Nell: 65128 slots -> 2675), so the rebalancing designs can be *smaller*
overall than the baseline.

Per-unit CLB constants below are engineering estimates for a
VCU118-class part (a CLB = 8 LUT6 + 16 FF): a double-precision-capable
MAC plus AGU control fits in ~45 CLBs of soft logic around a DSP slice,
an Omega-network 2x2 switch with credit buffering ~6, an ACC bank
controller ~14, and a TQ slot (a few bytes of SRL/LUTRAM plus pointer
logic) ~1/16 CLB. Absolute numbers are not the point — relative shape
across designs and datasets is, and that is set by the measured queue
backlogs and the published overhead percentages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

CLB_PER_PE = 45.0
CLB_PER_SWITCH = 6.0
CLB_PER_ACC_BANK = 14.0
CLB_PER_TQ_SLOT = 1.0 / 256.0
"""Queue slots live in LUTRAM/SRL primitives: a 32-deep shift register
costs about one LUT, so a slot is a small fraction of a CLB."""
MIN_TQ_SLOTS = 16
"""Floor on per-PE queue depth: even perfectly balanced designs keep a
small landing buffer per queue."""

LOCAL_SHARING_OVERHEAD = {0: 0.0, 1: 0.027, 2: 0.043, 3: 0.059}
"""Published rebalance-logic overheads (fraction of baseline area) for
1-hop and 2-hop sharing; 3-hop extrapolated at the same per-hop slope."""
REMOTE_SWITCHING_OVERHEAD = 0.019


@dataclass(frozen=True)
class ResourceModel:
    """CLB breakdown of one design point."""

    pe_array_clb: float
    network_clb: float
    acc_clb: float
    tq_clb: float
    rebalance_clb: float

    @property
    def other_clb(self):
        """Everything but the task queues (the green Fig. 14 area)."""
        return (
            self.pe_array_clb
            + self.network_clb
            + self.acc_clb
            + self.rebalance_clb
        )

    @property
    def total_clb(self):
        """Total CLB count."""
        return self.other_clb + self.tq_clb

    @property
    def tq_fraction(self):
        """Share of area spent on task queues."""
        return self.tq_clb / self.total_clb if self.total_clb else 0.0


def estimate_resources(config, *, tq_depth):
    """Area estimate for ``config`` with measured per-PE ``tq_depth``.

    RTL provisions every PE's queues at the same depth, so area scales
    with the *worst* steady-state backlog: pass the max
    ``final_backlog`` across the inference's SPMM jobs (the paper's 'TQ
    depth', e.g. Nell baseline 65128 -> Design D 2675 — exactly the
    reduction that lets the rebalanced designs be smaller overall).
    """
    if tq_depth < 0:
        raise ConfigError(f"tq_depth must be >= 0, got {tq_depth}")
    n = config.n_pes
    pe_array = n * CLB_PER_PE
    stages = int(np.ceil(np.log2(max(n, 2))))
    network = (n / 2) * stages * CLB_PER_SWITCH
    acc = n * CLB_PER_ACC_BANK
    base_area = pe_array + network + acc

    local_fraction = LOCAL_SHARING_OVERHEAD.get(config.hop)
    if local_fraction is None:
        # Extrapolate beyond 3 hops linearly (the paper stops at 3).
        local_fraction = LOCAL_SHARING_OVERHEAD[3] + 0.016 * (config.hop - 3)
    rebalance = base_area * local_fraction
    if config.remote_switching:
        rebalance += base_area * REMOTE_SWITCHING_OVERHEAD

    tq = n * (int(tq_depth) + MIN_TQ_SLOTS) * CLB_PER_TQ_SLOT
    return ResourceModel(
        pe_array_clb=pe_array,
        network_clb=network,
        acc_clb=acc,
        tq_clb=tq,
        rebalance_clb=rebalance,
    )


def report_tq_depth(report):
    """Peak per-PE steady-state TQ depth across the inference's jobs.

    This is the paper's headline 'TQ depth' number (Nell baseline 65128
    vs 2675 for Design D).
    """
    return max(result.final_backlog for result in report.spmm_results)

