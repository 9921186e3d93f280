"""Multi-chip cycle model with chip-level runtime rebalancing.

One chip is one AWB-GCN instance (an :class:`~repro.accel.ArchConfig`
PE array simulated by :func:`~repro.accel.cyclemodel.simulate_spmm`);
a *cluster* is ``n_chips`` of them — identical by default, or a
heterogeneous mix via :attr:`ClusterConfig.chips` — connected by a
routed fabric (:class:`~repro.cluster.topology.Topology`:
``all-to-all``, ``ring`` or ``mesh2d``), executing one graph under a
:class:`~repro.cluster.partition.ShardPlan`.

Composition model, per GCN layer:

* every chip runs its sliced jobs (XW + aggregation hops) through the
  ordinary single-chip pipeline (:class:`~repro.accel.GcnAccelerator`
  over :func:`~repro.accel.gcnaccel.slice_jobs`), autotune cache and
  all, *at its own clock*; per-chip cycles are converted to the
  cluster's reference clock (chip 0's) before composition;
* before aggregation it must receive its halo rows of the dense
  intermediate; each chip-pair's flow is priced over its route through
  the fabric — contended links sum their traffic — instead of the old
  flat per-chip ingress scalar;
* with ``overlap=False`` (the default, bit-identical to the serialized
  PR 4 model) a chip's layer cost is ``compute + comm``; with
  ``overlap=True`` the halo transfer is double-buffered behind compute:
  the cost becomes ``max(compute, comm) + exposed_tail``, where the
  exposed tail is the first buffer fill (one dense column's halo) that
  nothing can hide;
* a layer ends at a barrier (the next layer's ``X W`` needs the full
  previous output), so the layer costs the *slowest* chip's composed
  cost, plus a fixed :data:`BARRIER_CYCLES` sync overhead.

Chip-level rebalancing lifts the paper's mechanism one level up: the
row blocks of the plan play the role of rows, chips play the role of
PEs. Two migration signals are available (Eq. 5's core idea is that the
signal should be *observed* imbalance):

* ``rebalance_signal="load"`` — the per-chip capacity-normalized load
  (owned nnz / relative chip throughput) approximates per-chip time
  without running anything; boundary blocks diffuse between adjacent
  chips, each pair exchanging up to half its *time* gap per round (the
  intra-chip SLT's ``work_target = gap / 2`` selection rule, Sec. 4.2,
  measured in time so a fast chip absorbs proportionally more work);
* ``rebalance_signal="cycles"`` — cycle feedback: each round actually
  simulates the chips, observes their measured reference-clock cycles,
  and diffuses on *that* signal (each chip's marginal cost per nnz is
  estimated from its own measurement). Internally-clustered shards
  whose nnz balance but whose intra-chip structure stays slow — the
  regime static load balancing cannot see — migrate under this mode.

Both modes preserve contiguity (diffusion on the chip chain keeps
shards contiguous and halos small), freeze after
:data:`REBALANCE_PATIENCE` rounds without improvement and restore the
best map seen (the load signal runs at most
:data:`MAX_REBALANCE_ROUNDS` rounds), and migrated blocks pay for their
adjacency-structure transfer (:data:`MIGRATION_WORDS_PER_NNZ` words per
moved non-zero) over the fabric before execution starts.

A :class:`ShardedAccelerator` binds the model to one graph, ``a_hops``
and cluster shape and keeps what those determine — the plans, their
halo sets, their exclusive-fabric prices, the per-chip accelerators
and each plan's last composed exclusive-fabric report — across runs;
:func:`simulate_multichip_gcn` is a thin wrapper over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import is_

import numpy as np

from repro.accel.config import ArchConfig
# Unused here since each chip runs through its own GcnAccelerator;
# hostbench/layers.py still patches this name on this module.
from repro.accel.cyclemodel import simulate_spmm  # noqa: F401
from repro.accel.gcnaccel import GcnAccelerator, build_spmm_jobs, slice_jobs
from repro.cluster.partition import (
    PARTITION_STRATEGIES,
    ShardPlan,
    check_capacities,
    check_row_ceilings,
    halo_exchange,
    make_plan,
)
from repro.cluster.topology import TOPOLOGY_KINDS, Topology, make_topology
from repro.errors import CeilingError, ConfigError
from repro.utils.validation import (
    check_bool,
    check_choice,
    check_instance,
    check_non_negative_finite,
    check_non_negative_int,
    check_positive_finite,
    check_positive_int,
)

REBALANCE_SIGNALS = ("load", "cycles")
BARRIER_CYCLES = 64
"""Per-layer synchronization overhead, charged once per GCN layer when
``n_chips > 1``."""
MIGRATION_WORDS_PER_NNZ = 2
"""Fabric words charged per migrated adjacency non-zero (index +
value)."""
MAX_REBALANCE_ROUNDS = 16
"""Upper bound on load-signal rebalancing rounds (the controller
usually freezes earlier, after :data:`REBALANCE_PATIENCE`)."""
REBALANCE_PATIENCE = 2
"""Rounds without improvement before the chip-level block map freezes
(Eq. 5 patience, chip level); both signals honor it."""


@dataclass(frozen=True)
class StragglerEvent:
    """One chip slowing down partway through a run.

    ``chip`` is the affected chip id; from tuner round ``onset_round``
    onward its simulated compute runs ``factor`` times slower (thermal
    throttling, a contended memory channel, a failing board). A
    fractional ``onset_round`` lands *inside* a feedback round: that
    round's measurement blends the clean and slowed rates in proportion
    to coverage, which is what lets the ``"cycles"`` signal react
    mid-round instead of only at round boundaries. Steady-state
    composition (what the final report charges) always applies the full
    factor.
    """

    chip: int
    onset_round: float = 0.0
    factor: float = 2.0

    def __post_init__(self):
        chip = check_non_negative_int(self.chip, "straggler chip")
        onset = check_non_negative_finite(
            self.onset_round, "straggler onset_round"
        )
        factor = check_positive_finite(self.factor, "straggler factor")
        if factor < 1.0:
            raise ConfigError(
                f"straggler factor must be >= 1.0, got {self.factor}"
            )
        object.__setattr__(self, "chip", chip)
        object.__setattr__(self, "onset_round", onset)
        object.__setattr__(self, "factor", factor)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that defines a multi-chip deployment.

    What every deployment shares is a module constant, not a field: the
    per-layer barrier (:data:`BARRIER_CYCLES`), the migration price
    (:data:`MIGRATION_WORDS_PER_NNZ`) and the chip-level controller's
    bounds (:data:`MAX_REBALANCE_ROUNDS`, :data:`REBALANCE_PATIENCE`).

    Parameters
    ----------
    n_chips:
        Number of accelerator chips executing one sharded graph.
    chip:
        The per-chip :class:`~repro.accel.ArchConfig` when the cluster
        is homogeneous. When ``chips`` is given this field is overridden
        to ``chips[0]`` — the *reference chip* whose clock defines the
        cluster's cycle domain.
    chips:
        Optional per-chip :class:`~repro.accel.ArchConfig` sequence
        (length ``n_chips``) for heterogeneous clusters: chips may
        differ in PE count and frequency. None (default) replicates
        ``chip``. Per-chip relative capacity (PEs x frequency) drives
        the capacity-normalized partitioner and rebalancer — migration
        targets equal *time*, not equal load.
    link_words_per_cycle:
        Bandwidth of each individual directed fabric link in dense words
        per reference-chip cycle (8.0 ~ a 256-bit link at core clock).
        Must be finite.
    topology:
        Fabric kind (``"all-to-all"``, ``"ring"``, ``"mesh2d"``) or a
        prebuilt :class:`~repro.cluster.topology.Topology`. The default
        all-to-all with zero hop latency reproduces the PR 4 flat
        ingress model bit-for-bit.
    hop_latency_cycles:
        Fixed per-hop transit latency charged on every fabric flow
        (ignored when ``topology`` is a prebuilt instance, which
        carries its own).
    overlap:
        Double-buffer halo transfers behind compute. Default False
        keeps the serialized ``compute + comm`` layer model.
    strategy:
        Initial partition strategy (``"rows"`` or ``"nnz"``, see
        :func:`~repro.cluster.partition.make_plan`).
    blocks_per_chip:
        Migration granularity: initial row blocks per chip.
    rebalance:
        Enables the chip-level Eq. 5 block rebalancer.
    rebalance_signal:
        ``"load"`` (capacity-normalized owned nnz, the static signal)
        or ``"cycles"`` (measured per-chip cycles fed back round by
        round — each feedback round re-simulates the chips).
    feedback_rounds:
        Migration sweeps the ``"cycles"`` signal may run (each costs
        one full per-chip simulation pass).
    row_ceilings:
        Optional hard per-chip row budgets (length ``n_chips``). With
        them set, the initial plan and every migration are constrained
        so no chip ever owns more rows than its ceiling
        (:class:`~repro.errors.CeilingError` when infeasible). None
        (default) keeps the unconstrained behavior bit-identical.
    stragglers:
        Optional :class:`StragglerEvent` sequence: chips that slow
        down mid-run.
        Steady-state composition charges the full slowdown; the
        ``"cycles"`` feedback signal observes it per round (including
        a blended mid-round measurement at a fractional onset) and
        migrates work off the slowed chip. None (default) is
        bit-identical to no stragglers.

    The traffic other concurrent jobs keep on the fabric is not a field:
    it belongs to one run, and :func:`simulate_multichip_gcn` takes it
    as ``background=``.
    """

    n_chips: int = 4
    chip: ArchConfig = field(default_factory=ArchConfig)
    chips: tuple = None
    link_words_per_cycle: float = 8.0
    topology: object = "all-to-all"
    hop_latency_cycles: int = 0
    overlap: bool = False
    strategy: str = "nnz"
    blocks_per_chip: int = 8
    rebalance: bool = True
    rebalance_signal: str = "load"
    feedback_rounds: int = 4
    row_ceilings: tuple = None
    stragglers: tuple = None

    def __post_init__(self):
        check_positive_int(self.n_chips, "n_chips")
        if self.chips is not None:
            chips = tuple(self.chips)
            if len(chips) != self.n_chips:
                raise ConfigError(
                    f"chips must have one ArchConfig per chip "
                    f"({self.n_chips}), got {len(chips)}"
                )
            for cfg in chips:
                check_instance(cfg, ArchConfig, "chips entries")
            object.__setattr__(self, "chips", chips)
            # The reference chip: its clock is the report's cycle domain.
            object.__setattr__(self, "chip", chips[0])
        check_instance(self.chip, ArchConfig, "chip")
        check_positive_finite(
            self.link_words_per_cycle, "link_words_per_cycle"
        )
        if isinstance(self.topology, Topology):
            if self.topology.n_chips != self.n_chips:
                raise ConfigError(
                    f"topology connects {self.topology.n_chips} chips "
                    f"but the cluster has {self.n_chips}"
                )
        else:
            check_choice(self.topology, TOPOLOGY_KINDS, "topology")
        check_non_negative_int(self.hop_latency_cycles, "hop_latency_cycles")
        for name in ("overlap", "rebalance"):
            value = check_bool(getattr(self, name), name)
            object.__setattr__(self, name, value)
        check_choice(self.strategy, PARTITION_STRATEGIES, "strategy")
        check_choice(self.rebalance_signal, REBALANCE_SIGNALS,
                     "rebalance_signal")
        check_positive_int(self.blocks_per_chip, "blocks_per_chip")
        check_positive_int(self.feedback_rounds, "feedback_rounds")
        if self.row_ceilings is not None:
            ceilings = check_row_ceilings(self.row_ceilings, self.n_chips)
            object.__setattr__(
                self, "row_ceilings", tuple(int(c) for c in ceilings)
            )
        if self.stragglers is not None:
            events = []
            for ev in self.stragglers:
                check_instance(ev, StragglerEvent, "stragglers entries")
                if ev.chip >= self.n_chips:
                    raise ConfigError(
                        f"straggler chip {ev.chip} out of range for "
                        f"{self.n_chips} chips"
                    )
                events.append(ev)
            object.__setattr__(
                self, "stragglers", tuple(events) if events else None
            )

    @property
    def chip_configs(self):
        """Per-chip :class:`~repro.accel.ArchConfig` (length ``n_chips``)."""
        if self.chips is not None:
            return self.chips
        return (self.chip,) * self.n_chips

    def chip_for(self, chip):
        """The :class:`~repro.accel.ArchConfig` of chip ``chip``."""
        return self.chip_configs[chip]

    def capacities(self):
        """Relative per-chip compute throughput (reference chip = 1.0).

        Capacity is ``n_pes x frequency`` — MACs per unit wall time —
        normalized so a homogeneous cluster yields exact ones (the
        capacity-aware arithmetic then reduces bit-for-bit to the
        homogeneous paths).
        """
        ref = self.chip.n_pes * self.chip.frequency_mhz
        raw = [
            cfg.n_pes * cfg.frequency_mhz / ref for cfg in self.chip_configs
        ]
        return check_capacities(raw, self.n_chips)

    @property
    def fabric(self):
        """The resolved :class:`~repro.cluster.topology.Topology`, memoized."""
        cached = self.__dict__.get("_fabric")
        if cached is None:
            if isinstance(self.topology, Topology):
                cached = self.topology
            else:
                cached = make_topology(
                    self.topology,
                    self.n_chips,
                    link_words_per_cycle=self.link_words_per_cycle,
                    hop_latency_cycles=self.hop_latency_cycles,
                )
            object.__setattr__(self, "_fabric", cached)
        return cached

    def ref_cycles(self, cycles, chip_config):
        """Convert one chip's own-clock cycles to reference-chip cycles.

        Exact (no float round trip) when the frequencies match, which
        keeps homogeneous clusters bit-identical to the PR 4 model.
        """
        if chip_config.frequency_mhz == self.chip.frequency_mhz:
            return int(cycles)
        return int(math.ceil(
            cycles * self.chip.frequency_mhz / chip_config.frequency_mhz
        ))


@dataclass(frozen=True)
class RebalanceInfo:
    """What the chip-level Eq. 5 controller did to one plan."""

    rounds: int
    converged_round: object  # int | None
    migrated_blocks: int
    migrated_nnz: int
    gap_history: tuple
    """Per-round hotspot/coldspot gap the controller observed: load gap
    (capacity-normalized when chips differ) for the ``"load"`` signal,
    measured reference-cycle gap for ``"cycles"``."""
    signal: str = "load"
    """Which migration signal produced this outcome."""

    @property
    def migrated(self):
        """Whether any block changed chips."""
        return self.migrated_blocks > 0


def _noop_info(signal="load"):
    return RebalanceInfo(
        rounds=0, converged_round=None, migrated_blocks=0,
        migrated_nnz=0, gap_history=(), signal=signal,
    )


def _plan_bounds(plan):
    """Contiguous run bounds of a plan's owner array (validates)."""
    if np.any(np.diff(plan.owner) < 0):
        raise ConfigError(
            "boundary-diffusion rebalancing requires a contiguous plan "
            "(owner sorted in chip-id runs)"
        )
    counts = np.bincount(plan.owner, minlength=plan.n_chips)
    return np.concatenate(([0], np.cumsum(counts)))


def _check_rebalance_inputs(plan, cluster):
    check_instance(plan, ShardPlan, "plan")
    if plan.n_chips != cluster.n_chips:
        raise ConfigError(
            f"plan shards across {plan.n_chips} chips but the cluster "
            f"has {cluster.n_chips}"
        )


def _straggler_multipliers(cluster, round_index=None):
    """Per-chip compute slowdown factors, or None when all are 1.0.

    ``round_index=None`` gives the *steady-state* multipliers (every
    event fully active — what final composition charges). With a round
    index, an event contributes 1.0 before its onset, its full factor
    once the round starts at or after the onset, and a coverage-blended
    factor for the round the onset lands inside: a round covering
    ``[r, r + 1)`` with onset at ``r + x`` runs a ``1 - x`` fraction
    slowed, so its measured rate is ``x + (1 - x) * factor`` — the
    mid-round measurement the feedback signal reacts to.
    """
    if not cluster.stragglers:
        return None
    mult = np.ones(cluster.n_chips, dtype=np.float64)
    for ev in cluster.stragglers:
        if round_index is None or round_index >= ev.onset_round:
            factor = ev.factor
        elif round_index + 1 <= ev.onset_round:
            factor = 1.0
        else:
            covered = (round_index + 1) - ev.onset_round
            factor = (1.0 - covered) + covered * ev.factor
        mult[ev.chip] *= factor
    if np.all(mult == 1.0):
        return None
    return mult


def _pending_onset(cluster, round_index):
    """Whether any straggler has yet to take full effect by this round."""
    if not cluster.stragglers:
        return False
    return any(ev.onset_round > round_index for ev in cluster.stragglers)


def _diffuse_pairs(bounds, weights, chip_time, marginal, block_rows,
                   row_ceilings):
    """One boundary-diffusion sweep toward equal per-chip *time*.

    ``bounds`` are the chips' contiguous block bounds, shifted in
    place; ``block_rows`` holds each block's row count. ``chip_time[c]``
    is chip ``c``'s current time estimate and ``marginal[c]`` its
    estimated time per unit of block weight; both stay fixed within the
    sweep while ``chip_time`` is updated incrementally as blocks move.

    In each adjacent pair, left to right, the hotter chip is the giver
    and the colder one the taker. The giver hands over its boundary
    blocks one at a time, nearest the boundary first: the left chip
    its tail, the right chip its head. It stops before the transferred
    time would exceed half the pair's gap (the SLT rule), and it always
    keeps its farthest block. Unless ``row_ceilings`` is None, the
    taker also stops before its rows, counted from ``bounds`` and
    ``block_rows``, would exceed its hard ceiling; the giver only
    shrinks, so it stays feasible by construction. Returns True when
    any block moved.
    """
    moved_any = False
    for left in range(chip_time.size - 1):
        gap = chip_time[left] - chip_time[left + 1]
        if gap == 0:
            continue
        if gap > 0:
            giver, taker = left, left + 1
            blocks = range(bounds[left + 1] - 1, bounds[left], -1)
        else:
            giver, taker = left + 1, left
            blocks = range(bounds[left + 1], bounds[left + 2] - 1)
        target = abs(gap) / 2.0
        # Rows the taker can still take under its ceiling.
        room = math.inf if row_ceilings is None else (
            row_ceilings[taker]
            - block_rows[bounds[taker]:bounds[taker + 1]].sum()
        )
        shifted, acc = 0, 0.0
        for b in blocks:
            w = float(weights[b])
            dt = w * marginal[giver]
            room -= block_rows[b]
            if acc + dt > target or room < 0:
                break
            acc += dt
            shifted += 1
            chip_time[giver] -= dt
            chip_time[taker] += w * marginal[taker]
        if shifted:
            bounds[left + 1] += blocks.step * shifted
            moved_any = True
    return moved_any


def rebalance_plan(plan, row_nnz, cluster):
    """Run the chip-level Eq. 5 load-signal controller; ``(plan, info)``.

    Blocks play the role of rows, chips the role of PEs, and the
    per-chip capacity-normalized load (sum of owned blocks' nnz divided
    by the chip's relative throughput — what the chip-level PESM counts
    in its task queues, measured in time) is the utilization signal.
    Each round sweeps the chip chain: every adjacent pair whose time
    estimates differ shifts boundary blocks from the hotter to the
    colder side, taking blocks greedily until the transferred time would
    exceed half the pair's gap — the intra-chip Shuffling-Lookup-Table
    rule (``work_target = gap / 2``) applied to block migration. The
    sweep repeats until the cluster-wide time gap stops improving for
    :data:`REBALANCE_PATIENCE` rounds (or :data:`MAX_REBALANCE_ROUNDS`);
    like the intra-chip tuner's freeze, the best map seen is restored.

    The capacities are the cluster's own
    (:meth:`ClusterConfig.capacities`); a homogeneous cluster reduces
    bit-for-bit to the PR 4 unnormalized controller.

    The cluster's :attr:`~ClusterConfig.row_ceilings` are hard per-chip
    row budgets: every transfer is clamped so no migration pushes a
    chip past its ceiling, and a plan that already violates one raises
    :class:`~repro.errors.CeilingError`. The best-map restore only ever
    sees clamped candidates, so the returned plan respects every
    ceiling too.

    Requires a contiguous plan (``owner`` sorted in runs, as both
    :func:`~repro.cluster.partition.make_plan` strategies produce):
    boundary diffusion is what keeps shards contiguous and halos small.
    """
    _check_rebalance_inputs(plan, cluster)
    weights = plan.block_weights(row_nnz)
    capacities = cluster.capacities()
    ceilings = check_row_ceilings(
        cluster.row_ceilings, plan.n_chips, n_rows=plan.n_rows
    )
    if ceilings is not None:
        counts = plan.chip_row_counts()
        if np.any(counts > ceilings):
            over = int(np.argmax(counts > ceilings))
            raise CeilingError(
                f"input plan already violates row_ceilings: chip {over} "
                f"owns {int(counts[over])} rows, ceiling "
                f"{int(ceilings[over])}"
            )
    uniform = bool(np.all(capacities == 1.0))
    if plan.n_chips == 1 or plan.n_blocks <= plan.n_chips:
        return plan, _noop_info()
    bounds = _plan_bounds(plan)
    n_chips = plan.n_chips
    block_rows = plan.block_sizes
    marginal = 1.0 / capacities

    def chip_times(b):
        return np.add.reduceat(weights, b[:-1]).astype(np.float64) * marginal

    def gap_of(times):
        gap = float(times.max() - times.min())
        return int(gap) if uniform else gap

    times = chip_times(bounds)
    gap_history = [gap_of(times)]
    best_bounds = bounds.copy()
    best_max = float(times.max())
    stall = 0
    rounds = 0
    converged_round = None
    while rounds < MAX_REBALANCE_ROUNDS:
        moved_any = _diffuse_pairs(
            bounds, weights, chip_times(bounds), marginal, block_rows,
            ceilings,
        )
        times = chip_times(bounds)
        gap_history.append(gap_of(times))
        rounds += 1
        if float(times.max()) < best_max:
            best_max = float(times.max())
            best_bounds = bounds.copy()
            stall = 0
        else:
            stall += 1
            if stall >= REBALANCE_PATIENCE or not moved_any:
                converged_round = rounds
                break
    new_owner = np.repeat(
        np.arange(n_chips, dtype=np.int64), np.diff(best_bounds)
    )
    moved = new_owner != plan.owner
    info = RebalanceInfo(
        rounds=rounds,
        converged_round=converged_round,
        migrated_blocks=int(moved.sum()),
        migrated_nnz=int(weights[moved].sum()),
        gap_history=tuple(gap_history),
        signal="load",
    )
    if not info.migrated:
        return plan, info
    return plan.with_owner(new_owner), info


def _migration_cycles(cluster, old_plan, new_plan, weights):
    """Fabric cycles to ship rebalanced blocks to their new chips.

    Migrations happen before steady-state execution; the conservative
    model serializes the whole burst over one link (the PR 4 price) and
    adds the fabric's per-hop latency for the farthest moved block.
    """
    moved = new_plan.owner != old_plan.owner
    if not moved.any():
        return 0
    fabric = cluster.fabric
    words = float(weights[moved].sum()) * MIGRATION_WORDS_PER_NNZ
    # One serialized burst priced by the fabric (its bandwidth, not the
    # config field — a prebuilt Topology carries its own), over the
    # farthest moved block's route.
    src, dst = max(
        (
            (int(old_plan.owner[b]), int(new_plan.owner[b]))
            for b in np.flatnonzero(moved)
        ),
        key=lambda pair: fabric.hops(*pair),
    )
    return fabric.transfer_cycles(src, dst, words)


@dataclass(frozen=True)
class ClusterReport:
    """End-to-end outcome of one sharded multi-chip GCN inference.

    All composed figures (``layer_cycles``, ``total_cycles``, the
    per-layer cost arrays) are in *reference-chip* cycles; each chip's
    own report (``chip_reports``) stays at that chip's clock.

    A report does not change once built: its chip reports are
    immutable, its cost arrays read-only, and :attr:`total_work`,
    :attr:`utilization`, :attr:`comm_cycles`,
    :attr:`compute_imbalance`, :attr:`cache_hit` and
    :attr:`latency_ms` are computed on first use and kept. That is what
    lets a :class:`ShardedAccelerator` return one stored report to
    every warm run on its exclusively-owned fabric.
    """

    dataset: str
    cluster: ClusterConfig
    plan: ShardPlan
    rebalance: RebalanceInfo
    chip_reports: tuple
    """Per-chip :class:`~repro.accel.AcceleratorReport` (sliced jobs)."""
    layer_cycles: tuple
    """Barrier-to-barrier cycles per GCN layer (slowest chip + sync)."""
    comm_cycles_per_layer: np.ndarray
    """Per-layer, per-chip *serialized* halo-transfer cycles, shape
    ``(n_layers, n_chips)`` (with overlap, part of this hides behind
    compute — see :attr:`chip_costs_per_layer`). Read-only: on an
    exclusively-owned fabric every report of one plan shares it."""
    migration_cycles: int
    """One-time cost of shipping rebalanced blocks between chips."""
    total_cycles: int
    chip_costs_per_layer: np.ndarray = None
    """Per-layer, per-chip composed cost (compute with comm applied,
    pre-barrier, reference cycles), shape ``(n_layers, n_chips)``.
    Read-only."""
    chip_compute_per_layer: np.ndarray = None
    """Per-layer, per-chip compute in reference cycles, shape
    ``(n_layers, n_chips)``. Read-only."""
    halo: object = None
    """The final plan's :class:`~repro.cluster.partition.HaloExchange`
    (None on a single chip): the rows each chip receives per halo
    round, which co-scheduled serving prices as fabric traffic."""

    @property
    def n_chips(self):
        """Number of chips in the cluster."""
        return self.cluster.n_chips

    @cached_property
    def cache_hit(self):
        """True when every chip replayed from the autotune cache."""
        return all(r.cache_hit for r in self.chip_reports)

    @cached_property
    def total_work(self):
        """Total MAC tasks across all chips."""
        return sum(r.total_work for r in self.chip_reports)

    @cached_property
    def comm_cycles(self):
        """Exposed halo + migration cycles on the critical path.

        Per layer, the slowest chip's composed cost minus its compute:
        with the serialized model that is its full halo transfer, with
        overlap only the un-hidden part.
        """
        critical = 0
        for layer in range(len(self.layer_cycles)):
            costs = self.chip_costs_per_layer[layer]
            slowest = int(np.argmax(costs))
            critical += int(
                costs[slowest] - self.chip_compute_per_layer[layer][slowest]
            )
        return critical + self.migration_cycles

    @property
    def comm_fraction(self):
        """Share of total cycles spent on inter-chip movement."""
        return self.comm_cycles / self.total_cycles if self.total_cycles else 0.0

    @cached_property
    def utilization(self):
        """Cluster-wide PE busy fraction over the synchronized runtime.

        Heterogeneous chips weight their PE count by their clock ratio
        (a PE at half the reference clock offers half the cycle slots
        per reference cycle).
        """
        ref_freq = self.cluster.chip.frequency_mhz
        effective_pes = sum(
            cfg.n_pes * cfg.frequency_mhz / ref_freq
            for cfg in self.cluster.chip_configs
        )
        denom = effective_pes * self.total_cycles
        return self.total_work / denom if denom else 0.0

    @cached_property
    def compute_imbalance(self):
        """Slowest chip's compute time over the mean (1.0 = even)."""
        compute = self.chip_compute_per_layer.sum(axis=0)
        mean = compute.mean()
        return float(compute.max() / mean) if mean else 1.0

    @cached_property
    def latency_ms(self):
        """Inference latency in milliseconds at the reference clock."""
        return self.cluster.chip.cycles_to_ms(self.total_cycles)


def _price_halo(cluster, layers, halo, a_hops, background=None):
    """Fabric pricing of one plan's halo exchange: ``(comm_serial,
    comm_round)``.

    ``comm_serial`` is the serialized per-layer, per-chip halo-transfer
    matrix, ``comm_round`` the per-chip exposed tail of the
    double-buffered model (zeros without ``overlap``). Both are
    read-only. ``halo`` is the plan's
    :class:`~repro.cluster.partition.HaloExchange` (None on one chip,
    which prices nothing). ``background``, the per-link words other
    concurrent jobs put on the fabric per halo round, joins every
    flow's contention term; a malformed one is a
    :class:`~repro.errors.ConfigError`.
    """
    n_chips = cluster.n_chips
    comm_serial = np.zeros((len(layers), n_chips), dtype=np.int64)
    comm_round = np.zeros(n_chips, dtype=np.int64)
    fabric = cluster.fabric
    if background is not None:
        background = fabric._check_background(background)
    if halo is not None:
        halo_words = halo.words.astype(np.float64)
        if cluster.overlap:
            # The exposed tail: one dense column's halo (the first
            # double-buffer fill, which nothing can hide behind).
            comm_round = fabric.comm_cycles(halo_words, background=background)
        for layer, stage_jobs in enumerate(layers):
            rounds = stage_jobs[0].n_rounds
            # Background traffic is per halo round; scale it by the
            # same rounds multiplier as the job's own words so
            # concurrent tenants contend round for round.
            comm_serial[layer] = fabric.comm_cycles(
                halo_words * (rounds * a_hops),
                background=(
                    background * (rounds * a_hops)
                    if background is not None else None
                ),
            )
    comm_serial.setflags(write=False)
    comm_round.setflags(write=False)
    return comm_serial, comm_round


def _compose_layers(cluster, chip_reports, comm, *, slowdown=None):
    """Fold per-chip layer timings + fabric halo pricing into layer costs.

    ``comm`` is the plan's :func:`_price_halo` pair. Returns
    ``(layer_cycles, comm_serial, chip_costs, chip_compute)``:
    per-layer barrier-inclusive costs, the serialized per-chip comm
    matrix, the composed per-chip per-layer costs (pre-barrier) and the
    reference-clock per-chip compute matrix; both matrices read-only.

    ``slowdown`` (per-chip multipliers from
    :func:`_straggler_multipliers`) scales each chip's reference-clock
    compute — straggling stretches compute, not the fabric.
    """
    comm_serial, comm_round = comm
    n_layers, n_chips = comm_serial.shape
    chip_compute = np.zeros((n_layers, n_chips), dtype=np.int64)
    chip_costs = np.zeros((n_layers, n_chips), dtype=np.int64)
    layer_cycles = []
    for layer in range(n_layers):
        for chip in range(n_chips):
            base = cluster.ref_cycles(
                chip_reports[chip].layers[layer].pipelined_cycles,
                cluster.chip_for(chip),
            )
            if slowdown is not None and slowdown[chip] != 1.0:
                base = int(math.ceil(base * float(slowdown[chip])))
            chip_compute[layer, chip] = base
        if cluster.overlap:
            # Double-buffer composition: the first buffer fill (one
            # dense column's halo) is exposed, then compute overlaps
            # the *remaining* transfer. Never exceeds the serialized
            # compute + comm: the exposed round is part of the total,
            # not added on top of it.
            chip_costs[layer] = comm_round + np.maximum(
                chip_compute[layer], comm_serial[layer] - comm_round
            )
        else:
            chip_costs[layer] = chip_compute[layer] + comm_serial[layer]
        cost = int(chip_costs[layer].max())
        if n_chips > 1:
            cost += BARRIER_CYCLES
        layer_cycles.append(cost)
    chip_costs.setflags(write=False)
    chip_compute.setflags(write=False)
    return layer_cycles, comm_serial, chip_costs, chip_compute


def _feedback_rebalance(sharded, cache, tracer, background):
    """Cycle-feedback rebalancing: migrate on measured per-chip cycles.

    Round 0 starts from the load-signal plan — before anything has run
    there is no measurement, so the static signal is all the controller
    has (and the best-map restore below therefore can never end up
    *worse* than load-signal rebalancing). Every subsequent round
    simulates the chips under the current plan, measures their
    reference-clock compute time, and runs one boundary-diffusion sweep
    on the measured signal (each chip's marginal cost per nnz is its
    measured time over its load — the linearization the next sweep
    migrates against). The plan whose end-to-end total (compute + halo
    + barrier + the migration burst from the initial plan) is lowest is
    kept — feedback sees communication and migration pricing, so a
    move that balances compute but inflates halos or ships too many
    blocks is rejected by the best-plan restore. Freezes early after
    :data:`REBALANCE_PATIENCE` rounds without improvement, like the
    intra-chip tuner.

    Cache discipline: exploration rounds run against a read-through
    :class:`~repro.serve.cache.OverlayCache` — counted lookups fall back
    to the caller's shared cache (a repeat request replays its
    previously-cached shards instead of re-simulating), but stores
    land in a private throwaway layer, so a bounded serving cache never
    has live entries evicted by tuning state of plans the controller
    discarded. Only the winning plan is run against the shared cache
    itself.

    Stragglers (:attr:`ClusterConfig.stragglers`) change what each
    round *measures*: round ``r``'s per-chip compute is scaled by the
    round-``r`` multipliers, including the coverage blend when an onset
    lands mid-round — the diffusion sweep therefore starts migrating
    work off a slowing chip inside the very round the slowdown begins.
    When the multipliers change between rounds the best-plan/patience
    bookkeeping resets (totals measured under different regimes are not
    comparable), and the controller keeps running while an onset is
    still pending so the event is observed at all. The winning plan is
    always re-composed under the *steady-state* multipliers, which is
    what the final report charges. With ``row_ceilings`` set every
    feedback-driven transfer is clamped exactly like the load signal's.

    ``sharded`` is the :class:`ShardedAccelerator` being run: the
    controller starts from its initial and load-signal plans and reuses
    its per-plan halo sets and chip accelerators, and its cluster,
    under this run's fabric ``background``, prices every candidate.

    Returns ``(plan, info, chip_reports, composed)`` with the winning
    plan's reports and composition run against the caller's cache.
    """
    from repro.serve.cache import OverlayCache

    cluster = sharded.cluster
    initial = sharded.plan
    weights = initial.block_weights(sharded._row_nnz)
    block_rows = initial.block_sizes
    ceilings = check_row_ceilings(
        cluster.row_ceilings, cluster.n_chips, n_rows=initial.n_rows
    )
    plan, _load_info = sharded._load_rebalanced()
    bounds = _plan_bounds(plan)
    explore_cache = OverlayCache(cache, counted=True)
    # Exploration rounds run untraced at the accelerator level — the
    # tuner events of candidate plans the controller discards would
    # drown the stream. Shared-cache lookup events still flow through
    # ``cache.tracer``; only the winning replay below carries the
    # tracer into the chip simulations.
    trace = tracer is not None and tracer.enabled
    lane = f"cluster/{sharded.name}"

    best = None  # (total, plan, reports, composed)
    gap_history = []
    rounds = 0
    converged_round = None
    stall = 0
    current = plan
    prev_mult = None
    while True:
        mult = _straggler_multipliers(cluster, rounds)
        regime_changed = (
            (mult is None) != (prev_mult is None)
            or (mult is not None and prev_mult is not None
                and not np.array_equal(mult, prev_mult))
        )
        if regime_changed:
            # Totals measured under the previous slowdown regime are
            # not comparable to the new one: restart the best-plan and
            # patience bookkeeping from this round's observation.
            best = None
            stall = 0
        prev_mult = mult
        reports = sharded._run_chips(current, explore_cache)
        composed = sharded._compose(current, reports, mult, background)
        _cycles, _comm, _costs, chip_compute = composed
        measured = chip_compute.sum(axis=0).astype(np.float64)
        gap_history.append(int(measured.max() - measured.min()))
        total = sum(composed[0]) + _migration_cycles(
            cluster, initial, current, weights
        )
        pending = _pending_onset(cluster, rounds)
        if trace:
            tracer.counter(
                "feedback.cycles", lane=lane,
                values={
                    "round": rounds,
                    **{f"chip{c}": int(measured[c])
                       for c in range(cluster.n_chips)},
                },
            )
            tracer.instant(
                "feedback.round", lane=lane,
                args={
                    "round": rounds,
                    "total": int(total),
                    "gap": gap_history[-1],
                    "regime_changed": bool(regime_changed),
                    "improved": best is None or total < best[0],
                    "pending_onset": bool(pending),
                },
            )
        if best is None or total < best[0]:
            best = (total, current, reports)
            stall = 0
        else:
            stall += 1
            if stall >= REBALANCE_PATIENCE and not pending:
                converged_round = rounds
                break
        if rounds >= cluster.feedback_rounds:
            break
        loads = np.add.reduceat(weights, bounds[:-1]).astype(np.float64)
        marginal = measured / np.maximum(loads, 1.0)
        moved = _diffuse_pairs(
            bounds, weights, measured.copy(), marginal, block_rows,
            ceilings,
        )
        if not moved and not pending:
            converged_round = rounds
            break
        rounds += 1
        current = plan.with_owner(np.repeat(
            np.arange(cluster.n_chips, dtype=np.int64), np.diff(bounds)
        ))

    _total, best_plan, best_reports = best
    if cache is not None:
        # Replay the winner against the caller's cache: stores (or
        # hits) only the surviving plan's tuning entries, and the
        # returned reports carry the caller-visible cache_hit flags.
        best_reports = sharded._run_chips(best_plan, cache, tracer=tracer)
    # The winning round may have measured a pre-onset or blended
    # regime; what the run ultimately pays is the steady state.
    best_composed = sharded._compose(
        best_plan, best_reports, _straggler_multipliers(cluster), background
    )
    moved = best_plan.owner != initial.owner
    info = RebalanceInfo(
        rounds=rounds,
        converged_round=converged_round,
        migrated_blocks=int(moved.sum()),
        migrated_nnz=int(weights[moved].sum()),
        gap_history=tuple(gap_history),
        signal="cycles",
    )
    return best_plan, info, best_reports, best_composed


def simulate_multichip_gcn(dataset, cluster, *, a_hops=1, cache=None,
                           tracer=None, background=None):
    """Simulate a full sharded 2-layer GCN inference on a cluster.

    Partitions ``dataset``, optionally rebalances it at chip level — on
    the static load signal or, with ``rebalance_signal="cycles"``, on
    measured per-chip cycles fed back round by round — runs every
    chip's sliced jobs through the single-chip pipeline at that chip's
    own :class:`ArchConfig`, and composes layers with the fabric-routed
    halo model (serialized or double-buffered, see
    :class:`ClusterConfig`). ``cache`` is an
    optional :class:`~repro.serve.AutotuneCache` shared across chips —
    entries are keyed per shard and per chip config (each chip's sliced
    jobs hash to their own fingerprint, and the chip's ArchConfig is
    part of the key), so repeat sharded requests replay through the
    frozen fast path chip by chip even on heterogeneous clusters.

    ``background`` is the per-link word load (one entry per fabric
    link, the pool link id space when ``topology`` is a
    :func:`~repro.cluster.topology.subtopology`) that *other concurrent
    jobs* put on the fabric per halo round. It joins every halo flow's
    contention term, scaled by the same rounds multiplier as the job's
    own halo words, so concurrent tenants contend round for round (the
    ``background`` argument of
    :meth:`~repro.cluster.topology.Topology.comm_cycles`); a wrong
    length, a negative or non-finite entry or a non-number is a
    :class:`~repro.errors.ConfigError`. None (default) prices an
    exclusively-owned fabric.
    The serving layer derives it from its running jobs under fabric
    co-scheduling.

    This is a thin wrapper over :class:`ShardedAccelerator`, and
    ``dataset`` may also be an accelerator already bound to the graph:
    the run then reuses the plans, halo sets, per-chip accelerators,
    exclusive-fabric prices and stored reports it built for earlier
    jobs. ``cluster`` must then be the accelerator's own or an equal
    one, and ``a_hops`` its ``a_hops``; the report carries the
    accelerator's cluster.
    """
    if isinstance(dataset, ShardedAccelerator):
        sharded = dataset
        if a_hops != sharded.a_hops or cluster != sharded.cluster:
            raise ConfigError(
                "a ShardedAccelerator runs only on its own cluster and a_hops"
            )
    else:
        sharded = ShardedAccelerator(dataset, cluster, a_hops=a_hops)
    return sharded._simulate(cache, tracer, background)


class ShardedAccelerator:
    """The sharded counterpart of :class:`~repro.accel.GcnAccelerator`.

    Bound to one dataset, ``a_hops`` and one :class:`ClusterConfig` —
    its chip configs, fabric, row ceilings and partition and rebalance
    settings. What the graph and that shape determine is built on first
    use and kept for every later run:

    * the initial plan (:func:`~repro.cluster.partition.make_plan`);
    * the load-signal :func:`rebalance_plan` outcome;
    * each plan's :class:`~repro.cluster.partition.HaloExchange`;
    * each plan's price on the exclusively-owned fabric
      (:func:`_price_halo` without a background) and the per-link words
      its halo round puts on the fabric (:meth:`halo_link_loads`);
    * each plan's per-chip :class:`~repro.accel.GcnAccelerator`, whose
      replay memo turns a repeat cache hit on its shard into a lookup
      and whose kept cold run turns a repeat miss into a store;
    * each plan's last :class:`ClusterReport` without a background (see
      below).

    Run it with ``simulate_multichip_gcn(accelerator, cluster, cache=,
    tracer=, background=)``, where ``cluster`` is the bound one or an
    equal one: the fabric background, the autotune cache and the tracer
    are per-run, so one accelerator serves every job of its graph on
    its shape. A run against a background prices the fabric afresh.
    Under ``rebalance_signal="cycles"`` the plan choice prices the
    fabric, background included, so it runs on every call; only the
    per-plan state above is reused. Plans, halo sets, prices and link
    loads are read-only, so the reports and jobs that share them cannot
    change a later run.

    A run without a background or ``"cycles"`` feedback is a pure
    function of its plan and its chips' reports, which the chip
    accelerators' memos return as the same objects on every warm run;
    stragglers are part of the bound shape, and the report charges
    their steady-state slowdown. Such a run still calls every chip's
    ``run``, so every cache lookup, hit counter, LRU move and cache
    event happens as before; when the chips return the very reports the
    plan's stored :class:`ClusterReport` was composed from, that report
    is returned, and otherwise the plan's one slot is recomposed and
    replaced. The stored report holds the chip reports it is keyed by,
    so their identity cannot be recycled. A run against a background
    composes afresh and neither reads nor writes the slot.

    The accelerator holds its dataset, so a caller may key accelerators
    by ``id(dataset)`` for as long as it keeps them:
    :class:`~repro.serve.InferenceService` keeps each one while
    consecutive drains use it.
    """

    def __init__(self, dataset, cluster, *, a_hops=1):
        check_instance(cluster, ClusterConfig, "cluster")
        self.dataset = dataset
        self.cluster = cluster
        self.a_hops = a_hops
        self.jobs = build_spmm_jobs(dataset, a_hops=a_hops)
        self.name = getattr(dataset, "name", "custom")
        # The adjacency profile, from the first aggregation stage.
        self._row_nnz = self.jobs[0][1].row_nnz
        self._plan = None
        self._infeasible = None
        self._load = None
        self._halos = {}
        self._prices = {}
        self._link_loads = {}
        self._chips = {}
        self._reports = {}

    @property
    def plan(self):
        """The initial :class:`~repro.cluster.partition.ShardPlan`.

        Built on first use. When the row ceilings admit no plan, every
        access raises
        :class:`~repro.errors.CeilingError` but only the first runs the
        partitioner.
        """
        if self._plan is None:
            if self._infeasible is not None:
                raise CeilingError(self._infeasible)
            cluster = self.cluster
            try:
                self._plan = make_plan(
                    self._row_nnz, cluster.n_chips,
                    strategy=cluster.strategy,
                    blocks_per_chip=cluster.blocks_per_chip,
                    capacities=cluster.capacities(),
                    row_ceilings=cluster.row_ceilings,
                )
            except CeilingError as exc:
                self._infeasible = str(exc)
                raise
        return self._plan

    def _load_rebalanced(self):
        """``(plan, info)`` of the load-signal controller, built once."""
        if self._load is None:
            self._load = rebalance_plan(self.plan, self._row_nnz,
                                        self.cluster)
        return self._load

    def _halo(self, plan):
        """The :class:`HaloExchange` of one plan, built once.

        Every plan here shares the initial plan's blocks, so its owner
        map alone identifies it.
        """
        key = plan.owner.tobytes()
        halo = self._halos.get(key)
        if halo is None:
            halo = halo_exchange(self.dataset.adjacency, plan)
            self._halos[key] = halo
        return halo

    def _fabric_price(self, plan, background):
        """:func:`_price_halo` of one plan under ``background``.

        Without a background the price depends on the plan and the
        bound shape alone, so it is built once per plan; a run against
        a background prices afresh.
        """
        cluster = self.cluster
        halo = self._halo(plan) if cluster.n_chips > 1 else None
        if background is not None:
            return _price_halo(cluster, self.jobs, halo, self.a_hops,
                               background)
        key = plan.owner.tobytes()
        price = self._prices.get(key)
        if price is None:
            price = _price_halo(cluster, self.jobs, halo, self.a_hops)
            self._prices[key] = price
        return price

    def halo_link_loads(self, plan):
        """Per-link words one halo round of ``plan`` puts on the bound
        fabric (:meth:`~repro.cluster.topology.Topology.link_loads` of
        its :class:`~repro.cluster.partition.HaloExchange`), or None on
        one chip. Built once per plan, read-only."""
        if self.cluster.n_chips == 1:
            return None
        key = plan.owner.tobytes()
        loads = self._link_loads.get(key)
        if loads is None:
            loads = self.cluster.fabric.link_loads(self._halo(plan).words)
            loads.setflags(write=False)
            self._link_loads[key] = loads
        return loads

    def _chip_accels(self, plan):
        """One accelerator per chip over its sliced jobs, built once."""
        key = plan.owner.tobytes()
        accels = self._chips.get(key)
        if accels is None:
            accels = tuple(
                GcnAccelerator.from_jobs(
                    slice_jobs(self.jobs, plan.chip_rows(chip),
                               suffix=f"@{self.name}/chip{chip}"),
                    self.cluster.chip_for(chip),
                    name=f"{self.name}/chip{chip}",
                )
                for chip in range(self.cluster.n_chips)
            )
            self._chips[key] = accels
        return accels

    def _run_chips(self, plan, cache, tracer=None):
        """One single-chip simulation per chip over its sliced jobs, in
        chip order, in this process. ``tracer`` flows through to each
        chip's cold tuner run."""
        return [accel.run(cache=cache, tracer=tracer)
                for accel in self._chip_accels(plan)]

    def _compose(self, plan, chip_reports, slowdown, background):
        """:func:`_compose_layers` of one plan's chip reports."""
        return _compose_layers(self.cluster, chip_reports,
                               self._fabric_price(plan, background),
                               slowdown=slowdown)

    def _simulate(self, cache, tracer, background):
        """One run on the bound cluster under a fabric ``background``
        (None for an exclusively-owned fabric)."""
        cluster = self.cluster
        initial = self.plan
        trace = tracer is not None and tracer.enabled
        lane = f"cluster/{self.name}"
        if trace:
            tracer.instant("cluster.plan", lane=lane, args={
                "n_chips": cluster.n_chips,
                "n_blocks": initial.n_blocks,
                "strategy": cluster.strategy,
                "signal": (
                    cluster.rebalance_signal if cluster.rebalance else "off"
                ),
                "a_hops": self.a_hops,
            })
            for ev in (cluster.stragglers or ()):
                tracer.instant("cluster.straggler", lane=lane, args={
                    "chip": ev.chip,
                    "onset_round": ev.onset_round,
                    "factor": ev.factor,
                })

        feedback = (
            cluster.rebalance
            and cluster.rebalance_signal == "cycles"
            and cluster.n_chips > 1
            and initial.n_blocks > cluster.n_chips
        )
        if feedback:
            plan, info, chip_reports, composed = _feedback_rebalance(
                self, cache, tracer, background,
            )
            report = self._report(plan, info, chip_reports, composed)
        else:
            plan = initial
            if cluster.rebalance:
                plan, info = self._load_rebalanced()
                if cluster.rebalance_signal != info.signal:
                    # The feedback gate was closed (single chip, or no
                    # spare blocks to migrate) and the load controller
                    # ran its no-op path; report the configured signal
                    # rather than contradicting the cluster config.
                    info = replace(info, signal=cluster.rebalance_signal)
            else:
                info = _noop_info(cluster.rebalance_signal)
            chip_reports = self._run_chips(plan, cache, tracer=tracer)
            # A frozen or load-signal plan pays the steady-state
            # slowdown in full — only the "cycles" feedback path can
            # observe and route around a straggler.
            if background is None:
                report = self._stored_report(plan, info, chip_reports)
            else:
                report = self._report(plan, info, chip_reports, self._compose(
                    plan, chip_reports, _straggler_multipliers(cluster),
                    background,
                ))

        if trace:
            info = report.rebalance
            for r, gap in enumerate(info.gap_history):
                tracer.instant("rebalance.gap", lane=lane, args={
                    "round": r, "gap": int(gap), "signal": info.signal,
                })
            tracer.instant("rebalance.done", lane=lane, args={
                "rounds": info.rounds,
                "converged_round": info.converged_round,
                "migrated_blocks": info.migrated_blocks,
                "migrated_nnz": info.migrated_nnz,
                "signal": info.signal,
                "migration_cycles": report.migration_cycles,
                "total_cycles": report.total_cycles,
            })
            # One utilization sample per composed layer, stamped at the
            # layer's start on the reference clock: busy fraction is
            # each chip's compute over the layer's critical-path cost.
            chip_costs = report.chip_costs_per_layer
            chip_compute = report.chip_compute_per_layer
            cum = float(report.migration_cycles)
            for layer_idx, layer_cost in enumerate(report.layer_cycles):
                cost = max(int(chip_costs[layer_idx].max()), 1)
                tracer.counter(
                    "cluster.chip_util", lane=lane,
                    offset=cluster.chip.cycles_to_seconds(cum),
                    values={
                        "layer": layer_idx,
                        **{
                            f"chip{c}": round(
                                float(chip_compute[layer_idx, c]) / cost, 6
                            )
                            for c in range(cluster.n_chips)
                        },
                    },
                )
                cum += float(layer_cost)
        return report

    def _stored_report(self, plan, info, chip_reports):
        """The :class:`ClusterReport` of ``plan`` on the bound cluster's
        exclusive fabric, under the steady-state straggler slowdown,
        composed once per set of chip reports.

        The plan's one slot is returned when ``chip_reports`` are the
        very objects it was composed from, and recomposed and replaced
        otherwise.
        """
        key = plan.owner.tobytes()
        report = self._reports.get(key)
        if report is None or not all(
                map(is_, chip_reports, report.chip_reports)):
            report = self._report(plan, info, chip_reports, self._compose(
                plan, chip_reports, _straggler_multipliers(self.cluster),
                None,
            ))
            self._reports[key] = report
        return report

    def _report(self, plan, info, chip_reports, composed):
        """The :class:`ClusterReport` of one composed run of ``plan``,
        migration from the initial plan included."""
        cluster = self.cluster
        initial = self.plan
        migration_cycles = _migration_cycles(
            cluster, initial, plan, initial.block_weights(self._row_nnz)
        )
        layer_cycles, comm_serial, chip_costs, chip_compute = composed
        return ClusterReport(
            dataset=self.name,
            cluster=cluster,
            plan=plan,
            rebalance=info,
            chip_reports=tuple(chip_reports),
            layer_cycles=tuple(layer_cycles),
            comm_cycles_per_layer=comm_serial,
            migration_cycles=int(migration_cycles),
            total_cycles=int(migration_cycles + sum(layer_cycles)),
            chip_costs_per_layer=chip_costs,
            chip_compute_per_layer=chip_compute,
            halo=self._halo(plan) if cluster.n_chips > 1 else None,
        )
