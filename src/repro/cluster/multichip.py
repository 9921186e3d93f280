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
  cost, plus a fixed ``barrier_cycles`` sync overhead.

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
shards contiguous and halos small) and restore the best map seen, and
migrated blocks pay for their adjacency-structure transfer
(``migration_words_per_nnz`` words per moved non-zero) over the fabric
before execution starts.

A :class:`ShardedAccelerator` binds the model to one graph, ``a_hops``
and cluster shape and keeps what those determine — the plans, their
halo sets and the per-chip accelerators — across runs;
:func:`simulate_multichip_gcn` is a thin wrapper over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.accel.config import ArchConfig
# Unused here since each chip runs through its own GcnAccelerator;
# hostbench/layers.py still patches this name on this module.
from repro.accel.cyclemodel import simulate_spmm  # noqa: F401
from repro.accel.gcnaccel import GcnAccelerator, build_spmm_jobs, slice_jobs
from repro.cluster.partition import (
    ShardPlan,
    check_capacities,
    check_row_ceilings,
    halo_exchange,
    make_plan,
)
from repro.cluster.topology import TOPOLOGY_KINDS, Topology, make_topology
from repro.errors import CeilingError, ConfigError
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_finite,
    check_positive_int,
)

REBALANCE_SIGNALS = ("load", "cycles")


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
        check_non_negative_int(self.chip, "straggler chip")
        onset = float(self.onset_round)
        if not math.isfinite(onset) or onset < 0:
            raise ConfigError(
                f"straggler onset_round must be finite and >= 0, "
                f"got {self.onset_round}"
            )
        factor = float(self.factor)
        if not math.isfinite(factor) or factor < 1.0:
            raise ConfigError(
                f"straggler factor must be finite and >= 1.0, "
                f"got {self.factor}"
            )
        object.__setattr__(self, "chip", int(self.chip))
        object.__setattr__(self, "onset_round", onset)
        object.__setattr__(self, "factor", factor)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that defines a multi-chip deployment.

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
    barrier_cycles:
        Fixed per-layer synchronization overhead, charged once per GCN
        layer when ``n_chips > 1``.
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
    max_rebalance_rounds:
        Upper bound on load-signal rebalancing iterations (the
        controller usually freezes earlier via its patience rule).
    rebalance_patience:
        Rounds without improvement before the block map freezes
        (Eq. 5 patience, chip level) — both signals honor it.
    migration_words_per_nnz:
        Fabric words charged per migrated adjacency non-zero (index +
        value = 2 words by default). Any positive finite number.
    row_ceilings:
        Optional hard per-chip row budgets (length ``n_chips``). With
        them set, the initial plan and every migration are constrained
        so no chip ever owns more rows than its ceiling
        (:class:`~repro.errors.CeilingError` when infeasible). None
        (default) keeps the unconstrained behavior bit-identical.
    stragglers:
        Optional :class:`StragglerEvent` sequence (or ``(chip,
        onset_round, factor)`` tuples): chips that slow down mid-run.
        Steady-state composition charges the full slowdown; the
        ``"cycles"`` feedback signal observes it per round (including
        a blended mid-round measurement at a fractional onset) and
        migrates work off the slowed chip. None (default) is
        bit-identical to no stragglers.
    workers:
        Host processes running the per-chip simulations
        (:mod:`repro.parallel`). Chips are independent between layer
        barriers, so their simulations parallelize; results are
        bit-identical to the sequential path for any value. 1
        (default) keeps the in-process sequential oracle. This is a
        *host execution* knob — it never changes a modeled cycle.
    background_link_loads:
        Optional per-link word loads (one entry per fabric link, the
        pool link id space when ``topology`` is a
        :func:`~repro.cluster.topology.subtopology`) that *other
        concurrent jobs* put on this cluster's links per halo round.
        Added to every halo flow's contention term — scaled by the same
        rounds multiplier as the job's own halo words, so concurrent
        tenants contend round for round — via the ``background``
        argument of :meth:`~repro.cluster.topology.Topology.comm_cycles`.
        None (default) prices an exclusively-owned fabric, bit-identical
        to before. The serving layer derives this from its active-job
        registry when fabric co-scheduling is on.
    """

    n_chips: int = 4
    chip: ArchConfig = field(default_factory=ArchConfig)
    chips: tuple = None
    link_words_per_cycle: float = 8.0
    topology: object = "all-to-all"
    hop_latency_cycles: int = 0
    overlap: bool = False
    barrier_cycles: int = 64
    strategy: str = "nnz"
    blocks_per_chip: int = 8
    rebalance: bool = True
    rebalance_signal: str = "load"
    feedback_rounds: int = 4
    max_rebalance_rounds: int = 16
    rebalance_patience: int = 2
    migration_words_per_nnz: float = 2
    row_ceilings: tuple = None
    stragglers: tuple = None
    workers: int = 1
    background_link_loads: tuple = None

    def __post_init__(self):
        check_positive_int(self.n_chips, "n_chips")
        check_positive_int(self.workers, "workers")
        if self.chips is not None:
            chips = tuple(self.chips)
            if len(chips) != self.n_chips:
                raise ConfigError(
                    f"chips must have one ArchConfig per chip "
                    f"({self.n_chips}), got {len(chips)}"
                )
            for cfg in chips:
                if not isinstance(cfg, ArchConfig):
                    raise ConfigError(
                        "chips entries must be ArchConfig, got "
                        f"{type(cfg).__name__}"
                    )
            object.__setattr__(self, "chips", chips)
            # The reference chip: its clock is the report's cycle domain.
            object.__setattr__(self, "chip", chips[0])
        if not isinstance(self.chip, ArchConfig):
            raise ConfigError(
                f"chip must be ArchConfig, got {type(self.chip).__name__}"
            )
        check_positive_finite(
            self.link_words_per_cycle, "link_words_per_cycle"
        )
        check_positive_finite(
            self.migration_words_per_nnz, "migration_words_per_nnz"
        )
        if isinstance(self.topology, Topology):
            if self.topology.n_chips != self.n_chips:
                raise ConfigError(
                    f"topology connects {self.topology.n_chips} chips "
                    f"but the cluster has {self.n_chips}"
                )
        elif self.topology not in TOPOLOGY_KINDS:
            raise ConfigError(
                f"topology must be one of {TOPOLOGY_KINDS} or a Topology, "
                f"got {self.topology!r}"
            )
        check_non_negative_int(self.hop_latency_cycles, "hop_latency_cycles")
        if self.barrier_cycles < 0:
            raise ConfigError(
                f"barrier_cycles must be >= 0, got {self.barrier_cycles}"
            )
        if self.rebalance_signal not in REBALANCE_SIGNALS:
            raise ConfigError(
                f"rebalance_signal must be one of {REBALANCE_SIGNALS}, "
                f"got {self.rebalance_signal!r}"
            )
        check_positive_int(self.blocks_per_chip, "blocks_per_chip")
        check_positive_int(self.feedback_rounds, "feedback_rounds")
        check_positive_int(self.max_rebalance_rounds, "max_rebalance_rounds")
        check_positive_int(self.rebalance_patience, "rebalance_patience")
        if self.row_ceilings is not None:
            ceilings = check_row_ceilings(self.row_ceilings, self.n_chips)
            object.__setattr__(
                self, "row_ceilings", tuple(int(c) for c in ceilings)
            )
        if self.stragglers is not None:
            events = []
            for ev in self.stragglers:
                if not isinstance(ev, StragglerEvent):
                    ev = StragglerEvent(*ev)
                if ev.chip >= self.n_chips:
                    raise ConfigError(
                        f"straggler chip {ev.chip} out of range for "
                        f"{self.n_chips} chips"
                    )
                events.append(ev)
            object.__setattr__(
                self, "stragglers", tuple(events) if events else None
            )
        if self.background_link_loads is not None:
            try:
                loads = tuple(float(v) for v in self.background_link_loads)
            except (TypeError, ValueError):
                raise ConfigError(
                    "background_link_loads must be a sequence of numbers"
                )
            for v in loads:
                if not math.isfinite(v) or v < 0:
                    raise ConfigError(
                        "background_link_loads entries must be finite and "
                        f">= 0, got {v}"
                    )
            # Length is validated against the resolved fabric's link
            # count at pricing time (the fabric may not be built yet).
            object.__setattr__(self, "background_link_loads", loads)

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
    if not isinstance(plan, ShardPlan):
        raise ConfigError(
            f"plan must be ShardPlan, got {type(plan).__name__}"
        )
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


def _diffuse_pairs(bounds, weights, chip_time, marginal, *,
                   block_rows=None, row_counts=None, row_ceilings=None):
    """One boundary-diffusion sweep toward equal per-chip *time*.

    ``chip_time[c]`` is chip ``c``'s current time estimate and
    ``marginal[c]`` its estimated time per unit of block weight; both
    stay fixed within the sweep while ``chip_time`` is updated
    incrementally as blocks move. Each adjacent pair shifts boundary
    blocks from its hotter to its colder side, stopping before the
    transferred time would exceed half the pair's gap (the SLT rule) and
    never emptying the giver. Returns True when any block moved.

    With ``row_ceilings`` set (plus ``block_rows``, rows per block, and
    ``row_counts``, current rows per chip — mutated in place), every
    transfer is additionally clamped so the receiving chip never
    exceeds its hard row ceiling; the giver can only shrink, so it
    stays feasible by construction.
    """
    n_chips = chip_time.size
    moved_any = False
    for left in range(n_chips - 1):
        gap = chip_time[left] - chip_time[left + 1]
        target = abs(gap) / 2.0
        if gap > 0:
            # Left chip hotter: shift its tail blocks rightward.
            shifted, acc = 0, 0.0
            while bounds[left + 1] - 1 - shifted > bounds[left]:
                b = bounds[left + 1] - 1 - shifted
                w = float(weights[b])
                dt = w * marginal[left]
                if acc + dt > target:
                    break
                if row_ceilings is not None:
                    rows_b = int(block_rows[b])
                    if row_counts[left + 1] + rows_b > row_ceilings[left + 1]:
                        break
                    row_counts[left] -= rows_b
                    row_counts[left + 1] += rows_b
                acc += dt
                shifted += 1
                chip_time[left] -= w * marginal[left]
                chip_time[left + 1] += w * marginal[left + 1]
            if shifted:
                bounds[left + 1] -= shifted
                moved_any = True
        elif gap < 0:
            shifted, acc = 0, 0.0
            while bounds[left + 1] + shifted < bounds[left + 2] - 1:
                b = bounds[left + 1] + shifted
                w = float(weights[b])
                dt = w * marginal[left + 1]
                if acc + dt > target:
                    break
                if row_ceilings is not None:
                    rows_b = int(block_rows[b])
                    if row_counts[left] + rows_b > row_ceilings[left]:
                        break
                    row_counts[left + 1] -= rows_b
                    row_counts[left] += rows_b
                acc += dt
                shifted += 1
                chip_time[left + 1] -= w * marginal[left + 1]
                chip_time[left] += w * marginal[left]
            if shifted:
                bounds[left + 1] += shifted
                moved_any = True
    return moved_any


def rebalance_plan(plan, row_nnz, cluster, *, capacities=None,
                   row_ceilings=None):
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
    ``rebalance_patience`` rounds (or ``max_rebalance_rounds``); like
    the intra-chip tuner's freeze, the best map seen is restored.

    ``capacities`` defaults to the cluster's own
    (:meth:`ClusterConfig.capacities`); a homogeneous cluster reduces
    bit-for-bit to the PR 4 unnormalized controller.

    ``row_ceilings`` (defaulting to :attr:`ClusterConfig.row_ceilings`)
    are hard per-chip row budgets: every transfer is clamped so no
    migration pushes a chip past its ceiling, and a plan that already
    violates one raises :class:`~repro.errors.CeilingError`. The
    best-map restore only ever sees clamped candidates, so the returned
    plan respects every ceiling too.

    Requires a contiguous plan (``owner`` sorted in runs, as both
    :func:`~repro.cluster.partition.make_plan` strategies produce):
    boundary diffusion is what keeps shards contiguous and halos small.
    """
    _check_rebalance_inputs(plan, cluster)
    weights = plan.block_weights(row_nnz)
    if capacities is None:
        capacities = cluster.capacities()
    else:
        capacities = check_capacities(capacities, plan.n_chips)
    if row_ceilings is None:
        row_ceilings = cluster.row_ceilings
    ceilings = check_row_ceilings(
        row_ceilings, plan.n_chips, n_rows=plan.n_rows
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
    while rounds < cluster.max_rebalance_rounds:
        row_counts = (
            np.add.reduceat(block_rows, bounds[:-1]).astype(np.int64)
            if ceilings is not None else None
        )
        moved_any = _diffuse_pairs(
            bounds, weights, chip_times(bounds), marginal,
            block_rows=block_rows if ceilings is not None else None,
            row_counts=row_counts, row_ceilings=ceilings,
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
            if stall >= cluster.rebalance_patience or not moved_any:
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
    words = float(weights[moved].sum()) * cluster.migration_words_per_nnz
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
    per-layer cost arrays) are in *reference-chip* cycles; per-chip
    raw figures (:attr:`compute_cycles`) stay at each chip's own clock.
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
    compute — see :attr:`chip_costs_per_layer`)."""
    migration_cycles: int
    """One-time cost of shipping rebalanced blocks between chips."""
    total_cycles: int
    chip_costs_per_layer: np.ndarray = None
    """Per-layer, per-chip composed cost (compute with comm applied,
    pre-barrier, reference cycles), shape ``(n_layers, n_chips)``."""
    chip_compute_per_layer: np.ndarray = None
    """Per-layer, per-chip compute in reference cycles, shape
    ``(n_layers, n_chips)``."""
    halo: object = None
    """The final plan's :class:`~repro.cluster.partition.HaloExchange`
    (None on a single chip): the rows each chip receives per halo
    round, which co-scheduled serving prices as fabric traffic."""

    @property
    def n_chips(self):
        """Number of chips in the cluster."""
        return self.cluster.n_chips

    @property
    def cache_hit(self):
        """True when every chip replayed from the autotune cache."""
        return all(r.cache_hit for r in self.chip_reports)

    @property
    def total_work(self):
        """Total MAC tasks across all chips."""
        return sum(r.total_work for r in self.chip_reports)

    @property
    def compute_cycles(self):
        """Per-chip end-to-end compute cycles at each chip's own clock."""
        return np.asarray(
            [r.total_cycles for r in self.chip_reports], dtype=np.int64
        )

    @property
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

    @property
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

    @property
    def compute_imbalance(self):
        """Slowest chip's compute time over the mean (1.0 = even)."""
        compute = self.chip_compute_per_layer.sum(axis=0)
        mean = compute.mean()
        return float(compute.max() / mean) if mean else 1.0

    @property
    def latency_ms(self):
        """Inference latency in milliseconds at the reference clock."""
        return self.cluster.chip.cycles_to_ms(self.total_cycles)


def _compose_layers(cluster, layers, chip_reports, halo, a_hops, *,
                    slowdown=None):
    """Fold per-chip layer timings + fabric halo pricing into layer costs.

    ``halo`` is the plan's
    :class:`~repro.cluster.partition.HaloExchange` (None on one chip).
    Returns ``(layer_cycles, comm_serial, chip_costs, chip_compute)``:
    per-layer barrier-inclusive costs, the serialized per-chip comm
    matrix, the composed per-chip per-layer costs (pre-barrier) and the
    reference-clock per-chip compute matrix.

    ``slowdown`` (per-chip multipliers from
    :func:`_straggler_multipliers`) scales each chip's reference-clock
    compute — straggling stretches compute, not the fabric.
    """
    n_layers = len(layers)
    n_chips = cluster.n_chips
    fabric = cluster.fabric

    comm_serial = np.zeros((n_layers, n_chips), dtype=np.int64)
    comm_round = np.zeros(n_chips, dtype=np.int64)
    background = None
    if cluster.background_link_loads is not None:
        background = np.asarray(
            cluster.background_link_loads, dtype=np.float64
        )
    if halo is not None:
        halo_words = halo.words.astype(np.float64)
        if cluster.overlap:
            # The exposed tail: one dense column's halo (the first
            # double-buffer fill, which nothing can hide behind).
            comm_round = fabric.comm_cycles(halo_words, background=background)

    chip_compute = np.zeros((n_layers, n_chips), dtype=np.int64)
    chip_costs = np.zeros((n_layers, n_chips), dtype=np.int64)
    layer_cycles = []
    for layer in range(n_layers):
        rounds = layers[layer][0].n_rounds
        if halo is not None:
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
            cost += cluster.barrier_cycles
        layer_cycles.append(cost)
    return layer_cycles, comm_serial, chip_costs, chip_compute


def _feedback_rebalance(sharded, cluster, cache, tracer=None):
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
    ``rebalance_patience`` rounds without improvement, like the
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
    its per-plan halo sets and chip accelerators, while ``cluster`` —
    the accelerator's, with this run's fabric background — prices every
    candidate.

    Returns ``(plan, info, chip_reports, composed)`` with the winning
    plan's reports and composition run against the caller's cache.
    """
    from repro.serve.cache import OverlayCache

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
    # drown the stream. Shared-cache peek/lookup events still flow
    # through ``cache.tracer`` and are sequence-identical across
    # ``workers`` counts; only the winning replay below carries the
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
        reports = sharded._run_chips(cluster, current, explore_cache)
        composed = sharded._compose(cluster, current, reports, mult)
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
            best = (total, current, reports, composed)
            stall = 0
        else:
            stall += 1
            if stall >= cluster.rebalance_patience and not pending:
                converged_round = rounds
                break
        if rounds >= cluster.feedback_rounds:
            break
        loads = np.add.reduceat(weights, bounds[:-1]).astype(np.float64)
        marginal = measured / np.maximum(loads, 1.0)
        row_counts = (
            np.add.reduceat(block_rows, bounds[:-1]).astype(np.int64)
            if ceilings is not None else None
        )
        moved = _diffuse_pairs(
            bounds, weights, measured.copy(), marginal,
            block_rows=block_rows if ceilings is not None else None,
            row_counts=row_counts, row_ceilings=ceilings,
        )
        if not moved and not pending:
            converged_round = rounds
            break
        rounds += 1
        current = plan.with_owner(np.repeat(
            np.arange(cluster.n_chips, dtype=np.int64), np.diff(bounds)
        ))

    _total, best_plan, best_reports, best_composed = best
    steady = _straggler_multipliers(cluster)
    if cache is not None:
        # Replay the winner against the caller's cache: stores (or
        # hits) only the surviving plan's tuning entries, and the
        # returned reports carry the caller-visible cache_hit flags.
        best_reports = sharded._run_chips(cluster, best_plan, cache,
                                          tracer=tracer)
        best_composed = sharded._compose(cluster, best_plan, best_reports,
                                         steady)
    elif cluster.stragglers:
        # The winning round may have measured a pre-onset or blended
        # regime; what the run ultimately pays is the steady state.
        best_composed = sharded._compose(cluster, best_plan, best_reports,
                                         steady)
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
                           plan=None, tracer=None):
    """Simulate a full sharded 2-layer GCN inference on a cluster.

    Partitions ``dataset`` (or adopts a caller-supplied ``plan``),
    optionally rebalances it at chip level — on the static load signal
    or, with ``rebalance_signal="cycles"``, on measured per-chip cycles
    fed back round by round — runs every chip's sliced jobs through the
    single-chip pipeline at that chip's own :class:`ArchConfig`, and
    composes layers with the fabric-routed halo model (serialized or
    double-buffered, see :class:`ClusterConfig`). ``cache`` is an
    optional :class:`~repro.serve.AutotuneCache` shared across chips —
    entries are keyed per shard and per chip config (each chip's sliced
    jobs hash to their own fingerprint, and the chip's ArchConfig is
    part of the key), so repeat sharded requests replay through the
    frozen fast path chip by chip even on heterogeneous clusters.

    This is a thin wrapper over :class:`ShardedAccelerator`, and
    ``dataset`` may also be an accelerator already bound to the graph:
    the run then reuses the plans, halo sets and per-chip accelerators
    it built for earlier jobs. ``cluster`` must then be the
    accelerator's own up to ``background_link_loads`` (this job's
    fabric background), ``a_hops`` its ``a_hops``, and ``plan`` None.
    """
    if isinstance(dataset, ShardedAccelerator):
        sharded = dataset
        if (not isinstance(cluster, ClusterConfig) or plan is not None
                or a_hops != sharded.a_hops
                or _shape_of(cluster) != _shape_of(sharded.cluster)):
            raise ConfigError(
                "a ShardedAccelerator runs only on its own cluster (up to "
                "background_link_loads), a_hops and plan"
            )
    else:
        sharded = ShardedAccelerator(dataset, cluster, a_hops=a_hops,
                                     plan=plan)
    return sharded._simulate(cluster, cache, tracer)


def _shape_of(cluster):
    """Every :class:`ClusterConfig` field but the per-job fabric
    background: what a :class:`ShardedAccelerator` is bound to."""
    return tuple(
        getattr(cluster, f.name) for f in fields(cluster)
        if f.name != "background_link_loads"
    )


class ShardedAccelerator:
    """The sharded counterpart of :class:`~repro.accel.GcnAccelerator`.

    Bound to one dataset, ``a_hops`` and one :class:`ClusterConfig` —
    its chip configs, fabric, row ceilings and partition and rebalance
    settings. What the graph and that shape determine is built on first
    use and kept for every later run:

    * the initial plan (:func:`~repro.cluster.partition.make_plan`, or
      the caller's ``plan``);
    * the load-signal :func:`rebalance_plan` outcome;
    * each plan's :class:`~repro.cluster.partition.HaloExchange`;
    * each plan's per-chip :class:`~repro.accel.GcnAccelerator`, whose
      replay memo turns a repeat cache hit on its shard into a lookup
      and whose kept cold run turns a repeat miss into a store.

    The fabric background, the autotune cache and the tracer are
    per-run arguments of :meth:`run`, so one accelerator serves every
    job of its graph on its shape. Under ``rebalance_signal="cycles"``
    the plan choice prices the fabric, background included, so it runs
    on every call; only the per-plan halo sets and chip accelerators
    are reused. Plans and halo sets are read-only, so the reports that
    share them cannot change a later run.
    """

    def __init__(self, dataset, cluster, *, a_hops=1, plan=None):
        if not isinstance(cluster, ClusterConfig):
            raise ConfigError(
                f"cluster must be ClusterConfig, got {type(cluster).__name__}"
            )
        if hasattr(dataset, "adjacency_row_nnz"):
            row_nnz = dataset.adjacency_row_nnz()
        else:
            row_nnz = dataset.adjacency.row_nnz()
        if plan is not None:
            if (plan.n_rows != dataset.n_nodes
                    or plan.n_chips != cluster.n_chips):
                raise ConfigError(
                    f"plan ({plan!r}) does not match dataset "
                    f"({dataset.n_nodes} nodes) / cluster "
                    f"({cluster.n_chips} chips)"
                )
            if cluster.row_ceilings is not None:
                ceilings = check_row_ceilings(
                    cluster.row_ceilings, cluster.n_chips,
                    n_rows=plan.n_rows,
                )
                counts = plan.chip_row_counts()
                if np.any(counts > ceilings):
                    over = int(np.argmax(counts > ceilings))
                    raise CeilingError(
                        f"supplied plan violates row_ceilings: chip {over} "
                        f"owns {int(counts[over])} rows, ceiling "
                        f"{int(ceilings[over])}"
                    )
        self.dataset = dataset
        self.cluster = cluster
        self.a_hops = a_hops
        self.jobs = build_spmm_jobs(dataset, a_hops=a_hops)
        self.name = getattr(dataset, "name", "custom")
        self._row_nnz = row_nnz
        self._plan = plan
        self._infeasible = None
        self._load = None
        self._halos = {}
        self._chips = {}

    @property
    def plan(self):
        """The initial :class:`~repro.cluster.partition.ShardPlan`.

        Built on first use unless the caller supplied one. When the row
        ceilings admit no plan, every access raises
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

    def run(self, *, background=None, cache=None, tracer=None):
        """Simulate one sharded inference; returns a :class:`ClusterReport`.

        ``background`` is this run's per-link fabric load from other
        jobs, as in :attr:`ClusterConfig.background_link_loads` (None
        keeps the bound cluster's). ``cache`` and ``tracer`` are as in
        :func:`simulate_multichip_gcn`.
        """
        cluster = self.cluster
        if background is not None:
            cluster = replace(cluster, background_link_loads=background)
        return self._simulate(cluster, cache, tracer)

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

    def _run_chips(self, cluster, plan, cache, tracer=None):
        """One single-chip simulation per chip over its sliced jobs.

        With ``cluster.workers > 1`` the chip simulations run in the
        :mod:`repro.parallel` process pool — chips are independent
        between layer barriers, and the replay protocol keeps the
        reports and the cache state bit-identical to the sequential
        order. ``tracer`` flows through to each chip's cold tuner run
        (spliced deterministically on the parallel path).
        """
        from repro.parallel import simulate_accels

        return simulate_accels(self._chip_accels(plan), cache=cache,
                               workers=cluster.workers, tracer=tracer)

    def _compose(self, cluster, plan, chip_reports, slowdown):
        """:func:`_compose_layers` of one plan's chip reports."""
        halo = self._halo(plan) if cluster.n_chips > 1 else None
        return _compose_layers(cluster, self.jobs, chip_reports, halo,
                               self.a_hops, slowdown=slowdown)

    def _simulate(self, cluster, cache, tracer):
        """One run on ``cluster``, the bound cluster up to its fabric
        background."""
        initial = self.plan
        name = self.name
        trace = tracer is not None and tracer.enabled
        lane = f"cluster/{name}"
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
                if not isinstance(ev, StragglerEvent):
                    ev = StragglerEvent(*ev)
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
                self, cluster, cache, tracer=tracer,
            )
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
            chip_reports = self._run_chips(cluster, plan, cache,
                                           tracer=tracer)
            # A frozen or load-signal plan pays the steady-state
            # slowdown in full — only the "cycles" feedback path can
            # observe and route around a straggler.
            composed = self._compose(cluster, plan, chip_reports,
                                     _straggler_multipliers(cluster))

        migration_cycles = _migration_cycles(
            cluster, initial, plan, initial.block_weights(self._row_nnz)
        )
        layer_cycles, comm_serial, chip_costs, chip_compute = composed
        total = migration_cycles + sum(layer_cycles)

        if trace:
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
                "migration_cycles": int(migration_cycles),
                "total_cycles": int(total),
            })
            # One utilization sample per composed layer, stamped at the
            # layer's start on the reference clock: busy fraction is
            # each chip's compute over the layer's critical-path cost.
            cum = float(migration_cycles)
            for layer_idx, layer_cost in enumerate(layer_cycles):
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

        return ClusterReport(
            dataset=name,
            cluster=cluster,
            plan=plan,
            rebalance=info,
            chip_reports=tuple(chip_reports),
            layer_cycles=tuple(layer_cycles),
            comm_cycles_per_layer=comm_serial,
            migration_cycles=int(migration_cycles),
            total_cycles=int(total),
            chip_costs_per_layer=chip_costs,
            chip_compute_per_layer=chip_compute,
            halo=self._halo(plan) if cluster.n_chips > 1 else None,
        )
