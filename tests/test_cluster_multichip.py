"""Tests for the multi-chip cycle model and chip-level rebalancer."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel import ArchConfig, GcnAccelerator, slice_jobs
from repro.accel.gcnaccel import build_spmm_jobs
from repro.analysis import compare_shard_scaling, compare_shard_topology
from repro.cluster import (
    ClusterConfig,
    make_plan,
    make_topology,
    rebalance_plan,
    simulate_multichip_gcn,
)
from repro.cluster.multichip import BARRIER_CYCLES, _diffuse_pairs
from repro.errors import ConfigError
from repro.serve import AutotuneCache, RmatGraphSpec
from test_cluster_partition import chip_loads

CHIP = ArchConfig(n_pes=32, hop=1, remote_switching=True)
SPEC = RmatGraphSpec(
    n_nodes=1024, avg_degree=10, f1=24, f2=16, f3=4, seed=77,
    abcd=(0.6, 0.15, 0.15, 0.1),
)


@pytest.fixture(scope="module")
def dataset():
    return SPEC.build()


class TestSliceJobs:
    def test_slices_cover_the_workload(self, dataset):
        layers = build_spmm_jobs(dataset)
        plan = make_plan(dataset.adjacency_row_nnz(), 3)
        total = 0
        for chip in range(3):
            sliced = slice_jobs(layers, plan.chip_rows(chip))
            total += sum(
                job.total_work for stage in sliced for job in stage
            )
        full = sum(job.total_work for stage in layers for job in stage)
        assert total == full

    def test_preserves_rounds_and_tdq(self, dataset):
        layers = build_spmm_jobs(dataset)
        sliced = slice_jobs(layers, np.arange(10), suffix="@s")
        for stage_full, stage_sliced in zip(layers, sliced):
            for job, sub in zip(stage_full, stage_sliced):
                assert sub.n_rounds == job.n_rounds
                assert sub.tdq == job.tdq
                assert sub.name == job.name + "@s"
                assert sub.row_nnz.size == 10

    def test_empty_shard_rejected(self, dataset):
        layers = build_spmm_jobs(dataset)
        with pytest.raises(ConfigError):
            slice_jobs(layers, np.empty(0, dtype=np.int64))


class TestRebalancePlan:
    def _skewed(self, n=512, seed=4):
        rng = np.random.default_rng(seed)
        row_nnz = rng.integers(0, 6, size=n).astype(np.int64)
        row_nnz[: n // 8] += rng.integers(20, 60, size=n // 8)
        return row_nnz

    def test_reduces_max_chip_load(self):
        row_nnz = self._skewed()
        plan = make_plan(row_nnz, 4, strategy="rows")
        cluster = ClusterConfig(n_chips=4, chip=CHIP)
        balanced, info = rebalance_plan(plan, row_nnz, cluster)
        assert info.migrated
        assert (
            chip_loads(balanced, row_nnz).max()
            < chip_loads(plan, row_nnz).max()
        )

    def test_preserves_contiguity(self):
        row_nnz = self._skewed()
        plan = make_plan(row_nnz, 4, strategy="rows")
        cluster = ClusterConfig(n_chips=4, chip=CHIP)
        balanced, _info = rebalance_plan(plan, row_nnz, cluster)
        assert np.all(np.diff(balanced.owner) >= 0)

    def test_never_worse_than_start(self):
        # Best-map restore: the returned plan's max load can't exceed
        # the starting plan's.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            row_nnz = rng.integers(0, 50, size=256).astype(np.int64)
            plan = make_plan(row_nnz, 4, strategy="rows")
            cluster = ClusterConfig(n_chips=4, chip=CHIP)
            balanced, _ = rebalance_plan(plan, row_nnz, cluster)
            assert (
                chip_loads(balanced, row_nnz).max()
                <= chip_loads(plan, row_nnz).max()
            )

    def test_single_chip_noop(self):
        row_nnz = self._skewed()
        plan = make_plan(row_nnz, 1)
        cluster = ClusterConfig(n_chips=1, chip=CHIP)
        balanced, info = rebalance_plan(plan, row_nnz, cluster)
        assert balanced is plan and not info.migrated

    def test_scattered_plan_rejected(self):
        row_nnz = self._skewed()
        plan = make_plan(row_nnz, 2)
        scattered = plan.with_owner(
            np.where(np.arange(plan.n_blocks) % 2 == 0, 0, 1)
        )
        with pytest.raises(ConfigError):
            rebalance_plan(scattered, row_nnz,
                           ClusterConfig(n_chips=2, chip=CHIP))


def _diffuse_pairs_reference(bounds, weights, chip_time, marginal, *,
                             block_rows=None, row_counts=None,
                             row_ceilings=None):
    """The mirrored boundary-diffusion sweep: one transfer loop for a
    hotter left chip and its mirror for a hotter right chip, with the
    caller's per-chip ``row_counts`` mutated in place. The oracle for
    :func:`~repro.cluster.multichip._diffuse_pairs`."""
    n_chips = chip_time.size
    moved_any = False
    for left in range(n_chips - 1):
        gap = chip_time[left] - chip_time[left + 1]
        target = abs(gap) / 2.0
        if gap > 0:
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


@st.composite
def diffusion_sweeps(draw):
    """A random contiguous chip chain: block bounds, integer or float
    block weights, per-block rows, uniform or heterogeneous marginals,
    time estimates and, optionally, row ceilings at or above each
    chip's rows."""
    n_chips = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    per_chip = rng.integers(1, draw(st.integers(2, 12)), size=n_chips)
    bounds = np.concatenate(([0], np.cumsum(per_chip))).astype(np.int64)
    n_blocks = int(bounds[-1])
    if draw(st.booleans()):
        weights = rng.integers(0, 50, size=n_blocks).astype(np.int64)
        weights[rng.integers(0, n_blocks, size=2)] *= 40
    else:
        weights = rng.exponential(10.0, size=n_blocks)
    block_rows = rng.integers(1, 6, size=n_blocks).astype(np.int64)
    if draw(st.booleans()):
        marginal = np.ones(n_chips)
    else:
        marginal = rng.uniform(0.1, 3.0, size=n_chips)
    if draw(st.booleans()):
        # The load signal: each chip's time is its load times marginal.
        chip_time = (np.add.reduceat(weights, bounds[:-1]).astype(np.float64)
                     * marginal)
    else:
        # A measured signal, independent of the loads.
        chip_time = rng.integers(0, 2_000, size=n_chips).astype(np.float64)
    ceilings = None
    if draw(st.booleans()):
        rows = np.add.reduceat(block_rows, bounds[:-1])
        ceilings = rows + rng.integers(0, draw(st.sampled_from([1, 4, 30])),
                                       size=n_chips)
    return bounds, weights, chip_time, marginal, block_rows, ceilings


class TestDiffusePairsMatchesMirroredSweep:
    """The one-loop sweep moves exactly what the mirrored one moved."""

    @settings(max_examples=300, deadline=None)
    @given(diffusion_sweeps())
    # The taker fills its ceiling exactly.
    @example((np.array([0, 3, 4]), np.array([5, 5, 5, 1]),
              np.array([15.0, 1.0]), np.ones(2), np.ones(4, dtype=np.int64),
              np.array([4, 2])))
    # A weightless block still leaves the giver its last one.
    @example((np.array([0, 1, 2]), np.zeros(2), np.array([100.0, 0.0]),
              np.ones(2), np.ones(2, dtype=np.int64), None))
    def test_sweep_equals_reference(self, case):
        bounds, weights, chip_time, marginal, block_rows, ceilings = case
        # Both sweeps shift bounds and times in place: each gets a copy.
        bounds, chip_time = bounds.copy(), chip_time.copy()
        ref_bounds, ref_time = bounds.copy(), chip_time.copy()
        row_counts = (
            np.add.reduceat(block_rows, bounds[:-1]).astype(np.int64)
            if ceilings is not None else None
        )
        ref_moved = _diffuse_pairs_reference(
            ref_bounds, weights, ref_time, marginal,
            block_rows=block_rows if ceilings is not None else None,
            row_counts=row_counts, row_ceilings=ceilings,
        )
        moved = _diffuse_pairs(bounds, weights, chip_time, marginal,
                               block_rows, ceilings)
        assert moved == ref_moved
        assert np.array_equal(bounds, ref_bounds)
        assert np.array_equal(chip_time, ref_time)
        if ceilings is not None:
            assert np.array_equal(
                np.add.reduceat(block_rows, bounds[:-1]), row_counts
            )


class TestSimulateMultichipGcn:
    def test_single_chip_matches_accelerator(self, dataset):
        cluster = ClusterConfig(n_chips=1, chip=CHIP)
        report = simulate_multichip_gcn(dataset, cluster)
        single = GcnAccelerator(dataset, CHIP).run()
        assert report.total_cycles == single.total_cycles
        assert report.comm_cycles == 0

    def test_deterministic(self, dataset):
        cluster = ClusterConfig(n_chips=4, chip=CHIP)
        a = simulate_multichip_gcn(dataset, cluster)
        b = simulate_multichip_gcn(dataset, cluster)
        assert a.total_cycles == b.total_cycles
        assert np.array_equal(a.plan.owner, b.plan.owner)

    def test_work_conserved_across_chips(self, dataset):
        cluster = ClusterConfig(n_chips=4, chip=CHIP)
        report = simulate_multichip_gcn(dataset, cluster)
        single = GcnAccelerator(dataset, CHIP).run()
        assert report.total_work == single.total_work

    def test_layer_costs_are_barrier_synchronized(self, dataset):
        cluster = ClusterConfig(n_chips=4, chip=CHIP, rebalance=False)
        report = simulate_multichip_gcn(dataset, cluster)
        for layer, cost in enumerate(report.layer_cycles):
            compute = np.asarray([
                r.layers[layer].pipelined_cycles
                for r in report.chip_reports
            ])
            expected = int(
                (compute + report.comm_cycles_per_layer[layer]).max()
            ) + BARRIER_CYCLES
            assert cost == expected
        assert report.total_cycles == (
            sum(report.layer_cycles) + report.migration_cycles
        )

    def test_rebalancing_beats_static_on_hub_graph(self, dataset):
        static = simulate_multichip_gcn(
            dataset,
            ClusterConfig(n_chips=4, chip=CHIP, strategy="rows",
                          rebalance=False),
        )
        rebalanced = simulate_multichip_gcn(
            dataset,
            ClusterConfig(n_chips=4, chip=CHIP, strategy="rows",
                          rebalance=True),
        )
        assert rebalanced.rebalance.migrated
        assert rebalanced.total_cycles < static.total_cycles

    def test_cache_replay_is_cycle_identical(self, dataset):
        cache = AutotuneCache()
        cluster = ClusterConfig(n_chips=4, chip=CHIP)
        cold = simulate_multichip_gcn(dataset, cluster, cache=cache)
        warm = simulate_multichip_gcn(dataset, cluster, cache=cache)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.total_cycles == cold.total_cycles
        assert warm.layer_cycles == cold.layer_cycles

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_chips=2, chip=CHIP, link_words_per_cycle=0)

    def test_utilization_in_unit_interval(self, dataset):
        report = simulate_multichip_gcn(
            dataset, ClusterConfig(n_chips=4, chip=CHIP)
        )
        assert 0.0 < report.utilization <= 1.0
        assert 0.0 <= report.comm_fraction < 1.0


class TestHeterogeneousCluster:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2 ** 16),
        st.integers(2, 5),
        st.sampled_from(["rows", "nnz"]),
        st.integers(2, 8),
    )
    def test_identical_chips_reproduce_homogeneous_bit_for_bit(
        self, seed, n_chips, strategy, blocks_per_chip
    ):
        # The heterogeneous machinery (capacity normalization,
        # reference-clock conversion, per-chip configs) must be exactly
        # the identity when every chip equals the reference chip.
        spec = RmatGraphSpec(
            n_nodes=512, avg_degree=8, f1=16, f2=8, f3=4, seed=seed,
            abcd=(0.6, 0.15, 0.15, 0.1),
        )
        dataset = spec.build()
        common = dict(
            n_chips=n_chips, strategy=strategy,
            blocks_per_chip=blocks_per_chip, link_words_per_cycle=8.0,
        )
        homog = simulate_multichip_gcn(
            dataset, ClusterConfig(chip=CHIP, **common)
        )
        hetero = simulate_multichip_gcn(
            dataset,
            ClusterConfig(chips=(CHIP,) * n_chips, topology="all-to-all",
                          **common),
        )
        assert hetero.total_cycles == homog.total_cycles
        assert hetero.layer_cycles == homog.layer_cycles
        assert hetero.migration_cycles == homog.migration_cycles
        assert np.array_equal(hetero.plan.owner, homog.plan.owner)
        assert np.array_equal(
            hetero.comm_cycles_per_layer, homog.comm_cycles_per_layer
        )
        assert [r.total_cycles for r in hetero.chip_reports] == [
            r.total_cycles for r in homog.chip_reports
        ]
        assert hetero.utilization == homog.utilization

    def test_capacities_scale_with_pes_and_frequency(self):
        big = CHIP
        half_pes = CHIP.with_updates(n_pes=CHIP.n_pes // 2)
        half_clock = CHIP.with_updates(
            frequency_mhz=CHIP.frequency_mhz / 2
        )
        cluster = ClusterConfig(
            n_chips=3, chips=(big, half_pes, half_clock)
        )
        assert cluster.capacities().tolist() == [1.0, 0.5, 0.5]
        assert cluster.chip == big  # chips[0] is the reference

    def test_nnz_partition_feeds_faster_chips_more(self, dataset):
        big = CHIP.with_updates(n_pes=CHIP.n_pes * 4)
        cluster = ClusterConfig(n_chips=2, chips=(big, CHIP))
        report = simulate_multichip_gcn(dataset, cluster)
        loads = chip_loads(report.plan, dataset.adjacency_row_nnz())
        assert loads[0] > loads[1]

    def test_slow_clock_chip_stretches_reference_cycles(self, dataset):
        slow = CHIP.with_updates(frequency_mhz=CHIP.frequency_mhz / 2)
        cluster = ClusterConfig(
            n_chips=2, chips=(CHIP, slow), rebalance=False,
            strategy="rows",
        )
        report = simulate_multichip_gcn(dataset, cluster)
        # Chip 1's own-clock compute doubles when priced at the
        # (faster) reference clock.
        own = report.chip_reports[1].layers[0].pipelined_cycles
        assert report.chip_compute_per_layer[0][1] == own * 2

    def test_chips_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_chips=3, chips=(CHIP, CHIP))

    def test_chips_type_checked(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_chips=2, chips=(CHIP, "chip"))


class TestTopologyAndOverlap:
    def test_ring_equal_aggregate_bandwidth_is_slower(self, dataset):
        a2a = ClusterConfig(
            n_chips=4, chip=CHIP, link_words_per_cycle=16.0
        )
        ring = ClusterConfig(
            n_chips=4, chip=CHIP, link_words_per_cycle=8.0,
            topology="ring",
        )
        assert (
            simulate_multichip_gcn(dataset, ring).total_cycles
            > simulate_multichip_gcn(dataset, a2a).total_cycles
        )

    def test_overlap_never_loses_and_hides_comm(self, dataset):
        serial = ClusterConfig(
            n_chips=4, chip=CHIP, link_words_per_cycle=4.0
        )
        overlapped = ClusterConfig(
            n_chips=4, chip=CHIP, link_words_per_cycle=4.0, overlap=True
        )
        r_serial = simulate_multichip_gcn(dataset, serial)
        r_overlap = simulate_multichip_gcn(dataset, overlapped)
        assert r_overlap.total_cycles <= r_serial.total_cycles
        assert r_overlap.comm_cycles < r_serial.comm_cycles

    @pytest.mark.parametrize("bw,lat", [(0.05, 64), (0.1, 32), (1.0, 8)])
    def test_overlap_never_loses_when_comm_dominates(self, dataset, bw, lat):
        # The regime where a naive max(compute, comm) + exposed-round
        # composition double-counts the first buffer: per-layer compute
        # sits below one round's halo cost, so the exposed round must
        # be part of the total, not added on top of it.
        common = dict(
            n_chips=4, chip=CHIP, rebalance=False,
            link_words_per_cycle=bw, hop_latency_cycles=lat,
        )
        r_serial = simulate_multichip_gcn(
            dataset, ClusterConfig(**common)
        )
        r_overlap = simulate_multichip_gcn(
            dataset, ClusterConfig(overlap=True, **common)
        )
        assert r_overlap.total_cycles <= r_serial.total_cycles

    def test_overlap_single_chip_is_identity(self, dataset):
        base = ClusterConfig(n_chips=1, chip=CHIP)
        over = ClusterConfig(n_chips=1, chip=CHIP, overlap=True)
        assert (
            simulate_multichip_gcn(dataset, base).total_cycles
            == simulate_multichip_gcn(dataset, over).total_cycles
        )

    def test_prebuilt_topology_instance_accepted(self, dataset):
        fabric = make_topology(
            "mesh2d", 4, link_words_per_cycle=8.0, hop_latency_cycles=4
        )
        cluster = ClusterConfig(n_chips=4, chip=CHIP, topology=fabric)
        report = simulate_multichip_gcn(dataset, cluster)
        assert report.total_cycles > 0

    def test_topology_chip_count_mismatch_rejected(self):
        fabric = make_topology("ring", 3)
        with pytest.raises(ConfigError):
            ClusterConfig(n_chips=4, chip=CHIP, topology=fabric)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_chips=4, chip=CHIP, topology="hypercube")


class TestCycleFeedbackRebalance:
    def test_never_worse_than_load_signal(self, dataset):
        for strategy in ("rows", "nnz"):
            common = dict(
                n_chips=4, chip=CHIP, strategy=strategy,
                blocks_per_chip=4, link_words_per_cycle=16.0,
            )
            load = simulate_multichip_gcn(
                dataset, ClusterConfig(**common)
            )
            feedback = simulate_multichip_gcn(
                dataset,
                ClusterConfig(rebalance_signal="cycles", **common),
            )
            assert feedback.total_cycles <= load.total_cycles
            assert feedback.rebalance.signal == "cycles"

    def test_feedback_deterministic(self, dataset):
        cluster = ClusterConfig(
            n_chips=4, chip=CHIP, rebalance_signal="cycles",
        )
        a = simulate_multichip_gcn(dataset, cluster)
        b = simulate_multichip_gcn(dataset, cluster)
        assert a.total_cycles == b.total_cycles
        assert np.array_equal(a.plan.owner, b.plan.owner)

    def test_feedback_cache_replay_is_cycle_identical(self, dataset):
        cache = AutotuneCache()
        cluster = ClusterConfig(
            n_chips=4, chip=CHIP, rebalance_signal="cycles",
        )
        cold = simulate_multichip_gcn(dataset, cluster, cache=cache)
        warm = simulate_multichip_gcn(dataset, cluster, cache=cache)
        assert warm.cache_hit
        assert warm.total_cycles == cold.total_cycles

    def test_feedback_stores_only_winner_entries(self, dataset):
        # Exploration rounds must not pollute a shared (possibly
        # bounded) cache with tuning state of discarded plans: after a
        # cold feedback run the cache holds exactly one entry per chip
        # of the winning plan.
        cache = AutotuneCache()
        cluster = ClusterConfig(
            n_chips=4, chip=CHIP, strategy="rows",
            rebalance_signal="cycles",
        )
        report = simulate_multichip_gcn(dataset, cluster, cache=cache)
        assert report.rebalance.signal == "cycles"
        assert len(cache) == cluster.n_chips

    def test_signal_reported_when_feedback_gate_closed(self, dataset):
        # blocks_per_chip=1 leaves nothing to migrate: the controller
        # no-ops, but the report must still name the configured signal.
        report = simulate_multichip_gcn(
            dataset,
            ClusterConfig(n_chips=4, chip=CHIP, blocks_per_chip=1,
                          rebalance_signal="cycles"),
        )
        assert not report.rebalance.migrated
        assert report.rebalance.signal == "cycles"

    def test_bad_signal_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_chips=2, chip=CHIP, rebalance_signal="vibes")

    def test_negative_hop_latency_rejected_at_init(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_chips=4, chip=CHIP, topology="ring",
                          hop_latency_cycles=-5)


class TestValidationGaps:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0, -2.0])
    def test_non_finite_link_bandwidth_rejected(self, bad):
        with pytest.raises(ConfigError):
            ClusterConfig(n_chips=2, chip=CHIP, link_words_per_cycle=bad)

    def test_plan_cluster_chip_count_mismatch_rejected(self):
        row_nnz = np.ones(64, dtype=np.int64)
        plan = make_plan(row_nnz, 2)
        with pytest.raises(ConfigError):
            rebalance_plan(plan, row_nnz,
                           ClusterConfig(n_chips=4, chip=CHIP))

    def test_shard_count_exceeding_block_count_named(self):
        # make_plan names the failure instead of letting ShardPlan's
        # ownership invariant (or downstream indexing) trip over it.
        with pytest.raises(ConfigError, match="block count|rows across"):
            make_plan(np.ones(3, dtype=np.int64), 4)


class TestShardScalingHarness:
    def test_tiny_sweep_shape_and_claims(self):
        rows, text = compare_shard_scaling(
            chip_counts=(1, 2), n_nodes=2048, weak_nodes_per_chip=1024,
            pes_per_chip=32, seed=3,
        )
        assert {r["mode"] for r in rows} == {"strong", "weak"}
        assert {r["regime"] for r in rows} == {"rows", "nnz", "rows+rebal"}
        for row in rows:
            assert row["cycles"] > 0
            if row["chips"] == 1:
                assert row["speedup"] == 1
                assert row["comm_frac"] == 0
        assert "rebalancing" in text

    def test_flavored_sweep_runs(self):
        flavors = (
            ({"n_nodes": 1024, "weak_nodes_per_chip": 512,
              "pes_per_chip": 32, "topology": "ring",
              "hop_latency_cycles": 4, "hetero": True, "overlap": True,
              "feedback": True},
             ("ring", "cycle feedback")),
        )
        for kwargs, labels in flavors:
            rows, text = compare_shard_scaling(
                chip_counts=(1, 2), seed=3, **kwargs
            )
            assert all(r["cycles"] > 0 for r in rows)
            for label in labels:
                assert label in text

    def test_topology_sweep_shape(self):
        rows, _text = compare_shard_topology(
            n_chips=4, n_nodes=1024, pes_per_chip=32, seed=3,
        )
        assert len(rows) == 12  # 3 topologies x 2 signals x 2 overlap
        assert {r["topology"] for r in rows} == {
            "all-to-all", "ring", "mesh2d"
        }
        by_cell = {
            (r["topology"], r["signal"], r["overlap"]): r["cycles"]
            for r in rows
        }
        for topology in ("all-to-all", "ring", "mesh2d"):
            for overlap in (False, True):
                assert (
                    by_cell[(topology, "cycles", overlap)]
                    <= by_cell[(topology, "load", overlap)]
                )