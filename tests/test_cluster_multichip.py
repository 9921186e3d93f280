"""Tests for the multi-chip cycle model and chip-level rebalancer."""

import numpy as np
import pytest
from hypothesis import given, settings
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
from repro.errors import ConfigError
from repro.serve import AutotuneCache, RmatGraphSpec

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

    def test_for_shard_matches_sliced_run(self, dataset):
        plan = make_plan(dataset.adjacency_row_nnz(), 2)
        rows = plan.chip_rows(0)
        direct = GcnAccelerator.for_shard(dataset, CHIP, rows).run()
        layers = build_spmm_jobs(dataset)
        via_jobs = GcnAccelerator.from_jobs(
            slice_jobs(layers, rows), CHIP
        ).run()
        assert direct.total_cycles == via_jobs.total_cycles


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
            balanced.chip_loads(row_nnz).max()
            < plan.chip_loads(row_nnz).max()
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
                balanced.chip_loads(row_nnz).max()
                <= plan.chip_loads(row_nnz).max()
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
            ) + cluster.barrier_cycles
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

    def test_mismatched_plan_rejected(self, dataset):
        plan = make_plan(np.ones(64, dtype=np.int64), 2)
        cluster = ClusterConfig(n_chips=2, chip=CHIP)
        with pytest.raises(ConfigError):
            simulate_multichip_gcn(dataset, cluster, plan=plan)

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
        loads = report.plan.chip_loads(dataset.adjacency_row_nnz())
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0, -1])
    def test_non_finite_migration_price_rejected(self, bad):
        with pytest.raises(ConfigError):
            ClusterConfig(n_chips=2, chip=CHIP, migration_words_per_nnz=bad)

    def test_fractional_migration_price_accepted(self, dataset):
        cluster = ClusterConfig(
            n_chips=4, chip=CHIP, migration_words_per_nnz=0.5,
            strategy="rows",
        )
        report = simulate_multichip_gcn(dataset, cluster)
        assert report.migration_cycles >= 0

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
        rows, text = compare_shard_scaling(
            chip_counts=(1, 2), n_nodes=1024, weak_nodes_per_chip=512,
            pes_per_chip=32, seed=3, topology="ring",
            hop_latency_cycles=4, hetero=True, overlap=True,
            feedback=True,
        )
        assert all(r["cycles"] > 0 for r in rows)
        assert "ring" in text and "cycle feedback" in text

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