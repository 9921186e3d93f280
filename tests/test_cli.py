"""The command-line interface."""

import pytest

from repro.accel import (
    ArchConfig,
    GcnAccelerator,
    RowAssignment,
    SpmmJob,
    build_spmm_jobs,
    run_design_suite,
    share_makespan,
    share_makespan_batch,
    simulate_spmm,
)
from repro.analysis import (
    compare_cache_affinity,
    compare_shard_scaling,
    table1_profile,
)
from repro.baselines import CpuModel, GpuModel
from repro.cli import build_parser, main
from repro.cluster import (
    ClusterConfig,
    ShardedAccelerator,
    rebalance_plan,
    simulate_multichip_gcn,
)
from repro.datasets import (
    build_dataset,
    gcn_normalize,
    load_dataset,
    rmat_edges,
)
from repro.errors import ConfigError
from repro.hw import (
    ProcessingElement,
    QueueGroup,
    TaskQueue,
    Tdq1Dispatcher,
    Tdq2Dispatcher,
    simulate_spmm_detailed,
)
from repro.model import GcnModel, build_model
from repro.obs import RecordingTracer, render_round_heat
from repro.serve import (
    AutotuneCache,
    DemandHistogram,
    InferenceService,
    StreamingScheduler,
    bursty_arrivals,
    mixed_traffic,
    poisson_arrivals,
    streaming_traffic,
    synthetic_traffic,
)
from repro.sparse import CooMatrix, row_nnz_histogram, spmm_csc_dense
from repro.utils.validation import check_fraction

# The extension-sweep subcommands the CLI no longer registers: their
# sweeps regenerate from benchmarks/bench_*.py.
REMOVED_SUBCOMMANDS = (
    "serve-bench", "bench-rebalance", "shard-bench", "shard-topology",
    "mixed-bench", "affinity-bench",
)

# Keywords and fields deleted because no caller set anything but their
# default (now a module constant or the only behavior): passing one is
# a TypeError.
REMOVED_KEYWORDS = {
    "InferenceService.max_wait": lambda: InferenceService(max_wait=0.1),
    "InferenceService.reconfig_cycles":
        lambda: InferenceService(reconfig_cycles=0),
    "InferenceService.replicate_k": lambda: InferenceService(replicate_k=2),
    "InferenceService.demand_half_life":
        lambda: InferenceService(demand_half_life=0.05),
    "StreamingScheduler.max_wait": lambda: StreamingScheduler(max_wait=0.1),
    "StreamingScheduler.priorities":
        lambda: StreamingScheduler(priorities=True),
    "StreamingScheduler.critical_slo_ms":
        lambda: StreamingScheduler(critical_slo_ms=1.0),
    "ClusterConfig.barrier_cycles": lambda: ClusterConfig(barrier_cycles=64),
    "ClusterConfig.migration_words_per_nnz":
        lambda: ClusterConfig(migration_words_per_nnz=2),
    "ClusterConfig.max_rebalance_rounds":
        lambda: ClusterConfig(max_rebalance_rounds=16),
    "ClusterConfig.rebalance_patience":
        lambda: ClusterConfig(rebalance_patience=2),
    # A run's fabric background is simulate_multichip_gcn(background=).
    "ClusterConfig.background_link_loads":
        lambda: ClusterConfig(background_link_loads=(1.0,)),
    "simulate_multichip_gcn.plan":
        lambda: simulate_multichip_gcn(None, ClusterConfig(), plan=None),
    "ShardedAccelerator.plan":
        lambda: ShardedAccelerator(None, ClusterConfig(), plan=None),
    "rebalance_plan.capacities":
        lambda: rebalance_plan(None, None, ClusterConfig(), capacities=None),
    "rebalance_plan.row_ceilings":
        lambda: rebalance_plan(None, None, ClusterConfig(),
                               row_ceilings=None),
    # The cycle model divides by ArchConfig.sharing_efficiency itself.
    "share_makespan.efficiency":
        lambda: share_makespan([1], 1, efficiency=1.0),
    "share_makespan_batch.efficiency":
        lambda: share_makespan_batch([[1]], 1, efficiency=1.0),
    "RecordingTracer.splice.anchor":
        lambda: RecordingTracer().splice((), anchor=0.0),
    "render_round_heat.max_strips":
        lambda: render_round_heat((), max_strips=1),
    "row_nnz_histogram.log_bins":
        lambda: row_nnz_histogram([1], log_bins=False),
    "gcn_normalize.add_loops":
        lambda: gcn_normalize(CooMatrix.empty((1, 1)), add_loops=False),
    "check_fraction.inclusive_high":
        lambda: check_fraction(0.5, "x", inclusive_high=False),
    # One name per traffic knob: family_size and repeat_alpha.
    "synthetic_traffic.n_graphs": lambda: synthetic_traffic(1, n_graphs=1),
    "synthetic_traffic.zipf_skew":
        lambda: synthetic_traffic(1, zipf_skew=1.0),
    "streaming_traffic.n_graphs":
        lambda: streaming_traffic(1, arrival_rate=1.0, n_graphs=1),
    "streaming_traffic.zipf_skew":
        lambda: streaming_traffic(1, arrival_rate=1.0, zipf_skew=1.0),
    "mixed_traffic.n_graphs":
        lambda: mixed_traffic(1, arrival_rate=1.0, chip_capacity=64,
                              n_graphs=1),
    # Options no call outside tests set (tests/test_dead_code.py keeps
    # them so); each default is now the only behavior.
    "CooMatrix.keep_zeros":
        lambda: CooMatrix((1, 1), [0], [0], [0.0], keep_zeros=True),
    "spmm_csc_dense.flat_kernel_threshold":
        lambda: spmm_csc_dense(None, None, flat_kernel_threshold=1),
    "rmat_edges.dedupe": lambda: rmat_edges(4, 4, dedupe=False),
    "rmat_edges.max_attempts": lambda: rmat_edges(4, 4, max_attempts=1),
    "load_dataset.materialize":
        lambda: load_dataset("cora", "tiny", materialize=False),
    "build_dataset.materialize":
        lambda: build_dataset("cora", "tiny", materialize=False),
    "build_model.final_softmax": lambda: build_model(None, final_softmax=False),
    "GcnModel.final_softmax":
        lambda: GcnModel(None, None, final_softmax=False),
    "run_design_suite.x2_row_nnz":
        lambda: run_design_suite(None, x2_row_nnz=None),
    "GcnAccelerator.x2_row_nnz":
        lambda: GcnAccelerator(None, ArchConfig(), x2_row_nnz=None),
    "build_spmm_jobs.x2_row_nnz":
        lambda: build_spmm_jobs(None, x2_row_nnz=None),
    "compare_shard_scaling.row_ceiling":
        lambda: compare_shard_scaling(row_ceiling=400),
    "compare_shard_scaling.stragglers":
        lambda: compare_shard_scaling(stragglers=()),
    "compare_cache_affinity.graph_kwargs":
        lambda: compare_cache_affinity(graph_kwargs={}),
    "AutotuneCache.load.max_entries":
        lambda: AutotuneCache.load("cache.npz", max_entries=1),
    "mixed_traffic.repeat_alpha":
        lambda: mixed_traffic(1, arrival_rate=1.0, chip_capacity=64,
                              repeat_alpha=1.2),
    "simulate_spmm_detailed.owner_of_row":
        lambda: simulate_spmm_detailed(None, None, owner_of_row=None),
    "Tdq1Dispatcher.scan_bandwidth":
        lambda: Tdq1Dispatcher(None, None, None, scan_bandwidth=8),
    "Tdq2Dispatcher.inject_bandwidth":
        lambda: Tdq2Dispatcher(None, [0], [], None, inject_bandwidth=8),
    "ProcessingElement.queue_capacity":
        lambda: ProcessingElement(0, queue_capacity=2),
    "QueueGroup.capacity": lambda: QueueGroup(1, capacity=2),
    "TaskQueue.capacity": lambda: TaskQueue(capacity=2),
    "table1_profile.measure_x2": lambda: table1_profile(measure_x2=False),
    "poisson_arrivals.start":
        lambda: poisson_arrivals(1, rate=1.0, start=1.0),
    "bursty_arrivals.start":
        lambda: bursty_arrivals(1, rate=1.0, start=1.0),
    "DemandHistogram.record.weight":
        lambda: DemandHistogram(threshold=1.0).record("f", 0.0, weight=2.0),
    "CpuModel.effective_gflops": lambda: CpuModel(effective_gflops=1.0),
    "CpuModel.overhead_ms": lambda: CpuModel(overhead_ms=1.0),
    "GpuModel.small_gflops": lambda: GpuModel(small_gflops=1.0),
    "GpuModel.large_gflops": lambda: GpuModel(large_gflops=1.0),
    "GpuModel.threshold_ops": lambda: GpuModel(threshold_ops=1.0),
    "GpuModel.overhead_ms": lambda: GpuModel(overhead_ms=1.0),
    # Its one caller always passes the target: a switch without one is
    # a TypeError, not the old unbounded move.
    "RowAssignment.swap_rows.work_target":
        lambda: RowAssignment([1, 1], 2).swap_rows(0, 1, 1),
}
REMOVED_CLUSTER_NAMES = (
    # The sharded numerical oracle, now tests/sharded_oracle.py.
    "reference_forward", "sharded_spmm", "sharded_gcn_forward",
)
# Names a package no longer exports, with the package a caller of the
# old export would import them from.
REMOVED_EXPORTS = {
    **dict.fromkeys(REMOVED_CLUSTER_NAMES, "repro.cluster"),
    # The private type of a cache miss's kept cold run: no public
    # method takes or returns one.
    "ColdRun": "repro.accel",
    # The tuner's unused outcome record; a cached tuning is
    # CachedTuning, built from the SpmmResult.
    "TuningOutcome": "repro.accel",
    # Names nothing but their own tests called (tests/test_dead_code.py
    # keeps it so). The scalar window bounds are the batched ones on
    # one row; the stream fingerprint is tests/trace_identity.py.
    **dict.fromkeys(("per_pe_max_row", "share_window_bounds"),
                    "repro.accel"),
    **dict.fromkeys(
        ("csc_to_coo", "csc_to_csr", "csr_to_coo", "csr_to_csc",
         "from_scipy", "to_scipy_csc", "to_scipy_csr", "spmv_csr",
         "spgemm_csr", "transpose_csr", "partition_loads"),
        "repro.sparse",
    ),
    # "io" is the dataset persistence module.
    **dict.fromkeys(("edges_fingerprint", "load_dataset_file",
                     "save_dataset", "io"), "repro.datasets"),
    **dict.fromkeys(("structural_product_nnz", "expected_product_nnz"),
                    "repro.model"),
    "measure_cpu_latency_ms": "repro.baselines",
    "rows_to_json": "repro.analysis",
    **dict.fromkeys(("event_key", "stream_fingerprint"), "repro.obs"),
    # The nearest-rank oracle LatencyStats.fold is checked against, now
    # in tests/test_obs.py.
    "percentile": "repro.serve",
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.preset == "scaled"
        assert args.seed == 7
        assert args.datasets is None


class TestCommands:
    def test_summary(self, capsys):
        code = main(["summary", "--preset", "tiny", "--seed", "3",
                     "--datasets", "cora"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cora/tiny" in out

    def test_table1(self, capsys):
        code = main(["table1", "--preset", "tiny", "--seed", "3",
                     "--datasets", "cora"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_table2_with_csv_out(self, capsys, tmp_path):
        code = main([
            "table2", "--preset", "tiny", "--seed", "3",
            "--datasets", "cora", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "table2.csv").exists()
        assert "Table 2" in capsys.readouterr().out

    def test_table3(self, capsys):
        code = main(["table3", "--preset", "tiny", "--seed", "3",
                     "--datasets", "cora", "--pes", "16"])
        assert code == 0
        assert "Table 3" in capsys.readouterr().out

    def test_fig_dist(self, capsys):
        code = main(["fig-dist", "--preset", "tiny", "--seed", "3",
                     "--datasets", "nell"])
        assert code == 0
        assert "nell" in capsys.readouterr().out

    def test_fig14(self, capsys):
        code = main(["fig14", "--preset", "tiny", "--seed", "3",
                     "--datasets", "cora", "--pes", "16"])
        assert code == 0
        assert "Fig. 14" in capsys.readouterr().out

    def test_fig14_spmm(self, capsys):
        code = main(["fig14-spmm", "--preset", "tiny", "--seed", "3",
                     "--datasets", "cora", "--pes", "16"])
        assert code == 0
        assert "ideal" in capsys.readouterr().out

    def test_fig14_area(self, capsys):
        code = main(["fig14-area", "--preset", "tiny", "--seed", "3",
                     "--datasets", "cora", "--pes", "16"])
        assert code == 0
        assert "TQ" in capsys.readouterr().out

    def test_fig15(self, capsys):
        code = main(["fig15", "--preset", "tiny", "--seed", "3",
                     "--datasets", "cora", "--pe-counts", "8,16"])
        assert code == 0
        assert "Fig. 15" in capsys.readouterr().out

    def test_trace_rejects_a_seed_for_the_shard_scenario(self, tmp_path):
        with pytest.raises(ConfigError, match="'shard'"):
            main(["trace", "--scenario", "shard", "--seed", "3",
                  "--trace-dir", str(tmp_path)])
        assert not list(tmp_path.iterdir())

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "summary", "--preset", "tiny",
             "--seed", "3", "--datasets", "cora"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "cora/tiny" in proc.stdout


class TestRemovedSurface:
    @pytest.mark.parametrize(
        "removed", [*REMOVED_SUBCOMMANDS, "batched_tuning",
                    "worker_configs", "chip_capacity_list",
                    *REMOVED_KEYWORDS, "cluster_options.barrier_cycles",
                    *REMOVED_EXPORTS]
    )
    def test_removed_surface_stays_gone(self, removed):
        if removed in REMOVED_EXPORTS:
            # The statement a caller of the old export would write.
            with pytest.raises(ImportError, match=removed):
                exec(f"from {REMOVED_EXPORTS[removed]} import {removed}", {})
            return
        if removed in REMOVED_KEYWORDS:
            with pytest.raises(TypeError):
                REMOVED_KEYWORDS[removed]()
            return
        if removed == "cluster_options.barrier_cycles":
            # Not a ClusterConfig field any more, so the service refuses
            # it at construction instead of ignoring it.
            with pytest.raises(ConfigError, match="barrier_cycles"):
                InferenceService(chip_capacity=256,
                                 cluster_options={"barrier_cycles": 1})
            return
        if removed == "batched_tuning":
            job = SpmmJob(name="j", row_nnz=[1, 2, 3], n_rounds=2)
            with pytest.raises(TypeError):
                simulate_spmm(job, ArchConfig(n_pes=2), batched_tuning=False)
            return
        if removed == "worker_configs":
            with pytest.raises(TypeError):
                InferenceService(n_workers=2,
                                 worker_configs=[ArchConfig(n_pes=2)] * 2)
            return
        if removed == "chip_capacity_list":
            # The pool is uniform: one capacity, never one per instance.
            with pytest.raises(ConfigError, match="chip_capacity"):
                InferenceService(n_workers=2, chip_capacity=[128, 256])
            return
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([removed])
        assert excinfo.value.code == 2
