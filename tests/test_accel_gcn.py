"""Full-inference accelerator model: jobs, pipelining, reports, designs."""

import numpy as np
import pytest

from repro.accel import (
    ArchConfig,
    GcnAccelerator,
    build_spmm_jobs,
    design_config,
    design_hops,
    run_design_suite,
)
from repro.accel.designs import DESIGN_NAMES
from repro.errors import ConfigError


class TestJobConstruction:
    def test_four_jobs_two_layers(self, tiny_cora):
        jobs = build_spmm_jobs(tiny_cora)
        flat = [job for pair in jobs for job in pair]
        assert [j.name for j in flat] == [
            "L1:XW", "L1:A(XW)", "L2:XW", "L2:A(XW)",
        ]

    def test_round_counts_follow_dims(self, tiny_cora):
        _f1, f2, f3 = tiny_cora.feature_dims
        jobs = build_spmm_jobs(tiny_cora)
        assert jobs[0][0].n_rounds == f2
        assert jobs[0][1].n_rounds == f2
        assert jobs[1][0].n_rounds == f3
        assert jobs[1][1].n_rounds == f3

    def test_tdq_selection(self, tiny_cora):
        jobs = build_spmm_jobs(tiny_cora)
        assert jobs[0][0].tdq == "tdq1"  # X W: general sparse
        assert jobs[0][1].tdq == "tdq2"  # A (XW): ultra sparse CSC

    def test_a_jobs_share_row_profile(self, tiny_cora):
        jobs = build_spmm_jobs(tiny_cora)
        assert np.array_equal(jobs[0][1].row_nnz, jobs[1][1].row_nnz)

    def test_layer_two_reads_the_x2_forecast(self, tiny_cora):
        jobs = build_spmm_jobs(tiny_cora)
        assert np.array_equal(jobs[1][0].row_nnz, tiny_cora.x2_row_nnz)


class TestAcceleratorRun:
    def test_report_structure(self, tiny_cora):
        report = GcnAccelerator(tiny_cora, ArchConfig(n_pes=16)).run()
        assert len(report.layers) == 2
        assert len(report.spmm_results) == 4
        assert report.total_cycles > 0
        assert 0 < report.utilization <= 1.0
        assert report.latency_ms > 0

    def test_per_layer_cycles_sum_to_total(self, tiny_cora):
        report = GcnAccelerator(tiny_cora, ArchConfig(n_pes=16)).run()
        assert sum(report.per_layer_cycles()) == report.total_cycles

    def test_work_respects_aggregate_bandwidth(self, tiny_cora):
        # Utilization can never exceed 1: cycles >= work / PEs.
        for design in DESIGN_NAMES:
            cfg = design_config(design, dataset_name="cora",
                                base=ArchConfig(n_pes=16))
            report = GcnAccelerator(tiny_cora, cfg).run()
            assert report.total_cycles * 16 >= report.total_work

    def test_pipelining_never_slower(self, tiny_cora):
        on = GcnAccelerator(
            tiny_cora, ArchConfig(n_pes=16, pipeline_spmm=True)
        ).run()
        off = GcnAccelerator(
            tiny_cora, ArchConfig(n_pes=16, pipeline_spmm=False)
        ).run()
        assert on.total_cycles <= off.total_cycles

    def test_pipeline_speedup_property(self, tiny_cora):
        report = GcnAccelerator(tiny_cora, ArchConfig(n_pes=16)).run()
        for layer in report.layers:
            assert layer.pipeline_speedup >= 1.0

    def test_bad_config_raises(self, tiny_cora):
        with pytest.raises(ConfigError):
            GcnAccelerator(tiny_cora, object())


class TestDesignPresets:
    def test_design_names(self):
        assert DESIGN_NAMES[0] == "baseline"
        assert len(DESIGN_NAMES) == 5

    def test_nell_hop_override(self):
        assert design_hops("nell") == (2, 3)
        assert design_hops("cora") == (1, 2)

    def test_design_config_fields(self):
        cfg = design_config("design_c", dataset_name="cora")
        assert cfg.hop == 1 and cfg.remote_switching
        cfg = design_config("design_d", dataset_name="nell")
        assert cfg.hop == 3 and cfg.remote_switching
        cfg = design_config("baseline", dataset_name="nell")
        assert cfg.hop == 0 and not cfg.remote_switching

    def test_unknown_design_raises(self):
        with pytest.raises(ConfigError):
            design_config("design_z")

    def test_suite_monotone_improvement(self, tiny_nell):
        reports = run_design_suite(
            tiny_nell, base=ArchConfig(n_pes=16)
        )
        cycles = [reports[d].total_cycles for d in DESIGN_NAMES]
        # Every rebalanced design beats the baseline.
        assert all(c <= cycles[0] for c in cycles[1:])
        # Utilization improves from baseline to the full design.
        assert (
            reports["design_d"].utilization
            > reports["baseline"].utilization
        )

    def test_suite_subset(self, tiny_cora):
        reports = run_design_suite(
            tiny_cora,
            base=ArchConfig(n_pes=8),
            designs=["baseline", "design_d"],
        )
        assert set(reports) == {"baseline", "design_d"}
