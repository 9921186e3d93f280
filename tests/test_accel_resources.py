"""The CLB area model (Fig. 14 K-O)."""

import pytest

from repro.accel import ArchConfig, GcnAccelerator
from repro.accel.resources import (
    LOCAL_SHARING_OVERHEAD,
    REMOTE_SWITCHING_OVERHEAD,
    estimate_resources,
    report_tq_depth,
)
from repro.errors import ConfigError


class TestEstimate:
    def test_breakdown_sums(self):
        res = estimate_resources(ArchConfig(n_pes=64), tq_depth=100)
        assert res.total_clb == pytest.approx(
            res.pe_array_clb
            + res.network_clb
            + res.acc_clb
            + res.rebalance_clb
            + res.tq_clb
        )

    def test_baseline_has_no_rebalance_area(self):
        res = estimate_resources(
            ArchConfig(n_pes=64, hop=0, remote_switching=False), tq_depth=10
        )
        assert res.rebalance_clb == 0.0

    def test_published_overhead_fractions(self):
        base = estimate_resources(ArchConfig(n_pes=64, hop=0), tq_depth=0)
        one_hop = estimate_resources(ArchConfig(n_pes=64, hop=1), tq_depth=0)
        overhead = one_hop.rebalance_clb / base.other_clb
        assert overhead == pytest.approx(LOCAL_SHARING_OVERHEAD[1], rel=0.01)

    def test_remote_adds_published_fraction(self):
        local = estimate_resources(ArchConfig(n_pes=64, hop=1), tq_depth=0)
        both = estimate_resources(
            ArchConfig(n_pes=64, hop=1, remote_switching=True), tq_depth=0
        )
        delta = (both.rebalance_clb - local.rebalance_clb) / (
            local.pe_array_clb + local.network_clb + local.acc_clb
        )
        assert delta == pytest.approx(REMOTE_SWITCHING_OVERHEAD, rel=0.01)

    def test_hop_beyond_three_extrapolates(self):
        res3 = estimate_resources(ArchConfig(n_pes=64, hop=3), tq_depth=0)
        res4 = estimate_resources(ArchConfig(n_pes=64, hop=4), tq_depth=0)
        assert res4.rebalance_clb > res3.rebalance_clb

    def test_tq_area_scales_with_depth(self):
        small = estimate_resources(ArchConfig(n_pes=64), tq_depth=10)
        large = estimate_resources(ArchConfig(n_pes=64), tq_depth=10_000)
        assert large.tq_clb > 50 * small.tq_clb

    def test_negative_depth_raises(self):
        with pytest.raises(ConfigError):
            estimate_resources(ArchConfig(), tq_depth=-1)

    def test_tq_fraction(self):
        res = estimate_resources(ArchConfig(n_pes=64), tq_depth=100)
        assert 0 < res.tq_fraction < 1


class TestReportHelpers:
    def test_depth_and_slots_from_report(self, tiny_nell):
        report = GcnAccelerator(tiny_nell, ArchConfig(n_pes=16)).run()
        depth = report_tq_depth(report)
        slots = max(result.total_backlog for result in report.spmm_results)
        assert depth >= 0
        assert slots >= depth

    def test_rebalancing_shrinks_tq_depth(self, tiny_nell):
        base = GcnAccelerator(
            tiny_nell, ArchConfig(n_pes=16, hop=0)
        ).run()
        tuned = GcnAccelerator(
            tiny_nell,
            ArchConfig(n_pes=16, hop=2, remote_switching=True),
        ).run()
        assert report_tq_depth(tuned) < report_tq_depth(base)
