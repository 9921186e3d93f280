"""The analysis harness: report rendering, tables, figures, export."""


import pytest

from repro.analysis import (
    ascii_table,
    fig14_overall,
    fig14_per_spmm,
    fig14_resources,
    fig15_scalability,
    fig_nnz_distribution,
    format_quantity,
    rows_to_csv,
    table1_profile,
    table2_ordering,
    table3_crossplatform,
)
from repro.analysis.crossplatform import mean_speedups
from repro.datasets import load_dataset
from repro.errors import ConfigError


class TestReportRendering:
    def test_ascii_table_basic(self):
        text = ascii_table(["a", "b"], [[1, 2], [3, 4]])
        assert "| a " in text
        assert text.count("\n") >= 4

    def test_ascii_table_title(self):
        text = ascii_table(["x"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ConfigError):
            ascii_table(["a", "b"], [[1]])

    @pytest.mark.parametrize(
        "value,expected",
        [
            (1_330_000, "1.33M"),
            (257e9, "257G"),
            (62_300, "62.3K"),
            (999, "999"),
            (None, "-"),
            (2.5e12, "2.5T"),
        ],
    )
    def test_format_quantity(self, value, expected):
        assert format_quantity(value) == expected


class TestTables:
    def test_table1_rows(self):
        rows, text = table1_profile(preset="tiny", datasets=["cora"], seed=3)
        assert rows[0]["dataset"] == "cora"
        assert 0 < rows[0]["a_density"] < 1
        assert rows[0]["w_density"] == 1.0
        assert "Table 1" in text

    def test_table1_x2_measured_vs_forecast(self):
        # Materialized features: X2 is measured by the reference model,
        # not read off the spec forecast.
        measured, _ = table1_profile(preset="tiny", datasets=["cora"], seed=3)
        ds = load_dataset("cora", "tiny", seed=3)
        forecast = float(ds.x2_row_nnz.sum()) / (
            ds.n_nodes * ds.feature_dims[1]
        )
        assert ds.has_numeric_features
        assert measured[0]["x2_density"] != forecast

    def test_table2_a_xw_always_wins(self):
        rows, text = table2_ordering(
            preset="tiny", datasets=["cora", "nell"], seed=3
        )
        for row in rows:
            assert row["total_a_xw"] < row["total_ax_w"]
            assert row["ratio"] > 1
        assert "Table 2" in text

    def test_table3_platform_ordering(self):
        # The tiny preset has too few ops for the CPU/GPU overhead terms
        # to order correctly; scaled Cora is its full published size.
        rows, text = table3_crossplatform(
            preset="scaled", datasets=["cora"], seed=7, n_pes=64
        )
        latency = {r["platform"]: r["latency_ms"] for r in rows}
        # CPU slowest, the accelerator fastest.
        assert latency["cpu"] > latency["gpu"]
        assert latency["awb"] <= latency["baseline"]
        assert "Table 3" in text

    def test_table3_mean_speedups(self):
        rows, _ = table3_crossplatform(
            preset="tiny", datasets=["cora", "nell"], seed=3, n_pes=16
        )
        means = mean_speedups(rows)
        assert means["awb"] == pytest.approx(1.0)
        assert means["cpu"] > means["baseline"] >= 1.0


class TestFigures:
    def test_nnz_distribution_rows(self):
        rows, text = fig_nnz_distribution(
            preset="tiny", datasets=["nell"], seed=3, n_bins=6
        )
        assert sum(r["rows"] for r in rows) > 0
        assert "nell" in text

    def test_fig14_overall_shape(self):
        rows, text = fig14_overall(
            preset="tiny", datasets=["nell"], seed=3, n_pes=16
        )
        designs = [r["design"] for r in rows]
        assert designs[0] == "baseline"
        base = rows[0]
        best = rows[-1]
        assert best["total_cycles"] <= base["total_cycles"]
        assert best["utilization"] >= base["utilization"]
        assert "Fig. 14" in text

    def test_fig14_per_spmm_four_jobs(self):
        rows, _ = fig14_per_spmm(
            preset="tiny", datasets=["cora"], seed=3, n_pes=16,
            designs=["baseline"],
        )
        assert len(rows) == 4
        for row in rows:
            assert row["total_cycles"] == (
                row["ideal_cycles"] + row["sync_cycles"]
            )

    def test_fig14_resources_tq_shrinks(self):
        rows, _ = fig14_resources(
            preset="tiny", datasets=["nell"], seed=3, n_pes=16,
            designs=["baseline", "design_d"],
        )
        by_design = {r["design"]: r for r in rows}
        assert (
            by_design["design_d"]["tq_depth"]
            < by_design["baseline"]["tq_depth"]
        )

    def test_fig15_scalability_shape(self):
        rows, _ = fig15_scalability(
            preset="tiny", datasets=["nell"], seed=3, pe_counts=(8, 16)
        )
        base8 = next(
            r for r in rows
            if r["variant"] == "baseline" and r["n_pes"] == 8
        )
        both16 = next(
            r for r in rows
            if r["variant"] == "local+remote" and r["n_pes"] == 16
        )
        assert both16["utilization"] > base8["utilization"] * 0.8
        assert both16["relative_perf"] >= 1.0


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = rows_to_csv(rows, tmp_path / "out.csv")
        content = path.read_text().strip().splitlines()
        assert content[0] == "a,b"
        assert len(content) == 3

    def test_empty_rows_raise(self, tmp_path):
        with pytest.raises(ConfigError):
            rows_to_csv([], tmp_path / "out.csv")

    def test_nested_directories_created(self, tmp_path):
        path = rows_to_csv([{"a": 1}], tmp_path / "deep" / "dir" / "o.csv")
        assert path.exists()
