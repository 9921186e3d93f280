"""The command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigError


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

    def test_serve_bench(self, capsys, tmp_path):
        code = main([
            "serve-bench", "--requests", "8", "--graphs", "2",
            "--nodes", "384", "--pes", "16", "--workers", "2",
            "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving throughput" in out
        assert "cycle-identical" in out
        assert (tmp_path / "serve_bench.csv").exists()

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.requests == 96
        assert args.graphs == 4
        assert args.workers == 2
        assert args.arrival_rate is None
        assert args.slo_ms is None
        assert args.arrival is None

    def test_serve_bench_streaming_flags_need_arrival_rate(self, capsys):
        # --slo-ms etc. without --arrival-rate would silently fall
        # through to the offline throughput bench; reject instead.
        with pytest.raises(SystemExit):
            main(["serve-bench", "--slo-ms", "5"])
        assert "--arrival-rate" in capsys.readouterr().err

    def test_serve_bench_streaming_mode(self, capsys, tmp_path):
        code = main([
            "serve-bench", "--requests", "10", "--graphs", "2",
            "--nodes", "384", "--pes", "16", "--workers", "2",
            "--seed", "3", "--arrival-rate", "4000", "--slo-ms", "2",
            "--max-batch", "4", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving latency" in out
        assert "p50" in out and "p99" in out
        assert "SLO" in out
        assert "timeline-identical" in out
        assert (tmp_path / "serve_latency.csv").exists()

    def test_serve_bench_bursty_arrivals(self, capsys):
        code = main([
            "serve-bench", "--requests", "8", "--graphs", "2",
            "--nodes", "384", "--pes", "16", "--seed", "3",
            "--arrival-rate", "2000", "--arrival", "bursty",
        ])
        assert code == 0
        assert "bursty arrivals" in capsys.readouterr().out

    def test_serve_bench_rejects_unknown_arrival(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-bench", "--arrival", "psychic"]
            )

    def test_shard_bench_ceiling_and_straggler(self, capsys):
        code = main([
            "shard-bench", "--chips", "1,2", "--nodes", "512",
            "--weak-nodes-per-chip", "256", "--seed", "3",
            "--row-ceiling", "400", "--straggler", "1:1.5:2.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "row ceiling 400" in out
        assert "1 straggler(s)" in out

    def test_shard_bench_rejects_malformed_straggler(self, capsys):
        with pytest.raises(SystemExit):
            main(["shard-bench", "--straggler", "1:2"])
        assert "CHIP:ONSET:FACTOR" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["shard-bench", "--straggler", "a:b:c"])

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
