"""``tools/bench_ab.py``: its statistics and report schema, on canned runs.

No benchmark runs here: every run record is a canned copy of the last
JSON line ``hostbench/run.py`` prints.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    path = REPO_ROOT / "tools" / "bench_ab.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_ab = _load_tool()
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
UNITS = {spec["name"]: spec["unit"] for spec in BENCHMARK["end_to_end"]}


def _record(setup_s, *, req_per_s=50_000.0, p50=0.8, correct=True):
    values = {
        "req_per_s": req_per_s, "setup_s": setup_s, "peak_rss_mb": 120.0,
        "sim_p50_ms": p50, "sim_p99_ms": 2.5, "slo_attainment": 1.0,
    }
    return {
        "correct": correct, "attempted": 2000, "failed": 0 if correct else 3,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }


def _stdout(record, yardstick):
    return "\n".join([
        "host: nproc=2 python=3.11.7 seed=1",
        f"host speed: yardstick median {yardstick} s, reference 0.02 s; "
        "timings below are scaled to the reference",
        "setup_s 0.2 s",
        json.dumps(record),
    ]) + "\n"


class TestProtocol:
    def test_seeds_and_alternation(self):
        plan = bench_ab.pair_plan(12)
        assert [seed for seed, _ in plan] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 31,
                                              1, 2]
        assert [first for _, first in plan] == [True, False] * 6

    def test_parse_run_reads_last_line_and_yardstick(self):
        record = _record(0.2)
        parsed, yardstick = bench_ab.parse_run(_stdout(record, 0.0213))
        assert parsed == record
        assert yardstick == 0.0213

    def test_parse_run_refuses_empty_output(self):
        with pytest.raises(ValueError):
            bench_ab.parse_run("\n")


class TestPairChecks:
    def test_equal_modeled_metrics_pass(self):
        assert bench_ab.pair_failures(_record(0.2), _record(0.15)) == []

    def test_incorrect_run_fails(self):
        found = bench_ab.pair_failures(_record(0.2), _record(0.15,
                                                             correct=False))
        assert found == ["change run not correct (3 of 2000 requests "
                         "failed)"]

    def test_moved_modeled_metric_fails(self):
        found = bench_ab.pair_failures(_record(0.2), _record(0.2, p50=0.81))
        assert found == ["sim_p50_ms differs: base 0.8, change 0.81"]


class TestMetricSummary:
    BASE = [0.20, 0.21, 0.19, 0.22, 0.20, 0.21, 0.20, 0.23, 0.19, 0.20]

    def test_statistics_of_a_lower_is_better_gain(self):
        change = [0.15, 0.16, 0.15, 0.15, 0.14, 0.15, 0.16, 0.17, 0.14, 0.21]
        summary = bench_ab.metric_summary(self.BASE, change,
                                          better="lower", bound=0.25)
        assert summary["base_median"] == pytest.approx(0.20)
        assert summary["change_median"] == pytest.approx(0.15)
        # Inclusive quartiles of the base: 0.20 and 0.21.
        assert summary["base_iqr"] == pytest.approx(0.01)
        assert (summary["wins"], summary["losses"]) == (9, 1)
        assert summary["ratio"] == pytest.approx(0.75)
        assert summary["ship"] == "gain"
        assert summary["within_bound"] is True

    def test_ties_count_for_neither_side(self):
        summary = bench_ab.metric_summary([1.0, 2.0], [1.0, 2.0],
                                          better="higher", bound=0.02)
        assert (summary["wins"], summary["losses"]) == (0, 0)
        assert summary["ship"] == "none" and summary["within_bound"]

    def test_eight_wins_in_ten_is_no_gain(self):
        change = [value - 0.05 for value in self.BASE]
        change[0] = change[1] = 0.30
        summary = bench_ab.metric_summary(self.BASE, change,
                                          better="lower", bound=0.25)
        assert summary["wins"] == 8 and summary["ship"] == "none"

    def test_a_gain_inside_the_base_spread_is_no_gain(self):
        change = [value - 0.001 for value in self.BASE]
        summary = bench_ab.metric_summary(self.BASE, change,
                                          better="lower", bound=0.25)
        assert summary["wins"] == 10 and summary["ship"] == "none"

    def test_a_worsening_past_the_bound_is_a_regression(self):
        base = [100.0] * 10
        change = [70.0] * 10
        summary = bench_ab.metric_summary(base, change, better="higher",
                                          bound=0.25)
        assert summary["ship"] == "loss"
        assert summary["within_bound"] is False
        inside = bench_ab.metric_summary(base, [80.0] * 10, better="higher",
                                         bound=0.25)
        assert inside["ship"] == "loss" and inside["within_bound"] is True

    def test_one_pair_has_no_spread(self):
        summary = bench_ab.metric_summary([0.2], [0.1], better="lower",
                                          bound=0.25)
        assert summary["base_iqr"] == 0.0 and summary["ship"] == "gain"


class TestReport:
    def _runs(self, change_setup, **change):
        return {"affinity_churn": [
            (seed, _record(0.20 + 0.001 * k),
             _record(change_setup, **change))
            for k, (seed, _first) in enumerate(bench_ab.pair_plan(10))
        ]}

    def test_schema(self):
        facts = {"nproc": 2, "python": "3.11.7", "numpy": "2.0.0",
                 "base_rev": "a" * 40, "change_rev": "b" * 40,
                 "yardstick_s": [0.02, 0.03]}
        report = bench_ab.build_report("37", facts, self._runs(0.15),
                                       BENCHMARK)
        assert set(report) == {"schema", "label", "host", "pairs",
                               "workloads", "failures", "verdict"}
        assert report["schema"] == 1 and report["pairs"] == 10
        assert report["host"] == facts
        workload = report["workloads"]["affinity_churn"]
        assert workload["seeds"] == list(bench_ab.SEEDS)
        assert set(workload["metrics"]) == set(UNITS)
        setup = workload["metrics"]["setup_s"]
        assert set(setup) == {
            "unit", "better", "base", "change", "base_median",
            "change_median", "base_iqr", "wins", "losses", "ratio", "ship",
            "bound", "within_bound",
        }
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["ship"] == "gain" and setup["wins"] == 10
        assert report["failures"] == []
        assert report["verdict"] == {
            "ship_rule_gains": ["affinity_churn.setup_s"],
            "bound_regressions": [],
        }
        json.dumps(report)  # serializable as written

    def test_failures_and_regressions_are_reported(self):
        report = bench_ab.build_report(
            "x", {}, self._runs(0.30, req_per_s=30_000.0, p50=1.0),
            BENCHMARK,
        )
        assert len(report["failures"]) == 10
        assert report["failures"][0].startswith("affinity_churn seed 1: ")
        assert report["verdict"]["bound_regressions"] == [
            "affinity_churn.req_per_s", "affinity_churn.setup_s",
            "affinity_churn.sim_p50_ms",
        ]
