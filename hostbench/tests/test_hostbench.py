"""Smoke tests of the host-throughput benchmark at tiny sizes.

Run with ``python -m pytest hostbench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from hostbench import run as hostbench  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    """Traces of 40 requests instead of the full workload size."""
    hostbench._import_program()
    monkeypatch.setattr("hostbench.workloads.N_REQUESTS", 40)


def _run(capsys, tmp_path, workload, trace):
    code = hostbench.main([
        "--workload", workload, "--seed", "5", "--seconds", "0",
        "--trace", str(trace), "--out", str(tmp_path),
    ])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_contract_metric(tiny, capsys, tmp_path,
                                                workload, trace):
    result = _run(capsys, tmp_path, workload, trace)
    section = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in section
    }
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    if trace:
        metrics = {name: metric["value"]
                   for name, metric in result["metrics"].items()}
        assert (metrics["cluster.multichip.calls"] > 0) == (
            workload == "mixed_sharded"
        )
        if workload == "warm_repeat":
            assert metrics["accel.cyclemodel.tune_calls"] == 0
            assert metrics["accel.cyclemodel.frozen_calls"] > 0
        spans = json.loads(
            (tmp_path / f"{workload}-seed5.trace.json").read_text()
        )["traceEvents"]
        assert spans and all(span["dur"] >= 0 for span in spans)


def test_one_cycle_perturbation_fails_the_output_check(
        tiny, capsys, tmp_path, monkeypatch):
    from repro.accel.gcnaccel import GcnAccelerator

    replay = GcnAccelerator._run_cached

    def off_by_one(self, entry):
        report = replay(self, entry)
        return dataclasses.replace(report,
                                   total_cycles=report.total_cycles + 1)

    monkeypatch.setattr(GcnAccelerator, "_run_cached", off_by_one)
    result = _run(capsys, tmp_path, "warm_repeat", 0)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_layer_clock_checks_self_times_against_the_drain(tiny):
    from hostbench.layers import LayerClock
    from hostbench.workloads import WORKLOADS
    from repro.serve.bench import default_serving_config
    from repro.serve.cache import AutotuneCache

    workload = WORKLOADS["warm_repeat"]
    requests = workload.traces(5)[0]
    service = workload.service()
    with LayerClock() as clock:
        wall, _ids, _outcome = hostbench.drain_once(service, requests)
    assert clock.problems(wall) == []
    assert any("sum to" in problem for problem in clock.problems(wall + 0.1))

    with LayerClock() as clock:
        wall, _ids, _outcome = hostbench.drain_once(service, requests)
        AutotuneCache().peek("outside", default_serving_config(32))
    assert any("outside one drain" in problem
               for problem in clock.problems(wall))
