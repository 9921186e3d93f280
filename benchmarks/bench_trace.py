"""Trace-export smoke: ``repro trace`` on the mixed co-scheduled load.

Claims checked on the canned ``mixed`` scenario (the sharded trio that
forces an EASY backfill, ahead of a co-scheduled Poisson stream of
critical smalls, SLO'd batches and oversized sharded jobs):

(a) the exported document is valid Chrome-trace / Perfetto JSON (the
    schema validator returns no problems) and loads back intact;
(b) the stream carries the multi-tenant machinery: at least one
    backfill span, at least one preemption (with its ``request.resume``
    patch), per-layer ``cluster.chip_util`` counter events and a
    non-empty round-timeline CSV;
(c) the span tree is well formed, and the stats views rebuilt from
    the stream alone equal the service's hand-folded aggregates.

``REPRO_TRACE_SMOKE=1`` (the CI configuration) is accepted for
symmetry with the other smoke jobs; the scenario is already
seconds-long, so smoke and full runs are the same configuration.
"""

from conftest import RESULTS_DIR, run_once, save_artifact

from repro.analysis import run_trace_scenario, trace_summary
from repro.obs import (
    check_span_tree,
    latency_stats_view,
    load_chrome_trace,
    round_timeline_rows,
    service_stats_view,
    validate_chrome_trace,
    write_chrome_trace,
)


def test_bench_trace(benchmark):
    outcome, tracer = run_once(
        benchmark, run_trace_scenario, name="mixed"
    )

    # (a) Valid, loadable Chrome-trace JSON.
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = write_chrome_trace(
        RESULTS_DIR / "trace_mixed.json", tracer.events,
        wall_events=tracer.wall_events,
    )
    doc = load_chrome_trace(path)
    assert validate_chrome_trace(doc) == [], path
    assert any(e["ph"] == "X" for e in doc["traceEvents"])

    # (b) The multi-tenant machinery is all present in the stream.
    names = {e.name for e in tracer.events}
    assert "backfill" in names and "preempt" in names, sorted(names)
    assert "request.resume" in names and "gang.claim" in names
    assert "cluster.chip_util" in names
    timeline = round_timeline_rows(tracer.events)
    assert timeline
    save_artifact(
        "trace_mixed_rounds", timeline,
        trace_summary("mixed", outcome, tracer),
    )

    # (c) Well-formed spans and stream-derived views.
    assert check_span_tree(tracer.events) == []
    assert service_stats_view(
        tracer.events, wall_seconds=outcome.stats.wall_seconds
    ) == outcome.stats
    assert latency_stats_view(tracer.events) == outcome.latency
