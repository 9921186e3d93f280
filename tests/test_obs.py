"""The unified tracing & metrics layer (:mod:`repro.obs`).

Three contracts pinned here:

* **Zero-overhead default** — an untraced run and a ``NULL_TRACER`` run
  are the same run; the recording tracer only ever *observes*.
* **Stream-as-truth** — ``ServiceStats`` / ``LatencyStats`` rebuilt
  from the recorded events alone are *equal* (bit-equal floats, not
  approximately) to the hand-folded originals.
* **Valid export** — the Chrome-trace document passes the schema
  validator, the span tree is well formed, and the canned ``mixed``
  scenario carries at least one backfill and one preemption span.
"""

import json
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import ArchConfig
from repro.analysis.tracescenarios import (
    TRACE_SCENARIOS,
    run_trace_scenario,
    trace_scenario,
    trace_summary,
)
from repro.errors import ConfigError
from repro.obs import (
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    check_span_tree,
    chrome_trace,
    config_label,
    latency_stats_view,
    load_chrome_trace,
    metrics_view,
    render_round_heat,
    round_timeline_rows,
    service_stats_view,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.serve.cache import AutotuneCache
from repro.serve.service import LatencyStats, serve_requests
from repro.serve.traffic import RmatGraphSpec, streaming_traffic
from trace_identity import stream_fingerprint

TINY = {"f1": 16, "f2": 8, "f3": 4}
CFG = ArchConfig(n_pes=32, hop=1, remote_switching=True)


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (0 < q <= 100), 0.0 for no
    values: always one of the observed values, never an interpolation.
    The oracle :meth:`LatencyStats.fold` is checked against."""
    if not 0.0 < q <= 100.0:
        raise ConfigError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def _streaming_requests(seed=7, n=12):
    return streaming_traffic(
        n, arrival_rate=500.0, slo_ms=10.0, family_size=3, n_nodes=256,
        seed=seed, configs=(CFG,), avg_degree=4, graph_kwargs=TINY,
    )


@lru_cache(maxsize=None)
def _scenario_run(name):
    """One traced scenario replay, memoized across the module."""
    return run_trace_scenario(name)


@lru_cache(maxsize=None)
def _streaming_run():
    tracer = RecordingTracer()
    outcome = serve_requests(
        _streaming_requests(), n_workers=2, cache=True, max_batch=3,
        tracer=tracer,
    )
    return outcome, tracer


class TestTracerCore:
    def test_null_tracer_is_disabled_noop(self):
        tracer = NullTracer()
        assert not tracer.enabled
        assert tracer.instant("x") is None
        assert tracer.span("x", lane="a", start=0, end=1) is None
        assert tracer.counter("x") is None
        assert tracer.splice(()) is None
        assert tracer.wall("x") is None
        assert NULL_TRACER.enabled is False

    def test_instant_uses_anchor_and_offset(self):
        tracer = RecordingTracer()
        tracer.set_time(2.0)
        event = tracer.instant("tick", lane="l", offset=0.5)
        assert event.ts == 2.5 and event.kind == "instant"
        explicit = tracer.instant("tick", ts=1.25)
        assert explicit.ts == 1.25
        assert [e.seq for e in tracer.events] == [0, 1]

    def test_span_rejects_negative_duration(self):
        tracer = RecordingTracer()
        with pytest.raises(ConfigError):
            tracer.span("bad", lane="l", start=2.0, end=1.0)

    def test_span_is_mutable_for_preemption_patching(self):
        tracer = RecordingTracer()
        span = tracer.span("s", lane="l", start=0.0, end=4.0)
        span.dur = 1.5
        assert tracer.events[0].end == 1.5

    def test_counter_values_land_in_args(self):
        tracer = RecordingTracer()
        event = tracer.counter("q", values={"depth": 3})
        assert event.kind == "counter" and event.args == {"depth": 3}

    def test_splice_reanchors_and_resequences(self):
        worker = RecordingTracer()
        worker.instant("a", ts=0.0)
        worker.instant("b", ts=0.25)
        parent = RecordingTracer()
        parent.instant("before", ts=1.0)
        parent.set_time(2.0)
        parent.splice(worker.events)
        names = [(e.name, e.ts, e.seq) for e in parent.events]
        assert names == [("before", 1.0, 0), ("a", 2.0, 1),
                         ("b", 2.25, 2)]

    def test_wall_events_stay_out_of_the_stream(self):
        tracer = RecordingTracer()
        tracer.wall("profile", seconds=0.1)
        assert tracer.events == [] and len(tracer.wall_events) == 1

    def test_config_label(self):
        assert config_label(CFG) == f"32pe@{CFG.frequency_mhz:g}MHz"

    def test_stream_fingerprint_detects_any_difference(self):
        a, b = RecordingTracer(), RecordingTracer()
        a.instant("x", ts=1.0)
        b.instant("x", ts=1.0)
        assert stream_fingerprint(a.events) == stream_fingerprint(b.events)
        b.events[0].args["extra"] = 1
        assert stream_fingerprint(a.events) != stream_fingerprint(b.events)


class TestMetrics:
    def test_histogram_buckets_are_deterministic(self):
        hist = Histogram((1.0, 5.0))
        for value in (0.5, 1.0, 2.0, 9.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]
        snap = hist.snapshot()
        assert snap["count"] == 4 and snap["le:inf"] == 1
        assert hist.mean == pytest.approx(3.125)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            Histogram(())
        with pytest.raises(ConfigError):
            Histogram((2.0, 1.0))

    def test_registry_counters_never_decrease(self):
        registry = MetricsRegistry()
        registry.inc("n", 2)
        with pytest.raises(ConfigError):
            registry.inc("n", -1)
        assert registry.counters["n"] == 2

    def test_registry_folds_events(self):
        registry = MetricsRegistry()
        tracer = RecordingTracer(metrics=registry)
        tracer.instant("batch.cut")
        tracer.counter("queue", values={"depth": 4})
        assert registry.counters["events.instant.batch.cut"] == 1
        assert registry.gauges["queue.depth"] == 4.0

    def test_metrics_view_folds_a_recorded_run(self):
        _, tracer = _streaming_run()
        registry = metrics_view(tracer.events)
        assert registry.counters["events.instant.request.complete"] == 12
        assert registry.histograms["latency_ms"].n == 12
        snap = registry.snapshot()
        assert snap == metrics_view(tracer.events).snapshot()


class TestViews:
    def test_streaming_views_bit_equal(self):
        outcome, tracer = _streaming_run()
        assert service_stats_view(
            tracer.events, wall_seconds=outcome.stats.wall_seconds
        ) == outcome.stats
        assert latency_stats_view(tracer.events) == outcome.latency

    def test_mixed_views_bit_equal(self):
        outcome, tracer = _scenario_run("mixed")
        assert service_stats_view(
            tracer.events, wall_seconds=outcome.stats.wall_seconds
        ) == outcome.stats
        assert latency_stats_view(tracer.events) == outcome.latency

    def test_shard_views_bit_equal(self):
        outcome, tracer = _scenario_run("shard")
        assert service_stats_view(
            tracer.events, wall_seconds=outcome.stats.wall_seconds
        ) == outcome.stats
        assert latency_stats_view(tracer.events) == outcome.latency


class TestPercentileAndStats:
    def test_p999_is_nearest_rank(self):
        values = list(range(1, 1001))
        # Nearest-rank: always an observed value, between p99 and max.
        p999 = percentile(values, 99.9)
        assert p999 in values
        assert percentile(values, 99) <= p999 <= max(values)
        assert percentile([5.0], 99.9) == 5.0

    @settings(max_examples=200, deadline=None)
    @given(latencies=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        max_size=300,
    ))
    def test_one_sort_fold_equals_percentile(self, latencies):
        # The fold sorts once and reads each percentile by nearest
        # rank; it must agree with percentile() on any list.
        stats = LatencyStats.fold(latencies, latencies, [])
        assert stats.n == len(latencies)
        for q, got in ((50, stats.p50_ms), (95, stats.p95_ms),
                       (99, stats.p99_ms), (99.9, stats.p999_ms)):
            assert got == percentile(latencies, q)
        assert stats.max_ms == (max(latencies) if latencies else 0.0)

    def test_p999_reported_and_ordered(self):
        outcome, _ = _streaming_run()
        latency = outcome.latency
        assert latency.p999_ms >= latency.p99_ms >= latency.p95_ms
        assert latency.p999_ms <= latency.max_ms

    def test_evictions_counted_per_drain(self):
        cache = AutotuneCache(max_entries=1)
        outcome = serve_requests(
            _streaming_requests(), n_workers=2, cache=cache, max_batch=3,
        )
        assert outcome.stats.n_evictions == cache.stats.evictions
        assert outcome.stats.n_evictions > 0

    def test_eviction_events_match_the_counter(self):
        cache = AutotuneCache(max_entries=1)
        tracer = RecordingTracer()
        outcome = serve_requests(
            _streaming_requests(), n_workers=2, cache=cache, max_batch=3,
            tracer=tracer,
        )
        view = service_stats_view(
            tracer.events, wall_seconds=outcome.stats.wall_seconds
        )
        assert view == outcome.stats
        assert view.n_evictions == outcome.stats.n_evictions


class TestSchedulerEvents:
    def test_batch_cuts_carry_reasons(self):
        _, tracer = _streaming_run()
        cuts = [e for e in tracer.events if e.name == "batch.cut"]
        assert cuts, "streaming run must cut batches"
        assert all(
            e.args["reason"] in {"size", "deadline", "flush"}
            for e in cuts
        )
        # max_batch=3 under bursty-enough arrivals forces size cuts.
        assert any(e.args["reason"] == "size" for e in cuts)
        assert all(e.args["size"] >= 1 for e in cuts)

    def test_queue_counters_sampled(self):
        _, tracer = _streaming_run()
        samples = [e for e in tracer.events if e.name == "service.queue"]
        assert samples
        assert all(
            set(e.args) == {"pending", "ready", "sharded", "active"}
            for e in samples
        )


class TestSpanTrees:
    def test_real_streams_are_well_formed(self):
        for name in TRACE_SCENARIOS:
            _, tracer = _scenario_run(name)
            assert check_span_tree(tracer.events) == [], name

    def test_unclosed_arrival_is_flagged(self):
        tracer = RecordingTracer()
        tracer.instant("request.arrival", ts=0.0, args={"seq": 0})
        assert check_span_tree(tracer.events)

    def test_overlapping_lane_spans_are_flagged(self):
        tracer = RecordingTracer()
        tracer.span("a", lane="worker0", start=0.0, end=2.0)
        tracer.span("b", lane="worker0", start=1.0, end=3.0)
        assert check_span_tree(tracer.events)

    def test_preemption_patches_the_request_tree(self):
        outcome, tracer = _scenario_run("mixed")
        preempts = [e for e in tracer.events if e.name == "preempt"]
        assert len(preempts) == 1
        seq = preempts[0].args["seq"]
        gap = [e for e in tracer.events if e.name == "request.preempted"]
        assert len(gap) == 1 and gap[0].lane == f"req/{seq}"
        resumes = [e for e in tracer.events
                   if e.name == "sharded.resume"]
        assert resumes
        done = {e.args["seq"]: e for e in tracer.events
                if e.name == "request.complete"}
        assert done[seq].args["preemptions"] == 1
        # The patched completion instant sits at the span-tree finish
        # (results come back in arrival-sequence order, nothing shed).
        result = outcome.results[seq]
        assert done[seq].ts == result.finish_time
        req_span = next(e for e in tracer.events
                        if e.name == "request"
                        and e.lane == f"req/{seq}")
        assert req_span.end == result.finish_time

    def test_backfill_span_present_in_mixed(self):
        _, tracer = _scenario_run("mixed")
        assert any(e.name == "backfill" for e in tracer.events)
        assert any(e.name == "sharded.backfill" for e in tracer.events)


class TestChromeExport:
    def test_mixed_document_is_valid(self):
        _, tracer = _scenario_run("mixed")
        doc = chrome_trace(tracer.events, wall_events=tracer.wall_events)
        assert validate_chrome_trace(doc) == []
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "C", "i"} <= phases

    def test_wall_events_export_nondeterministic_pid(self):
        _, tracer = _scenario_run("shard")
        doc = chrome_trace(tracer.events, wall_events=tracer.wall_events)
        names = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "wall (nondeterministic)" in names

    def test_roundtrip_and_validator_catches_corruption(self, tmp_path):
        _, tracer = _streaming_run()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer.events,
                           wall_events=tracer.wall_events)
        doc = load_chrome_trace(path)
        assert validate_chrome_trace(doc) == []
        doc["traceEvents"] = [
            {k: v for k, v in e.items() if k != "dur"}
            if e["ph"] == "X" else e
            for e in doc["traceEvents"]
        ]
        assert validate_chrome_trace(doc)

    def test_write_creates_parent_dirs(self, tmp_path):
        _, tracer = _streaming_run()
        path = tmp_path / "nested" / "dir" / "trace.json"
        write_chrome_trace(path, tracer.events)
        assert json.loads(path.read_text())["traceEvents"]

    def test_round_timeline_rows_cover_layers_and_chips(self):
        _, tracer = _scenario_run("shard")
        rows = round_timeline_rows(tracer.events)
        assert rows
        util = [r for r in rows if r["signal"] == "cluster.chip_util"]
        assert util
        assert {"lane", "index", "chip", "value", "ts_s"} <= set(util[0])

    def test_render_round_heat(self):
        _, tracer = _scenario_run("shard")
        heat = render_round_heat(tracer.events)
        assert "legend" in heat
        assert render_round_heat(_streaming_run()[1].events) == ""


class TestScenarios:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            trace_scenario("nope")

    def test_shard_scenario_rejects_a_seed(self):
        # Its three jobs are fixed: a seed could only pretend to vary
        # the traffic.
        for seed in (0, 3):
            with pytest.raises(ConfigError, match="'shard'"):
                trace_scenario("shard", seed=seed)
        requests, _kwargs = trace_scenario("shard")
        assert [r.request_id for r in requests] == ["A", "B", "C"]

    def test_mixed_scenario_fires_the_machinery(self):
        outcome, _ = _scenario_run("mixed")
        assert outcome.stats.n_backfilled >= 1
        assert outcome.stats.n_preemptions >= 1
        assert outcome.stats.n_sharded >= 2

    def test_summary_mentions_the_counters(self):
        outcome, tracer = _scenario_run("mixed")
        text = trace_summary("mixed", outcome, tracer)
        assert "backfilled=1" in text and "preemptions=1" in text
        assert "legend" in text  # heat strips present

    def test_tracing_is_observation_only(self):
        baseline = serve_requests(
            _streaming_requests(), n_workers=2, cache=True, max_batch=3,
        )
        traced, _ = _streaming_run()
        assert [r.total_cycles for r in traced.results] == [
            r.total_cycles for r in baseline.results
        ]
        assert [r.finish_time for r in traced.results] == [
            r.finish_time for r in baseline.results
        ]
