"""Unified tracing & metrics for the serving / cluster / accel stack.

One cross-cutting observability layer over all four execution layers:

* :mod:`repro.obs.tracer`       — the :class:`Tracer` protocol:
  zero-overhead :class:`NullTracer` default (golden pins untouched)
  and :class:`RecordingTracer`, which collects typed
  :class:`TraceEvent` records (spans / instants / counters) on the
  *simulated* clock — per-request span trees from the service and
  scheduler, per-round per-chip events from the multi-chip rebalancer,
  per-round Eq. 5 autotuner events from the cycle model, and cache
  hit/miss/evict events;
* :mod:`repro.obs.metrics`      — :class:`MetricsRegistry`: counters,
  gauges and deterministic fixed-bucket histograms, fed by the same
  stream;
* :mod:`repro.obs.trace_export` — Chrome-trace / Perfetto JSON export
  (worker lanes as pid/tids, spans as ``X`` events, counters as ``C``
  events), the per-round chip-utilization CSV rows, schema validation
  for CI, and span-tree well-formedness checks;
* :mod:`repro.obs.views`        — ``ServiceStats`` / ``LatencyStats``
  rebuilt purely from the event stream (pinned equal to the
  hand-folded originals by the test suite).

Determinism contract: every event timestamp is simulated time, and the
stream a ``RecordingTracer`` collects is bit-identical from run to run.
Wall-clock profiling spans live in a separate, explicitly
nondeterministic lane.

Quickstart::

    from repro.obs import RecordingTracer, write_chrome_trace
    from repro.serve import serve_requests, streaming_traffic

    tracer = RecordingTracer()
    serve_requests(streaming_traffic(32, arrival_rate=200.0, seed=7),
                   tracer=tracer)
    write_chrome_trace("trace.json", tracer.events,
                       wall_events=tracer.wall_events)
"""

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    config_label,
)
from repro.obs.trace_export import (
    check_span_tree,
    chrome_trace,
    load_chrome_trace,
    render_round_heat,
    round_timeline_rows,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.views import (
    latency_stats_view,
    metrics_view,
    service_stats_view,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "RecordingTracer",
    "TraceEvent",
    "config_label",
    "check_span_tree",
    "chrome_trace",
    "load_chrome_trace",
    "render_round_heat",
    "round_timeline_rows",
    "validate_chrome_trace",
    "write_chrome_trace",
    "latency_stats_view",
    "metrics_view",
    "service_stats_view",
]
