"""Stats dataclasses as views over the recorded event stream.

The tentpole claim of the observability layer: the aggregates the
service hand-folds (:class:`~repro.serve.service.ServiceStats`,
:class:`~repro.serve.service.LatencyStats`) are derivable from the
typed event stream alone. These folds rebuild both dataclasses from a
:class:`~repro.obs.tracer.RecordingTracer`'s events, and the test suite
pins them equal to the originals — so the stream is the single source
of truth, with the legacy counters as one (verified) view of it.

``wall_seconds`` is the one field that cannot come from simulated-clock
events (it is wall time by definition); the view takes it as an
argument.
"""

from __future__ import annotations


def _completions(events):
    """The ``request.complete`` events in request-sequence order.

    The service sorts its results by arrival sequence before folding,
    and float sums depend on order — folding in the same order keeps
    the views bit-equal to the hand-folded stats, not just close.
    """
    done = [e for e in events if e.name == "request.complete"]
    done.sort(key=lambda e: e.args.get("seq", 0))
    return done


def service_stats_view(events, *, wall_seconds=0.0):
    """Rebuild :class:`~repro.serve.service.ServiceStats` from events."""
    from repro.serve.service import ServiceStats

    done = _completions(events)
    shed = [e for e in events if e.name == "request.shed"]
    # One "batch" span per dispatched batch; sharded jobs emit one
    # member span per gang instance, so count distinct jobs (each
    # sharded job is one batch in the service's accounting).
    sharded_seqs = {
        e.args.get("seq") for e in events
        if e.kind == "span" and e.name.startswith("sharded")
        and not e.name.endswith(".resume")
    }
    batches = sum(
        1 for e in events if e.kind == "span" and e.name == "batch"
    ) + len(sharded_seqs)
    hits = sum(1 for e in done if e.args.get("cache_hit"))
    utils = [e.args["utilization"] for e in done]
    routes = [e for e in events if e.name == "cache.route"]
    return ServiceStats(
        n_requests=len(done) + len(shed),
        n_batches=batches,
        cache_hits=hits,
        cache_misses=len(done) - hits,
        wall_seconds=wall_seconds,
        total_cycles=sum(e.args["cycles"] for e in done),
        mean_utilization=sum(utils) / len(utils) if utils else 0.0,
        makespan_seconds=max((e.args["finish"] for e in done),
                             default=0.0),
        n_shed=len(shed),
        n_sharded=sum(1 for e in done if e.args.get("n_shards", 1) > 1),
        n_backfilled=sum(1 for e in events if e.name == "backfill"),
        n_preemptions=sum(1 for e in events if e.name == "preempt"),
        n_evictions=sum(1 for e in events if e.name == "cache.evict"),
        n_routed=len(routes),
        n_placement_hits=sum(1 for e in routes if e.args.get("warm")),
        n_replications=sum(
            1 for e in events if e.name == "cache.replicate"
        ),
    )


def latency_stats_view(events):
    """Rebuild :class:`~repro.serve.service.LatencyStats` from events."""
    from repro.serve.service import LatencyStats

    done = _completions(events)
    return LatencyStats.fold(
        [e.args["e2e_ms"] for e in done],
        [e.args["queue_ms"] for e in done],
        [e.args.get("slo_met") for e in done
         if e.args.get("slo_ms") is not None],
    )


def metrics_view(events):
    """Fold a recorded stream into a fresh
    :class:`~repro.obs.metrics.MetricsRegistry` (counters per event
    name, gauges from counter samples, a latency histogram from the
    completions)."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for event in events:
        registry.record_event(event)
    for event in _completions(events):
        registry.observe("latency_ms", event.args["e2e_ms"])
        registry.observe("queue_ms", event.args["queue_ms"])
    return registry
