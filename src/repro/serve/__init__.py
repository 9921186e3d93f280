"""Streaming multi-graph inference serving on the AWB-GCN model.

The paper simulates one graph per run; production GNN serving answers a
*stream* of requests over many graphs and architectures, arriving over
time with latency SLOs. This package adds that layer:

* :mod:`repro.serve.request`   — request/result types with arrival
  times, deadlines and a per-request serving timeline;
* :mod:`repro.serve.scheduler` — FIFO admission queue and the
  event-driven :class:`StreamingScheduler` (config-affinity batching,
  deadline-aware batch cutting, EDF dispatch);
* :mod:`repro.serve.cache`     — the :class:`AutotuneCache`: converged
  Eq. 5 row maps keyed by (workload fingerprint, arch config), with an
  optional LRU size bound and ``.npz`` persistence, so repeat graphs
  skip the auto-tuner warm-up via the frozen fast path of
  :func:`~repro.accel.cyclemodel.simulate_spmm_frozen`;
* :mod:`repro.serve.demand`    — :class:`DemandHistogram`:
  exponentially-decayed per-graph-family demand counters on the
  simulated clock, the signal cache-affinity routing
  (``InferenceService(cache_mode="affinity")``) uses to replicate hot
  autotune entries across per-worker cache shards;
* :mod:`repro.serve.placement` — the service's placement policies,
  picked once from ``cache_mode``: cache-blind
  :class:`~repro.serve.placement.FirstFree` (``"shared"``,
  ``"partitioned"``) and :class:`~repro.serve.placement.CacheAffinity`
  (``"affinity"``: warm-aware batch routing, sharded gang re-landing
  and demand-driven hot-entry replication), called by the event loop
  at fixed points of every drain;
* :mod:`repro.serve.service`   — the :class:`InferenceService`: an
  event-driven simulated-clock loop over a pool of simulated
  accelerator instances, with latency percentile / SLO-attainment
  accounting (:class:`LatencyStats`), optional admission control
  (``shed_expired`` rejects requests whose deadline expired, reported
  via ``ServiceStats.shed_rate``), reconfiguration pricing
  (``reconfig_cycles`` charged when an instance switches configs
  between batches), sharded dispatch (``chip_capacity`` plans
  oversized graphs as :mod:`repro.cluster` multi-chip jobs
  gang-scheduled across the pool), and multi-tenant co-scheduling
  (``coschedule`` adds gang claims, priority classes, boundary
  preemption and shared-fabric pricing; off by default and
  bit-identical to the exclusive-gang service). Pass a
  :class:`~repro.obs.tracer.RecordingTracer` as ``tracer`` to record
  the span-level event stream of a drain (see :mod:`repro.obs`);
* :mod:`repro.serve.traffic`   — fixed-seed RMAT request mixes,
  Poisson/bursty arrival processes and the multi-tenant
  :func:`mixed_traffic` regime for the serving benchmarks
  (``repro serve-bench``, ``repro mixed-bench``,
  ``benchmarks/bench_serve_*.py``).

Quickstart::

    from repro.serve import InferenceService, streaming_traffic

    service = InferenceService(n_workers=2, cache=True, max_batch=8)
    service.submit_many(streaming_traffic(
        32, arrival_rate=200.0, slo_ms=5.0, n_graphs=4, seed=7,
    ))
    outcome = service.drain()
    print(outcome.latency.p99_ms, outcome.latency.slo_attainment)
"""

from repro.serve.bench import (
    compare_caching,
    compare_latency,
    default_serving_config,
)
from repro.serve.cache import AutotuneCache, CacheEntryInfo, CacheStats
from repro.serve.demand import DemandHistogram
from repro.serve.request import InferenceRequest, InferenceResult
from repro.serve.scheduler import (
    Batch,
    QueuedRequest,
    RequestQueue,
    StreamingScheduler,
)
from repro.serve.service import (
    InferenceService,
    LatencyStats,
    ServeOutcome,
    ServiceStats,
    percentile,
    serve_requests,
)
from repro.serve.traffic import (
    RmatGraphSpec,
    bursty_arrivals,
    clear_graph_cache,
    mixed_traffic,
    poisson_arrivals,
    streaming_traffic,
    synthetic_traffic,
)

__all__ = [
    "compare_caching",
    "compare_latency",
    "default_serving_config",
    "AutotuneCache",
    "CacheEntryInfo",
    "CacheStats",
    "DemandHistogram",
    "InferenceRequest",
    "InferenceResult",
    "Batch",
    "QueuedRequest",
    "RequestQueue",
    "StreamingScheduler",
    "InferenceService",
    "LatencyStats",
    "ServeOutcome",
    "ServiceStats",
    "percentile",
    "serve_requests",
    "RmatGraphSpec",
    "bursty_arrivals",
    "clear_graph_cache",
    "mixed_traffic",
    "poisson_arrivals",
    "streaming_traffic",
    "synthetic_traffic",
]
