"""The event-driven streaming inference service.

Ties the serving pieces together: requests enter a
:class:`~repro.serve.scheduler.RequestQueue` carrying simulated-clock
arrival times and optional latency SLOs; an event loop advances the
clock from arrival to arrival, the
:class:`~repro.serve.scheduler.StreamingScheduler` seals config-affine
batches when they fill or when a deadline demands it, and a pool of
simulated accelerator instances picks sealed batches up
earliest-deadline-first as each instance frees (a
:mod:`repro.serve.placement` policy picks which instance), each
simulating against the :class:`~repro.serve.AutotuneCache` it holds:
one shared cache, or its own shard. Per-request outcomes come back as
:class:`~repro.serve.request.InferenceResult` with a full serving
timeline (queueing delay, service start/finish, end-to-end latency,
SLO verdict); :class:`ServiceStats` aggregates throughput and hit rate
and :class:`LatencyStats` the latency percentiles and SLO attainment.

Two clocks run side by side and must never mix: the *simulated* clock
(seconds of modeled hardware time, derived from cycle counts via
:meth:`~repro.accel.ArchConfig.cycles_to_seconds`) drives every
scheduling decision, while the *wall* clock only measures how long the
simulation itself took — the serving-cost metric the autotune cache
exists to shrink. Because control flow depends only on the simulated
clock, a run is bit-deterministic under a fixed seed, and enabling the
cache changes wall time but not one cycle count, timestamp or verdict.

The offline batch regime of the original submit-then-drain service is
the degenerate case: when every request arrives at t=0 with no SLO, the
loop admits everything at once, flushes, and dispatches batches oldest
first — reproducing the old planner's order exactly.

The pool is a *model* of a multi-accelerator deployment: every instance
runs in this one process (this is a simulator, not a thread pool), but
admission, batch placement, per-instance accounting and cache sharing
behave as the deployed system would.

Multi-tenant co-scheduling (PR 8, ``coschedule=True``) unifies the
batch and sharded paths into one pool: a waiting gang *claims* its
planned members (claimed instances finish their current batch and take
no new one, so the gang assembles at a bounded instant instead of
racing batch traffic for simultaneous idleness), requests carry
priority classes derived from SLO slack (``critical_slo_ms``), a
deadline-critical batch may *preempt* a lower-priority sharded job at a
layer boundary (the remainder resumes on the same gang, cycle totals
conserved), and concurrent sharded jobs price their halo traffic on one
shared pool fabric (per-link background loads summing across jobs).
All of it defaults off — the default service is bit-identical to
before. Independent of the flag, the sharded queue uses EASY-style
backfill: when the head job cannot possibly assemble yet, a later
sharded job may run on idle instances iff it cannot delay the head's
planned assembly (screened against its exact modeled duration).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.accel.gcnaccel import GcnAccelerator
from repro.cluster.multichip import (
    ClusterConfig,
    ShardedAccelerator,
    simulate_multichip_gcn,
)
# Unused here since planning and halo sets moved into ShardedAccelerator;
# hostbench/layers.py still patches both names on this module.
from repro.cluster.partition import halo_exchange, make_plan  # noqa: F401
from repro.cluster.topology import Topology, make_topology, subtopology
from repro.datasets.registry import dataset_fingerprint
from repro.errors import CeilingError, ConfigError
from repro.obs.tracer import NULL_TRACER, config_label
from repro.serve.cache import AutotuneCache, OverlayCache
from repro.serve.placement import CacheAffinity, FirstFree
from repro.serve.request import InferenceResult
from repro.serve.scheduler import (
    RequestQueue,
    StreamingScheduler,
    _check_max_batch,
    _check_max_wait,
)
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_finite,
    check_positive_int,
)


@dataclass
class WorkerState:
    """Accounting for one simulated accelerator instance."""

    index: int
    requests_served: int = 0
    batches_served: int = 0
    busy_seconds: float = 0.0
    """Wall-clock seconds this instance's simulations took."""
    free_at: float = 0.0
    """Simulated second the instance finishes its current batch."""
    modeled_busy_seconds: float = 0.0
    """Simulated seconds the instance was occupied: from the moment it
    is claimed for a batch (including any reconfiguration penalty) to
    the batch's finish. Gang members of a sharded job each accrue the
    full sharded duration."""
    last_key: object = None
    """The (config, a_hops) pair the instance is currently configured
    for (None until its first batch)."""
    reconfigs: int = 0
    """How many times the instance switched configurations between
    batches (each charged ``reconfig_cycles`` when that is non-zero)."""
    cache: object = None
    """The :class:`AutotuneCache` this instance simulates against: its
    own shard under ``cache_mode`` ``"partitioned"``/``"affinity"``,
    the one cache every instance shares under ``"shared"`` (None when
    the service runs without a cache)."""

    def start_after(self, config, a_hops, start, penalty_cycles):
        """When ``(config, a_hops)`` work reaching this instance at
        ``start`` begins: ``penalty_cycles`` later if it must switch
        configurations first. The one reconfiguration price, shared by
        dispatch, the backfill screen and affinity routing."""
        if (self.last_key is not None and self.last_key != (config, a_hops)
                and penalty_cycles):
            return start + config.cycles_to_seconds(penalty_cycles)
        return start


@dataclass
class _ActiveJob:
    """One running (or boundary-preempted) sharded job's live state."""

    seq: int
    gang: list
    """The member :class:`WorkerState` objects, in gang order."""
    priority: int
    start: float
    finish: float
    """Projected finish on the simulated clock (updated on resume)."""
    boundaries: list
    """Absolute simulated seconds of the remaining layer boundaries —
    the only instants the job may be preempted at."""
    flows: object = None
    """Per-link halo words (pool link id space) this job keeps on the
    shared fabric per round, or None for single-chip/clamped gangs."""
    constrained: bool = True
    preempted: bool = False
    remaining: float = 0.0
    """Modeled seconds of work left past the preemption boundary."""
    rel_boundaries: tuple = ()
    """Remaining boundary offsets relative to the preemption boundary,
    re-anchored at resume."""
    grant: int = None
    """Worker index the preempting batch may use (the rest of the gang
    is claimed for the resume)."""
    grant_used: bool = False
    resumes: int = 0
    spans: list = None
    """Mutable member worker-lane span events (tracing only) — trimmed
    at a preemption boundary, replaced by resume spans."""
    req_span: object = None
    svc_span: object = None
    complete_ev: object = None
    preempt_at: float = None


def _with_background(cluster, background):
    """``cluster`` priced against other jobs' per-link fabric loads
    (None leaves it as is)."""
    if background is None:
        return cluster
    return replace(cluster, background_link_loads=background)


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (0 < q <= 100).

    Deterministic and library-independent so golden latency numbers pin
    exactly: the result is always one of the observed values, never an
    interpolation.
    """
    if not 0.0 < q <= 100.0:
        raise ConfigError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


@dataclass(frozen=True)
class LatencyStats:
    """Latency percentiles and SLO attainment of one serving run.

    All latency figures are end-to-end (arrival to finish, queueing
    plus modeled service) in milliseconds of simulated time.
    """

    n: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    mean_queue_ms: float
    """Mean queueing delay (arrival to service start)."""
    slo_requests: int
    """How many requests carried an SLO."""
    slo_met: int
    """How many SLO-carrying requests finished within it."""
    p999_ms: float = 0.0
    """99.9th-percentile end-to-end latency (nearest rank, so on small
    runs it coincides with the max)."""

    @property
    def slo_attainment(self):
        """Fraction of SLO-carrying requests that met their SLO
        (None when no request carried one)."""
        if self.slo_requests == 0:
            return None
        return self.slo_met / self.slo_requests

    @classmethod
    def from_results(cls, results):
        """Fold per-request results into latency statistics.

        Shed requests are excluded — they were never served, so they
        have no latency; the shed rate lives in
        :attr:`ServiceStats.shed_rate`.
        """
        results = [r for r in results if not r.shed]
        latencies = [r.e2e_ms for r in results]
        queues = [r.queue_ms for r in results]
        with_slo = [r for r in results if r.slo_ms is not None]
        return cls(
            n=len(results),
            p50_ms=percentile(latencies, 50),
            p95_ms=percentile(latencies, 95),
            p99_ms=percentile(latencies, 99),
            mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
            max_ms=max(latencies) if latencies else 0.0,
            mean_queue_ms=sum(queues) / len(queues) if queues else 0.0,
            slo_requests=len(with_slo),
            slo_met=sum(1 for r in with_slo if r.slo_met),
            p999_ms=percentile(latencies, 99.9),
        )


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate outcome of one :meth:`InferenceService.drain`."""

    n_requests: int
    n_batches: int
    cache_hits: int
    cache_misses: int
    wall_seconds: float
    total_cycles: int
    mean_utilization: float
    makespan_seconds: float = 0.0
    """Simulated seconds from clock zero to the last request's finish."""
    n_shed: int = 0
    """Requests rejected by admission control (``shed_expired``);
    counted inside ``n_requests``."""
    n_sharded: int = 0
    """Requests served as multi-chip sharded jobs (``chip_capacity``)."""
    n_backfilled: int = 0
    """Sharded jobs dispatched by the EASY backfill screen while the
    queue head was still assembling its gang."""
    n_preemptions: int = 0
    """Boundary preemptions of sharded jobs by deadline-critical
    requests (``coschedule`` only)."""
    n_evictions: int = 0
    """Autotune-cache entries the LRU bound evicted during this drain
    (0 without a bounded cache)."""
    n_routed: int = 0
    """Placement decisions the cache-affinity router made
    (``cache_mode="affinity"`` only; batch dispatches plus sharded gang
    placements)."""
    n_placement_hits: int = 0
    """Routed placements that landed on an instance already warm for
    the work (non-zero warm-entry coverage, or a sharded job re-landing
    on its remembered gang)."""
    n_replications: int = 0
    """Hot-entry replication pushes: one per (family, target instance)
    pair of a replication pass that stored at least one replica."""

    @property
    def placement_hit_rate(self):
        """Fraction of routed placements that were warm (None when the
        affinity router never ran — shared/partitioned modes)."""
        if self.n_routed == 0:
            return None
        return self.n_placement_hits / self.n_routed

    @property
    def shed_rate(self):
        """Fraction of admitted requests shed instead of served."""
        return self.n_shed / self.n_requests if self.n_requests else 0.0

    @property
    def hit_rate(self):
        """Fraction of requests answered from the autotune cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def requests_per_second(self):
        """Simulation throughput of the drain (wall clock)."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.n_requests / self.wall_seconds

    @property
    def modeled_requests_per_second(self):
        """Modeled serving throughput on the simulated clock."""
        if self.makespan_seconds <= 0:
            return float("inf")
        return self.n_requests / self.makespan_seconds


@dataclass(frozen=True)
class ServeOutcome:
    """Everything one drain produced: ordered results plus stats."""

    results: tuple
    stats: ServiceStats
    workers: tuple
    latency: LatencyStats = None


class InferenceService:
    """Accepts a stream of requests and serves them event-driven.

    Parameters
    ----------
    n_workers:
        Size of the simulated accelerator pool; each sealed batch goes
        to the lowest-indexed instance free when it is dispatched
        (unless ``cache_mode="affinity"`` routes it to a warm one).
    cache:
        An :class:`AutotuneCache` shared by all instances, ``True`` for
        a fresh one, or None to disable caching (every request runs the
        full auto-tuner — the ablation mode of the serving benchmark).
    max_batch:
        Optional cap on batch size; a config group is sealed as soon as
        it accumulates this many requests.
    max_wait:
        Optional bound (simulated seconds) on how long a sealed-pending
        request may wait for its batch to fill — the batch timeout that
        keeps SLO-less streaming traffic from queueing indefinitely.
        None disables it (batches then cut on size, deadline slack or
        end of stream only).
    shed_expired:
        Admission control: shed (reject, with a recorded outcome)
        requests whose deadline has already expired at batch-cut time —
        or by the time their sealed batch reaches an instance, the
        point where queueing under load actually expires deadlines —
        instead of serving them hopelessly late. Shed requests come
        back with ``InferenceResult.shed`` True and zeroed cycle
        fields; the shed rate is reported in
        :attr:`ServiceStats.shed_rate`. Default False keeps the
        historical serve-late behavior bit-for-bit.
    reconfig_cycles:
        Cycle penalty charged when an instance switches its
        ``(config, a_hops)`` between consecutive batches (converted to
        simulated seconds at the incoming config's clock and added
        before service starts). Default 0 models free switching — the
        historical behavior, which flatters small batches.
    chip_capacity:
        Per-instance node-count capacity: one int for a uniform pool,
        or a sequence of ``n_workers`` ints for a heterogeneous one. A
        request whose graph exceeds the pool's largest capacity is
        planned as a *sharded job*: it gang-schedules the smallest
        index-ordered set of free instances whose capacities cover the
        graph (``ceil(n_nodes / chip_capacity)`` instances in the
        uniform case, clamped to the pool size; instances whose
        *expected* capacity-proportional share would overflow are left
        out of the gang, and the *actual* constrained plan is validated
        before dispatch — a gang whose real nnz-balanced shards would
        overfill a member re-gangs wider) and executes through
        the :mod:`repro.cluster` multi-chip model with the members'
        capacities enforced as hard per-chip row ceilings, occupying
        all participating instances for the sharded duration; the
        shared ``AutotuneCache`` is keyed per shard. Only pool-clamped
        jobs (graphs even the whole pool cannot cover) run with
        capacities as best-effort estimates. None (default) disables
        sharding — oversized graphs run single-instance as before.
        Sharded jobs dispatch earliest-deadline-first with
        oldest-arrival tie-break, which degenerates to FIFO when no
        request carries an ``slo_ms``.
    cluster_options:
        Optional dict of :class:`~repro.cluster.ClusterConfig`
        overrides for sharded jobs (e.g. ``link_words_per_cycle``,
        ``topology``, ``overlap``, ``rebalance_signal``); ``n_chips``,
        ``chip``, ``chips``, ``row_ceilings`` and
        ``background_link_loads`` are always derived from the job
        itself, and ``topology`` is a kind, since each gang's fabric is
        sized per job. An unknown key or a bad value raises
        :class:`~repro.errors.ConfigError` here, before any request is
        queued.
    worker_configs:
        Optional per-instance :class:`~repro.accel.ArchConfig` sequence
        (length ``n_workers``) describing a heterogeneous hardware
        pool. Sharded jobs then run on the *participating instances'
        own configs* — a :class:`~repro.cluster.ClusterConfig` with one
        ``chips`` entry per gang member — instead of replicating the
        request's config, and the capacity-normalized cluster
        partitioner spreads the graph accordingly. None (default)
        models the historical uniform pool. Single-instance batches
        still simulate at the request's config (the request defines the
        workload's target architecture; sharding is where the pool's
        physical heterogeneity binds).
    coschedule:
        Multi-tenant co-scheduling of batch and sharded traffic.
        Enables (1) *gang claims*: while the head sharded job waits for
        members, its planned instances stop taking new batches at their
        next batch boundary, so the gang assembles at a bounded instant
        instead of racing batch traffic; (2) *priority classes*: the
        streaming scheduler groups and dispatches class-major
        (``(class, deadline, arrival)``), with classes derived per
        request via
        :meth:`~repro.serve.request.InferenceRequest.priority_class`;
        (3) *boundary preemption*: a class-0 (deadline-critical) batch
        with no free fitting instance preempts the lower-priority
        active sharded job with the earliest upcoming layer boundary —
        the gang frees at that boundary, one granted member serves the
        critical batch, and the remainder resumes on the same gang with
        the modeled cycle total conserved; (4) *fabric sharing*:
        concurrent sharded jobs run on per-gang restrictions of one
        pool-wide fabric (:func:`~repro.cluster.topology.subtopology`
        of the ``cluster_options`` topology kind) and each new job
        prices its halo flows against the per-link background traffic
        of jobs already running. Default False is bit-identical to the
        exclusive-gang service.
    critical_slo_ms:
        SLO threshold (ms) at or under which a request without an
        explicit ``priority`` derives class 0 (deadline-critical) under
        ``coschedule``. None means only explicit priorities can reach
        class 0.
    cache_mode:
        How the pool's autotune cache is organized, decided once at
        construction: it sets the cache each instance's
        :attr:`WorkerState.cache` holds and the placement policy
        (:mod:`repro.serve.placement`) the event loop consults.

        * ``"shared"`` (default) — every instance holds the one
          ``cache`` (or None), with cache-blind
          :class:`~repro.serve.placement.FirstFree` placement: the
          historical service, bit-identical to before this knob
          existed.
        * ``"partitioned"`` — each instance holds a private
          :class:`AutotuneCache` shard (bounded by
          ``worker_cache_entries``) but placement stays
          :class:`~repro.serve.placement.FirstFree`: the
          realistic-deployment baseline the affinity bench compares
          against.
        * ``"affinity"`` — per-instance shards plus the
          :class:`~repro.serve.placement.CacheAffinity` policy: a
          sealed batch goes to the instance whose shard holds most of
          its (fingerprint, config) keys when waiting for it cannot
          break the batch's deadline, else first-free (EDF dispatch
          order is untouched); a repeat sharded graph re-lands on its
          last gang; and hot families' entries are replicated to the
          least-loaded shards (``replicate_threshold``).

        ``"partitioned"``/``"affinity"`` require ``cache=True`` (the
        service builds the per-instance shards itself).
    worker_cache_entries:
        LRU bound of each per-instance cache shard under
        ``"partitioned"``/``"affinity"`` (None = unbounded); a
        :class:`~repro.errors.ConfigError` under ``"shared"``, whose
        cache is bounded via the ``cache`` object itself.
    replicate_threshold:
        Demand level (decayed requests within roughly one
        ``demand_half_life`` window) at which a graph family counts as
        *hot*. Once per event-loop tick
        (:meth:`~repro.serve.placement.CacheAffinity.tick`), hot
        families' warm entries, hottest first and at most one shard's
        worth (``worker_cache_entries``), are replicated to the
        ``replicate_k`` least-loaded instances, each replica admitted
        only over an entry of a colder family, re-planned only when the
        hot set or the target instances change. None disables
        replication. Affinity mode only: a
        :class:`~repro.errors.ConfigError` under any other
        ``cache_mode``.
    replicate_k:
        How many least-loaded instances (earliest ``free_at``, index
        tie-break) receive the hot entries; a shard already holding a
        planned key is left as it is.
    demand_half_life:
        Half-life (simulated seconds) of the affinity policy's
        per-family demand histogram.
    tracer:
        Optional :class:`~repro.obs.tracer.RecordingTracer` collecting
        the structured event trace of every drain (request span trees,
        batch cuts, gang claims, backfills, preemptions, cache and
        cluster events — all on the simulated clock). None (default)
        uses the zero-overhead :class:`~repro.obs.tracer.NullTracer`.

    Units
    -----
    Two clocks must never mix (see the module docstring). Everything
    scheduling-related — ``arrival_time``, ``max_wait``, deadlines,
    ``free_at``, the ``start_time``/``finish_time`` of results,
    ``LatencyStats`` — is *simulated* time: seconds of modeled hardware
    derived from cycle counts via
    :meth:`~repro.accel.ArchConfig.cycles_to_seconds` (latencies are
    reported in simulated *milliseconds*). Only
    ``ServiceStats.wall_seconds``, ``WorkerState.busy_seconds`` and
    ``InferenceResult.sim_seconds`` are wall-clock: they measure how
    long the *simulation* took, the cost the autotune cache shrinks.

    SLO semantics
    -------------
    A request with ``slo_ms`` set carries the absolute deadline
    ``arrival_time + slo_ms / 1e3`` (simulated seconds). Deadlines
    steer scheduling twice — the tightest member deadline decides when
    a pending batch must be cut, and sealed batches dispatch
    earliest-deadline-first — and, by default, are never enforced by
    shedding: a request whose deadline already passed is still served
    and simply reported as a miss (``InferenceResult.slo_met`` False,
    aggregated into :attr:`LatencyStats.slo_attainment`). With
    ``shed_expired`` the front door sheds such requests at batch-cut
    time instead (recorded outcome, counted in
    :attr:`ServiceStats.shed_rate`). Requests without an SLO never
    expire and degrade to FIFO order.
    """

    def __init__(self, *, n_workers=2, cache=True, max_batch=None,
                 max_wait=None, shed_expired=False, reconfig_cycles=0,
                 chip_capacity=None, cluster_options=None,
                 worker_configs=None, coschedule=False,
                 critical_slo_ms=None, cache_mode="shared",
                 worker_cache_entries=None, replicate_threshold=None,
                 replicate_k=2, demand_half_life=0.05, tracer=None):
        check_positive_int(n_workers, "n_workers")
        self.tracer = NULL_TRACER if tracer is None else tracer
        """Event sink (:mod:`repro.obs`): a
        :class:`~repro.obs.tracer.RecordingTracer` collects the span
        tree of every request plus scheduler/cluster/cache events on
        the simulated clock; the default :data:`NULL_TRACER` costs one
        attribute check per hook."""
        if cache_mode not in ("shared", "partitioned", "affinity"):
            raise ConfigError(
                "cache_mode must be 'shared', 'partitioned' or "
                f"'affinity', got {cache_mode!r}"
            )
        self.cache_mode = cache_mode
        if worker_cache_entries is not None:
            if cache_mode == "shared":
                raise ConfigError(
                    "worker_cache_entries bounds the per-instance shards "
                    "of cache_mode 'partitioned'/'affinity'; "
                    "cache_mode='shared' would ignore it (bound the "
                    "shared AutotuneCache itself)"
                )
            worker_cache_entries = check_positive_int(
                worker_cache_entries, "worker_cache_entries"
            )
        self.worker_cache_entries = worker_cache_entries
        if replicate_threshold is not None:
            if cache_mode != "affinity":
                raise ConfigError(
                    "replicate_threshold drives cache_mode='affinity' "
                    f"replication; cache_mode={cache_mode!r} would "
                    "ignore it"
                )
            try:
                replicate_threshold = float(replicate_threshold)
            except (TypeError, ValueError):
                raise ConfigError(
                    "replicate_threshold must be a number or None, got "
                    f"{type(replicate_threshold).__name__}"
                )
            if not math.isfinite(replicate_threshold) \
                    or replicate_threshold <= 0.0:
                raise ConfigError(
                    "replicate_threshold must be finite and > 0, got "
                    f"{replicate_threshold}"
                )
        self.replicate_threshold = replicate_threshold
        self.replicate_k = check_positive_int(replicate_k, "replicate_k")
        self.demand_half_life = check_positive_finite(
            demand_half_life, "demand_half_life"
        )
        if cache_mode != "shared":
            if cache is not True:
                raise ConfigError(
                    f"cache_mode={cache_mode!r} builds one cache shard "
                    "per instance itself; pass cache=True (a prebuilt "
                    "or disabled cache cannot be partitioned)"
                )
            cache = None
        else:
            if cache is True:
                cache = AutotuneCache()
            if cache is not None and not isinstance(cache, AutotuneCache):
                raise ConfigError(
                    f"cache must be AutotuneCache, True or None, "
                    f"got {type(cache).__name__}"
                )
            if cache is not None:
                cache.tracer = self.tracer
        self.cache = cache
        """The one cache every instance shares under ``"shared"`` (None
        without a cache, and under the per-instance modes)."""
        self.queue = RequestQueue()
        self.max_batch = _check_max_batch(max_batch)
        self.max_wait = _check_max_wait(max_wait)
        self.shed_expired = bool(shed_expired)
        self.reconfig_cycles = check_non_negative_int(
            reconfig_cycles, "reconfig_cycles"
        )
        if chip_capacity is not None:
            if isinstance(chip_capacity, (list, tuple)):
                caps = tuple(
                    check_positive_int(cap, "chip_capacity")
                    for cap in chip_capacity
                )
                if len(caps) != n_workers:
                    raise ConfigError(
                        f"chip_capacity must have one entry per worker "
                        f"({n_workers}), got {len(caps)}"
                    )
                chip_capacity = caps
            else:
                chip_capacity = check_positive_int(
                    chip_capacity, "chip_capacity"
                )
        self.chip_capacity = chip_capacity
        if worker_configs is not None:
            worker_configs = tuple(worker_configs)
            if len(worker_configs) != n_workers:
                raise ConfigError(
                    f"worker_configs must have one ArchConfig per worker "
                    f"({n_workers}), got {len(worker_configs)}"
                )
            from repro.accel.config import ArchConfig

            for cfg in worker_configs:
                if not isinstance(cfg, ArchConfig):
                    raise ConfigError(
                        "worker_configs entries must be ArchConfig, got "
                        f"{type(cfg).__name__}"
                    )
        self.worker_configs = worker_configs
        self.cluster_options = dict(cluster_options or {})
        known = {f.name for f in fields(ClusterConfig)}
        for key in self.cluster_options:
            if key not in known:
                raise ConfigError(
                    f"cluster_options names {key!r}, which is not a "
                    "ClusterConfig field"
                )
        for reserved in ("n_chips", "chip", "chips", "row_ceilings",
                         "background_link_loads"):
            if reserved in self.cluster_options:
                raise ConfigError(
                    f"cluster_options may not override {reserved!r} "
                    "(derived per sharded job)"
                )
        if isinstance(self.cluster_options.get("topology"), Topology):
            raise ConfigError(
                "cluster_options needs a topology *kind*: the service "
                "sizes each gang's fabric itself, and a prebuilt "
                "Topology cannot be re-sized"
            )
        # A probe at pool size, so a bad value fails here, not mid-drain.
        ClusterConfig(n_chips=n_workers, **self.cluster_options)
        self.coschedule = bool(coschedule)
        if critical_slo_ms is not None:
            try:
                critical_slo_ms = float(critical_slo_ms)
            except (TypeError, ValueError):
                raise ConfigError(
                    "critical_slo_ms must be a number or None, got "
                    f"{type(critical_slo_ms).__name__}"
                )
            if not math.isfinite(critical_slo_ms) or critical_slo_ms <= 0.0:
                raise ConfigError(
                    "critical_slo_ms must be finite and > 0, got "
                    f"{critical_slo_ms}"
                )
        self.critical_slo_ms = critical_slo_ms
        self.workers = [
            WorkerState(index=i, cache=cache) for i in range(n_workers)
        ]
        self._shards = ()
        """The instances' own cache shards (empty under ``"shared"``)."""
        if cache_mode != "shared":
            for worker in self.workers:
                worker.cache = AutotuneCache(max_entries=worker_cache_entries)
                worker.cache.tracer = self.tracer
                worker.cache.lane = f"cache/w{worker.index}"
            self._shards = tuple(worker.cache for worker in self.workers)
        # Where batches and sharded gangs land (repro.serve.placement).
        if cache_mode == "affinity":
            self.placement = CacheAffinity(
                self.workers, reconfig_cycles=self.reconfig_cycles,
                shard_entries=worker_cache_entries,
                replicate_threshold=replicate_threshold,
                replicate_k=self.replicate_k,
                demand_half_life=self.demand_half_life, tracer=self.tracer,
            )
        else:
            self.placement = FirstFree()
        self._n_batches = 0
        self._pool_fabric_cache = None
        self._active = []
        self._screen_memo = {}
        self._drain_preemptions = 0
        self._drain_backfills = 0
        self._last_claim = None
        self._accels = {}
        self._cold_runs = {}
        """(fingerprint, config) cache key -> the
        :class:`~repro.accel.ColdRun` a drain's accelerator computed
        for it. It lives as long as the service, so a key is tuned once
        however often it is evicted."""
        self._sharded = {}

    def submit(self, request):
        """Queue one :class:`~repro.serve.request.InferenceRequest`.

        Requests must arrive in non-decreasing ``arrival_time`` order
        (simulated seconds; equal times model a burst) — the queue
        rejects out-of-order arrivals with
        :class:`~repro.errors.ConfigError`. Returns the request id
        (the caller's ``request_id``, or the assigned arrival sequence
        number when None).
        """
        return self.queue.submit(request)

    def submit_many(self, requests):
        """Queue an iterable of requests (same contract as :meth:`submit`);
        returns their ids in submission order."""
        return self.queue.submit_many(requests)

    def drain(self):
        """Serve everything queued; returns a :class:`ServeOutcome`.

        Runs the event loop over the queued arrival stream. Results
        come back in request arrival order regardless of batch
        placement, so callers can zip them against what they submitted.

        Each drain is an independent simulation epoch: the clock
        restarts at zero and every instance starts idle. The cache and
        the cumulative per-instance counters carry over — that is the
        "warm service" the multi-drain pattern models — and so do the
        cold runs behind every cache miss so far, so a key evicted in
        one drain is re-stored, not re-tuned, in the next.
        """
        queued = self.queue.drain()
        for worker in self.workers:
            worker.free_at = 0.0
        tr = self.tracer
        trace = tr.enabled
        evictions_before = self._evictions_total()
        if trace:
            tr.set_time(0.0)
            # No host-execution facts in the args: the stream is a
            # deterministic function of the queued traffic.
            tr.instant("drain.begin", ts=0.0, args={
                "queued": len(queued),
                "n_workers": len(self.workers),
                "coschedule": self.coschedule,
            })
        # The accelerator memos key by id(dataset); ids can be recycled
        # across drains, so they never outlive one. That also scopes
        # each accelerator's replay memo, which pins every entry object
        # it has replayed, and each sharded accelerator's plans, halo
        # sets and chip accelerators to one drain. The cold runs the
        # dropped accelerators kept move to a map keyed by cache key,
        # one run per key, which lives as long as the service.
        self._drop_accels()
        self._sharded = {}
        # Without an explicit batch cap, bound batches so one giant
        # config group still spreads over the whole instance pool (each
        # instance configures once and takes a contiguous share) instead
        # of serializing on instance 0.
        cap = self.max_batch
        if cap is None and len(self.workers) > 1:
            cap = -(-len(queued) // len(self.workers)) or None
        stream = StreamingScheduler(max_batch=cap, max_wait=self.max_wait,
                                    shed_expired=self.shed_expired,
                                    priorities=self.coschedule,
                                    critical_slo_ms=self.critical_slo_ms,
                                    tracer=tr)

        results = []
        sharded = []  # FIFO of oversized requests awaiting enough chips
        clock = 0.0
        i, n = 0, len(queued)
        batches_before = self._n_batches
        self._active = []
        self._screen_memo = {}
        self._drain_preemptions = 0
        self._drain_backfills = 0
        self._last_claim = None
        placement = self.placement
        placement.begin_drain()
        last_snapshot = None
        started = time.perf_counter()
        while (i < n or stream.pending or stream.ready or sharded
               or any(entry.preempted for entry in self._active)):
            if trace:
                tr.set_time(clock)
            # Admit everything that has arrived by now. Size cuts
            # happen inside admit(), in arrival order; graphs over the
            # per-chip capacity divert to the sharded-job queue.
            while i < n and queued[i].arrival_time <= clock:
                item = queued[i]
                needs_shards = self._needs_sharding(item.request)
                if trace:
                    args = {
                        "seq": item.seq,
                        "slo_ms": item.request.slo_ms,
                        "sharded": needs_shards,
                    }
                    if self.coschedule:
                        args["class"] = self._class_of(item.request)
                    tr.instant("request.arrival", ts=item.arrival_time,
                               args=args)
                placement.arrival(item)
                if needs_shards:
                    sharded.append(item)
                else:
                    stream.admit(item, now=clock)
                i += 1
            # Seal groups whose deadline slack (or batch timeout) is up.
            stream.cut_due(clock)
            # The arrival stream has ended: nothing more can join a
            # group, so seal the remainder.
            if i >= n:
                stream.flush(now=clock)
            # Record anything admission control shed at the cuts above.
            for item, when in stream.take_shed():
                results.append((item.seq, self._shed_result(item, when)))
            # Sharded jobs dispatch first, in priority-then-EDF order
            # with oldest-arrival tie-break (plain FIFO when nothing
            # carries an SLO), whenever enough instances are
            # simultaneously idle; they gang-schedule the lowest-indexed
            # free instances whose capacities cover the graph. The queue
            # head never gets *delayed*: a blocked head plans its gang
            # on the pool's free_at timeline (EASY reservation), and a
            # later job may only backfill onto idle instances when that
            # cannot push the head's planned assembly back — either it
            # avoids the reserved instances entirely, or its exact
            # screened duration proves they are free again in time.
            if self.coschedule:
                self._retire_active(clock)
            claims = self._resume_claims() if self.coschedule else set()
            reserved = set()
            while sharded:
                head_at = self._sharded_head(sharded)
                head = sharded[head_at]
                if self.shed_expired and head.deadline < clock:
                    sharded.pop(head_at)
                    results.append((head.seq, self._shed_result(head, clock)))
                    continue
                free = [w for w in self.workers
                        if w.free_at <= clock and w.index not in claims]
                picked = self._shard_gang(free, head.request)
                if picked is not None:
                    gang, constrained = picked
                    sharded.pop(head_at)
                    self._serve_sharded(head, gang, clock, results,
                                        constrained=constrained)
                    continue
                planned = self._planned_gang(head.request, exclude=claims)
                if planned is None:
                    break
                t_head, head_gang = planned
                if self.coschedule:
                    # Claim the planned members: from now until the
                    # gang assembles they take no new batch, so t_head
                    # is an upper bound, not a moving target.
                    reserved = set(head_gang)
                    claim = (head.seq, tuple(sorted(reserved)))
                    if trace and claim != self._last_claim:
                        self._last_claim = claim
                        tr.instant("gang.claim", ts=clock, args={
                            "seq": head.seq,
                            "members": sorted(reserved),
                            "ready_at": t_head,
                        })
                if len(sharded) == 1:
                    break
                dispatched = False
                order = sorted(
                    (j for j in range(len(sharded)) if j != head_at),
                    key=lambda j: self._sharded_key(sharded[j]),
                )
                for j in order:
                    cand = sharded[j]
                    if self.shed_expired and cand.deadline < clock:
                        continue
                    unreserved = [
                        w for w in free if w.index not in head_gang
                    ]
                    picked = self._shard_gang(unreserved, cand.request,
                                              clamp=False)
                    if picked is None:
                        # Reserved instances are idle until t_head; the
                        # candidate may borrow them iff its exact
                        # modeled duration returns them in time.
                        picked = self._shard_gang(free, cand.request,
                                                  clamp=False)
                        if picked is not None:
                            gang, constrained = picked
                            would_end = self._would_start(
                                gang, cand.request, clock
                            ) + self._screen_duration(
                                cand, gang, constrained, clock
                            )
                            if would_end > t_head:
                                picked = None
                    if picked is None:
                        continue
                    gang, constrained = picked
                    sharded.pop(j)
                    if trace:
                        tr.instant("backfill", ts=clock, args={
                            "seq": cand.seq,
                            "members": sorted(w.index for w in gang),
                            "head_seq": head.seq,
                        })
                    self._serve_sharded(cand, gang, clock, results,
                                        constrained=constrained,
                                        backfill=True)
                    self._drain_backfills += 1
                    dispatched = True
                    break
                if not dispatched:
                    break
            # Hand sealed batches, tightest deadline first (class-major
            # under co-scheduling), to the instance the placement policy
            # picks. With per-worker capacities, only an instance that
            # fits the batch's largest graph is a candidate — a small
            # chip must not receive a graph its capacity says it cannot
            # hold. Claimed instances (gang reservations, pending
            # resumes) take no new batch; a deadline-critical batch with
            # nowhere to go may arm a boundary preemption instead.
            claimed = claims | reserved
            while stream.ready:
                items = stream.peek_ready()
                needed = self._batch_nodes(items)
                worker = placement.place(
                    items, self._candidates(needed, claimed), clock, stream,
                    self._request_key,
                )
                if worker is None:
                    if self.coschedule and self._active:
                        self._maybe_preempt(stream.peek_ready(), needed,
                                            clock)
                    break
                if self.coschedule:
                    for entry in self._active:
                        if (entry.preempted and not entry.grant_used
                                and entry.grant == worker.index):
                            entry.grant_used = True
                self._serve_batch(stream.pop_ready(), worker, clock,
                                  stream, results)
            if self.coschedule:
                self._process_resumes(clock, results)
            placement.tick(clock)
            if trace:
                tr.counter("service.queue", ts=clock, values={
                    "pending": stream.pending,
                    "ready": stream.ready,
                    "sharded": len(sharded),
                    "active": len(self._active),
                })
            # Advance the clock to the next event: an arrival, a
            # deadline-forced cut, an unclaimed instance freeing up, the
            # head sharded job's planned assembly, a backfill
            # opportunity (any instance freeing while the head waits),
            # or a preempted gang coming back together.
            horizon = []
            if i < n:
                horizon.append(queued[i].arrival_time)
            if stream.pending:
                horizon.append(stream.next_cut_time())
            claimed = (self._resume_claims() | reserved
                       if self.coschedule else set())
            if stream.ready:
                needed = self._batch_nodes(stream.peek_ready())
                frees = [
                    w.free_at for w in self.workers
                    if self._worker_fits(w.index, needed)
                    and w.index not in claimed
                ]
                if frees:
                    horizon.append(min(frees))
            if sharded:
                head = sharded[self._sharded_head(sharded)]
                planned = self._planned_gang(
                    head.request, exclude=self._resume_claims()
                    if self.coschedule else frozenset()
                )
                if planned is not None:
                    horizon.append(planned[0])
                if len(sharded) > 1:
                    busy = [w.free_at for w in self.workers
                            if w.free_at > clock]
                    if busy:
                        horizon.append(min(busy))
            if self.coschedule:
                for entry in self._active:
                    if entry.preempted:
                        horizon.append(max(
                            w.free_at for w in entry.gang
                        ))
            if not horizon:
                break
            clock = max(clock, min(horizon))
            # Livelock backstop: two identical consecutive snapshots
            # mean no event can ever fire again — fail loudly instead
            # of spinning (a claimed-worker accounting bug would
            # otherwise hang the caller silently).
            snapshot = (
                clock, i, len(results), len(sharded),
                int(stream.ready), int(stream.pending),
                self._n_batches,
                tuple(w.free_at for w in self.workers),
                tuple(entry.preempted for entry in self._active),
            )
            if snapshot == last_snapshot:
                raise RuntimeError(
                    "serving event loop stalled: no event advanced the "
                    f"clock past {clock} (co-scheduling claim bug?)"
                )
            last_snapshot = snapshot
        wall = time.perf_counter() - started

        if trace and self._shards:
            tr.counter("cache.worker_hit_rate", ts=clock, values={
                f"w{index}": shard.stats.hit_rate
                for index, shard in enumerate(self._shards)
            })
        results.sort(key=lambda pair: pair[0])
        results = tuple(result for _seq, result in results)
        n_batches = self._n_batches - batches_before
        evictions = self._evictions_total() - evictions_before
        return ServeOutcome(
            results=results,
            stats=self._stats(results, n_batches, wall, evictions),
            workers=tuple(self.workers),
            latency=LatencyStats.from_results(results),
        )

    @staticmethod
    def _batch_nodes(items):
        """The largest member graph of a (peeked) batch, in nodes."""
        return max(item.request.graph_nodes() for item in items)

    def _worker_fits(self, index, nodes):
        """Whether one instance's declared capacity covers ``nodes``.

        Unconstrained without ``chip_capacity``; with a uniform
        capacity every non-sharded request fits every instance, so the
        check only bites on heterogeneous per-worker capacities.
        """
        if self.chip_capacity is None:
            return True
        return self._capacity_of(index) >= nodes

    def _candidates(self, nodes, claimed):
        """The instances, idle or not, a batch of ``nodes``-node graphs
        may go to: those that fit it, minus ``claimed`` ones."""
        return [
            worker for worker in self.workers
            if worker.index not in claimed
            and self._worker_fits(worker.index, nodes)
        ]

    def _evictions_total(self):
        """Cumulative evictions across the pool's distinct caches."""
        return sum(
            cache.stats.evictions for cache in self._shards or (self.cache,)
            if cache is not None
        )

    def _accel_for(self, request):
        """The drain's one :class:`GcnAccelerator` for a request's
        (dataset, config, a_hops).

        Routing keys and serving share it, so its jobs are built once
        per drain and its replay memo turns every repeat hit on a cache
        entry into a lookup. It is built holding the cold run an
        earlier drain kept for its cache key, if any
        (:meth:`~repro.accel.GcnAccelerator.remember_cold`), so every
        miss on a key the service has tuned before, in this drain or
        an earlier one, is a store.
        """
        dataset = request.resolve_graph()
        memo_key = (id(dataset), request.config, request.a_hops)
        accel = self._accels.get(memo_key)
        if accel is None:
            accel = GcnAccelerator(dataset, request.config,
                                   a_hops=request.a_hops)
            cold = self._cold_runs.get((accel.fingerprint(), accel.config))
            if cold is not None:
                accel.remember_cold(cold)
            self._accels[memo_key] = accel
        return accel

    def _drop_accels(self):
        """Forget the drain's accelerators, keeping each one's cold run
        under its cache key for the accelerators of later drains."""
        for accel in self._accels.values():
            cold = accel.kept_cold_run
            if cold is not None:
                self._cold_runs[(accel.fingerprint(), accel.config)] = cold
        self._accels = {}

    def _request_key(self, request):
        """The (fingerprint, config) cache key one request will use."""
        return (self._accel_for(request).fingerprint(), request.config)

    def _capacity_of(self, index):
        """Node capacity of one instance (uniform or per-worker)."""
        if isinstance(self.chip_capacity, tuple):
            return self.chip_capacity[index]
        return self.chip_capacity

    def _needs_sharding(self, request):
        """Whether a request's graph exceeds every instance's capacity."""
        if self.chip_capacity is None:
            return False
        largest = (
            max(self.chip_capacity)
            if isinstance(self.chip_capacity, tuple)
            else self.chip_capacity
        )
        return request.graph_nodes() > largest

    def _class_of(self, request):
        """The request's effective priority class under this service."""
        return request.priority_class(self.critical_slo_ms)

    def _sharded_key(self, item):
        """Sort key of one queued sharded job.

        EDF with oldest-arrival tie-break by default; under
        ``coschedule`` the priority class majors it (a critical sharded
        job jumps any later-deadline best-effort one).
        """
        if self.coschedule:
            return (self._class_of(item.request), item.deadline, item.seq)
        return (item.deadline, item.seq)

    def _sharded_head(self, sharded):
        """Index of the first sharded job in :meth:`_sharded_key` order.

        Deadlines are infinite without an SLO, so an SLO-less queue
        degenerates to FIFO (lowest sequence number = index 0).
        """
        head = 0
        for i in range(1, len(sharded)):
            if self._sharded_key(sharded[i]) < self._sharded_key(
                sharded[head]
            ):
                head = i
        return head

    def _compute_capacity_of(self, index):
        """Relative compute throughput of one instance (gang split key)."""
        if self.worker_configs is None:
            return 1.0
        cfg = self.worker_configs[index]
        return cfg.n_pes * cfg.frequency_mhz

    def _fit_gang(self, candidates, nodes):
        """The covering gang inside ``candidates``, or None.

        The cluster partitioner splits work in proportion to *compute*
        capacity, so each member's *expected* share of the nodes must
        fit its declared node capacity — a small chip is not
        gang-scheduled next to a big one when even its proportional
        share would overflow. Members whose expected share overflows
        are pruned (their load redistributes) until the gang is
        feasible or empty. Pruning depends only on the candidate *set*,
        and a feasible gang survives pruning of any superset (shares
        only shrink as members are added), so this finds a covering
        gang iff the candidate set contains one. Uniform pools reduce
        to the historical ``ceil(nodes / capacity)`` sizing exactly:
        ``nodes / k <= capacity`` iff ``k * capacity >= nodes``, and
        nothing is ever pruned.

        The expected share is only a provisioning estimate — the
        partitioner balances *nnz*, so on skewed graphs a chip's actual
        row count can deviate from its proportional share. The hard
        guarantee lives one level down: :meth:`_shard_gang` validates
        the *actual* constrained plan (:meth:`_plan_fits`, worker
        capacities as :func:`~repro.cluster.partition.make_plan` row
        ceilings) before committing a gang, and the sharded run itself
        executes under those ceilings, so no instance is ever handed
        more rows than its declared capacity.
        """
        gang = list(candidates)
        while gang:
            total = sum(
                self._compute_capacity_of(w.index) for w in gang
            )
            kept = [
                worker for worker in gang
                if nodes * self._compute_capacity_of(worker.index) / total
                <= self._capacity_of(worker.index)
            ]
            if len(kept) == len(gang):
                return gang
            gang = kept
        return None

    def _gang_ceilings(self, gang):
        """The gang members' node capacities as hard row ceilings."""
        return tuple(self._capacity_of(worker.index) for worker in gang)

    def _gang_cluster(self, workers, request, *, row_ceilings=None,
                      topology=None):
        """The :class:`ClusterConfig` a sharded run on ``workers`` uses.

        Under ``coschedule``, ``topology`` carries the gang's
        restriction of the pool fabric (overriding the kind string in
        ``cluster_options``).
        """
        opts = dict(self.cluster_options)
        if topology is not None:
            opts["topology"] = topology
        if self.worker_configs is not None:
            return ClusterConfig(
                n_chips=len(workers),
                chips=tuple(
                    self.worker_configs[worker.index] for worker in workers
                ),
                row_ceilings=row_ceilings,
                **opts,
            )
        return ClusterConfig(
            n_chips=len(workers), chip=request.config,
            row_ceilings=row_ceilings, **opts,
        )

    def _sharded_for(self, gang, request, *, constrained=True):
        """The drain's one :class:`ShardedAccelerator` for a request's
        graph on one gang.

        The key — graph, ``a_hops``, request config, the ordered gang
        members and whether their capacities bind as row ceilings —
        fixes every field of the gang's :class:`ClusterConfig` except
        the per-job fabric background: chip configs, row ceilings,
        fabric restriction, partition and rebalance settings. Plan
        validation, backfill screens and dispatch of one graph on one
        gang therefore share its plans, halo sets and per-chip
        accelerators for the whole drain.
        """
        dataset = request.resolve_graph()
        indices = tuple(worker.index for worker in gang)
        key = (id(dataset), request.a_hops, request.config, indices,
               constrained)
        sharded = self._sharded.get(key)
        if sharded is None:
            ceilings = (
                self._gang_ceilings(gang)
                if constrained and self.chip_capacity is not None else None
            )
            topology = (
                subtopology(self._pool_fabric, indices)
                if self.coschedule else None
            )
            cluster = self._gang_cluster(
                gang, request, row_ceilings=ceilings, topology=topology,
            )
            sharded = ShardedAccelerator(dataset, cluster,
                                         a_hops=request.a_hops)
            self._sharded[key] = sharded
        return sharded

    def _plan_fits(self, gang, request):
        """Whether the *actual* constrained plan is feasible on ``gang``.

        :meth:`_fit_gang`'s proportional-share check is an estimate; on
        a skewed graph the real nnz-balanced plan can hand a member
        more rows than its declared capacity. This asks for the very
        plan the sharded run would use — same strategy, block
        granularity and capacities, with the members' capacities as
        hard row ceilings — and reports whether it exists. The plan
        comes from the gang's :meth:`_sharded_for` accelerator, which
        partitions once per drain (an infeasible plan included), so a
        repeated check during gang scans is a dict lookup.
        """
        try:
            self._sharded_for(gang, request).plan
        except CeilingError:
            return False
        return True

    def _shard_gang(self, free, request, *, clamp=True):
        """The gang a sharded request runs on: ``(gang, constrained)``.

        The first index-ordered prefix of ``free`` containing a gang
        that passes both the proportional-share screen
        (:meth:`_fit_gang`) and actual-plan validation
        (:meth:`_plan_fits`) — ``ceil(nodes / capacity)`` instances in
        the uniform case, more when the real plan overfills a member
        (the job re-gangs wider instead of silently overfilling).
        ``constrained`` True means the run enforces the members'
        capacities as hard row ceilings. When even the whole pool holds
        no feasible gang the job is pool-clamped onto every instance
        with ``constrained`` False (capacities become best-effort — the
        pool physically cannot honor them); otherwise an insufficient
        *free* set returns None and the job waits for more instances to
        idle. ``clamp=False`` disables the pool-clamp fallback — the
        backfill path uses it so only the queue head may ever
        monopolize the whole pool best-effort.

        The placement policy orders the scan
        (:meth:`~repro.serve.placement.FirstFree.gang_orders`): under
        ``cache_mode="affinity"`` a family served before tries its
        previous gang first.
        """
        nodes = request.graph_nodes()
        for order in self.placement.gang_orders(free, request):
            for end in range(1, len(order) + 1):
                gang = self._fit_gang(order[:end], nodes)
                if gang and self._plan_fits(gang, request):
                    return gang, True
        if clamp and free and len(free) == len(self.workers):
            return list(free), False
        return None

    def _planned_gang(self, request, *, exclude=frozenset()):
        """``(ready_time, member_indices)`` of the head job's plan.

        Scans non-excluded instances in ``free_at`` order (index-stable
        on ties): at each instant the candidate set is exactly the set
        :meth:`_shard_gang` will see, and its combined predicate
        (:meth:`_fit_gang` plus :meth:`_plan_fits`) is
        order-independent, so the returned time is one at which
        dispatch really succeeds — the event loop never advances to a
        horizon that cannot make progress. The fallback (every instance
        idle) is exactly the pool-clamp case, which always dispatches.
        ``exclude`` (claimed instances under ``coschedule``) shrinks
        the candidate pool; None when no feasible plan exists inside
        what remains (only possible with a non-empty ``exclude``).
        """
        nodes = request.graph_nodes()
        eligible = [w for w in self.workers if w.index not in exclude]
        by_free = sorted(eligible, key=lambda w: w.free_at)
        for end in range(1, len(by_free) + 1):
            gang = self._fit_gang(by_free[:end], nodes)
            if gang and self._plan_fits(gang, request):
                return (
                    by_free[end - 1].free_at,
                    tuple(w.index for w in gang),
                )
        if len(eligible) == len(self.workers):
            return (
                by_free[-1].free_at,
                tuple(w.index for w in self.workers),
            )
        return None

    @property
    def _pool_fabric(self):
        """The pool-wide fabric co-scheduled gangs share, memoized.

        Built from the ``cluster_options`` topology *kind* (default
        all-to-all) at pool size; each gang runs on its
        :func:`~repro.cluster.topology.subtopology`, so different gangs'
        link loads live in one id space and sum as background traffic.
        """
        if self._pool_fabric_cache is None:
            self._pool_fabric_cache = make_topology(
                self.cluster_options.get("topology", "all-to-all"),
                len(self.workers),
                link_words_per_cycle=float(
                    self.cluster_options.get("link_words_per_cycle", 8.0)
                ),
                hop_latency_cycles=int(
                    self.cluster_options.get("hop_latency_cycles", 0)
                ),
            )
        return self._pool_fabric_cache

    def _would_start(self, workers, request, clock):
        """When a gang dispatched at ``clock`` would actually start.

        Non-mutating mirror of the :meth:`_reconfigure` gating inside
        :meth:`_serve_sharded`: the slowest member's reconfiguration
        penalty (if its configured key differs) delays the whole gang.
        Used by the backfill screen, which must price a candidate
        without touching worker state.
        """
        start = clock
        for worker in workers:
            config = self._chip_config(worker, request)
            start = max(start, worker.start_after(
                config, request.a_hops, clock, self.reconfig_cycles,
            ))
        return start

    def _screen_duration(self, item, gang, constrained, clock):
        """Exact modeled duration a sharded dispatch would take *now*.

        Runs the very simulation :meth:`_serve_sharded` would run —
        same gang, ceilings, fabric restriction and background — against
        an uncounted :class:`~repro.serve.cache.OverlayCache` over the
        first member's cache, whose contents, stats and LRU order stay
        untouched. Because the cache never changes modeled numbers, the
        screened duration equals the dispatched duration exactly; the
        backfill decision is a proof, not an estimate. Memoized per
        (job, gang, background) so the event loop can re-screen a
        parked candidate cheaply.
        """
        indices = tuple(worker.index for worker in gang)
        background = self._background_for(clock) if self.coschedule else None
        bg_key = (
            None if background is None else tuple(background.tolist())
        )
        key = (item.seq, indices, constrained, bg_key)
        cached = self._screen_memo.get(key)
        if cached is not None:
            return cached
        request = item.request
        sharded = self._sharded_for(gang, request, constrained=constrained)
        cluster = _with_background(sharded.cluster, background)
        report = simulate_multichip_gcn(
            sharded, cluster, a_hops=request.a_hops,
            cache=OverlayCache(gang[0].cache, counted=False),
        )
        duration = cluster.chip.cycles_to_seconds(report.total_cycles)
        self._screen_memo[key] = duration
        return duration

    def _background_for(self, clock):
        """Per-link words other active jobs keep on the pool fabric.

        Sums the stored per-round halo flows of every running (not
        preempted, not finished) sharded job. None when nothing
        contends — the single-tenant fast path, which prices exactly
        as the exclusive fabric did.
        """
        flows = [
            entry.flows for entry in self._active
            if not entry.preempted and entry.flows is not None
            and entry.finish > clock
        ]
        if not flows:
            return None
        return np.sum(flows, axis=0)

    def _resume_claims(self):
        """Instance indices reserved for preempted jobs' resumes.

        Every gang member of a preempted job is claimed — it takes no
        new batch, so the resume is never pushed back — except the
        granted instance while its one-batch grant is still open.
        """
        claims = set()
        for entry in self._active:
            if not entry.preempted:
                continue
            for worker in entry.gang:
                if (entry.grant == worker.index
                        and not entry.grant_used):
                    continue
                claims.add(worker.index)
        return claims

    def _retire_active(self, clock):
        """Drop finished jobs from the active registry (keep preempted)."""
        self._active = [
            entry for entry in self._active
            if entry.preempted or entry.finish > clock
        ]

    def _maybe_preempt(self, items, needed, clock):
        """Boundary-preempt one active job for a critical batch.

        Fires only when the pending batch's best member class is 0
        (deadline-critical) and no fitting instance is free. Among
        active lower-priority jobs, picks the one with the earliest
        upcoming layer boundary that beats the batch's natural wait
        (the earliest fitting ``free_at``) and has a member the batch
        fits on. The gang frees at that boundary; the lowest-indexed
        fitting member becomes the batch's *grant*, the rest stay
        claimed for the resume. Returns True when a preemption was
        armed (the caller re-evaluates once the clock reaches the
        boundary).
        """
        cls = min(self._class_of(item.request) for item in items)
        if cls != 0:
            return False
        fits = [
            worker.free_at for worker in self.workers
            if self._worker_fits(worker.index, needed)
        ]
        if not fits:
            return False
        natural = min(fits)
        best = None
        for entry in self._active:
            if (entry.preempted or entry.finish <= clock
                    or entry.priority <= cls):
                continue
            while entry.boundaries and entry.boundaries[0] <= clock:
                entry.boundaries.pop(0)
            if not entry.boundaries:
                continue
            boundary = entry.boundaries[0]
            if not clock < boundary < natural:
                continue
            member = next(
                (worker for worker in
                 sorted(entry.gang, key=lambda w: w.index)
                 if self._worker_fits(worker.index, needed)),
                None,
            )
            if member is None:
                continue
            if best is None or boundary < best[0]:
                best = (boundary, entry, member)
        if best is None:
            return False
        boundary, entry, member = best
        entry.rel_boundaries = tuple(
            t - boundary for t in entry.boundaries[1:]
        )
        entry.remaining = entry.finish - boundary
        for worker in entry.gang:
            worker.free_at = boundary
            worker.modeled_busy_seconds -= entry.remaining
        entry.grant = member.index
        entry.grant_used = False
        entry.boundaries = []
        entry.preempted = True
        entry.preempt_at = boundary
        self._drain_preemptions += 1
        if self.tracer.enabled:
            self.tracer.instant("preempt", ts=boundary, args={
                "seq": entry.seq,
                "grant": member.index,
                "remaining_ms": entry.remaining * 1e3,
            })
            # The gang frees at the boundary: trim the running spans
            # there; the remainder's spans are re-emitted at resume.
            for span in entry.spans or ():
                span.dur = max(boundary - span.ts, 0.0)
            if entry.svc_span is not None:
                entry.svc_span.dur = max(
                    boundary - entry.svc_span.ts, 0.0
                )
        return True

    def _process_resumes(self, clock, results):
        """Resume preempted jobs whose whole gang is idle again.

        Runs *after* the batch loop each iteration, so the granted
        batch dispatches first. The remainder re-occupies the same gang
        for exactly the preserved ``remaining`` seconds (the modeled
        cycle total is conserved — only the timeline stretched), the
        surviving layer boundaries re-anchor at the resume instant, and
        the job's recorded result is patched with the stretched finish
        and its preemption count.
        """
        for entry in self._active:
            if not entry.preempted:
                continue
            if max(worker.free_at for worker in entry.gang) > clock:
                continue
            finish = clock + entry.remaining
            for worker in entry.gang:
                worker.free_at = finish
                worker.modeled_busy_seconds += entry.remaining
            entry.boundaries = [
                clock + offset for offset in entry.rel_boundaries
            ]
            entry.rel_boundaries = ()
            entry.remaining = 0.0
            entry.finish = finish
            entry.grant = None
            entry.preempted = False
            entry.resumes += 1
            if self.tracer.enabled:
                lane = f"req/{entry.seq}"
                self.tracer.span(
                    "request.preempted", lane=lane,
                    start=entry.preempt_at, end=clock,
                    args={"seq": entry.seq},
                )
                entry.spans = [
                    self.tracer.span(
                        "sharded.resume", lane=f"worker{w.index}",
                        start=clock, end=finish, args={"seq": entry.seq},
                    )
                    for w in entry.gang
                ]
                entry.svc_span = self.tracer.span(
                    "request.resume", lane=lane, start=clock, end=finish,
                    args={"seq": entry.seq},
                )
                entry.preempt_at = None
                if entry.req_span is not None:
                    entry.req_span.dur = finish - entry.req_span.ts
                ev = entry.complete_ev
                if ev is not None:
                    # The recorded completion moves with the stretched
                    # timeline, exactly as the result is patched below.
                    ev.ts = finish
                    e2e_ms = (finish - ev.args["arrival"]) * 1e3
                    ev.args["finish"] = finish
                    ev.args["e2e_ms"] = e2e_ms
                    if ev.args.get("slo_ms") is not None:
                        ev.args["slo_met"] = e2e_ms <= ev.args["slo_ms"]
                    ev.args["preemptions"] = entry.resumes
            for at, (seq, result) in enumerate(results):
                if seq == entry.seq:
                    results[at] = (seq, replace(
                        result, finish_time=finish,
                        preemptions=entry.resumes,
                    ))
                    break

    def _shed_result(self, item, when):
        """The recorded outcome of a request shed at simulated ``when``."""
        request = item.request
        if self.tracer.enabled:
            self.tracer.instant("request.shed", ts=when, args={
                "seq": item.seq,
                "slo_ms": request.slo_ms,
                "waited_ms": (when - request.arrival_time) * 1e3,
            })
        return InferenceResult(
            request_id=request.request_id,
            dataset=getattr(request.graph, "name", "custom"),
            fingerprint="",
            total_cycles=0,
            latency_ms=0.0,
            utilization=0.0,
            cache_hit=False,
            worker=-1,
            batch=-1,
            sim_seconds=0.0,
            arrival_time=request.arrival_time,
            start_time=when,
            finish_time=when,
            slo_ms=request.slo_ms,
            shed=True,
        )

    def _reconfigure(self, worker, config, a_hops, start):
        """Track a config switch; returns ``start`` plus any penalty."""
        key = (config, a_hops)
        if worker.last_key is not None and worker.last_key != key:
            worker.reconfigs += 1
        start = worker.start_after(config, a_hops, start,
                                   self.reconfig_cycles)
        worker.last_key = key
        return start

    def _chip_config(self, worker, request):
        """The config one gang member runs a sharded job at: its own
        with ``worker_configs``, else the request's."""
        if self.worker_configs is None:
            return request.config
        return self.worker_configs[worker.index]

    def _serve_sharded(self, item, workers, clock, results, *,
                       constrained=True, backfill=False):
        """Run one oversized request as a multi-chip job on ``workers``.

        All participating instances gang-schedule: service starts once
        every one of them is reconfigured (the slowest switch gates the
        start) and they stay busy until the synchronized sharded run
        finishes. With ``worker_configs`` the cluster is built from the
        gang members' own configs (a heterogeneous multi-chip job);
        otherwise every chip replicates the request's config. The
        first member's cache (the shared one, or its shard) is passed
        down, so each shard's tuning state is cached independently per
        chip config.

        With ``constrained`` (the normal :meth:`_shard_gang` outcome)
        the members' node capacities become hard
        :attr:`~repro.cluster.ClusterConfig.row_ceilings` of the
        cluster plan — the partitioner and every rebalancing migration
        keep each shard within its instance's declared capacity.
        Pool-clamped jobs run unconstrained (best effort, the pool
        cannot cover the graph).
        """
        request = item.request
        self.placement.gang_landed(item, workers, clock)
        start = clock
        for worker in workers:
            config = self._chip_config(worker, request)
            start = max(start, self._reconfigure(
                worker, config, request.a_hops, clock,
            ))
        sharded = self._sharded_for(workers, request, constrained=constrained)
        cluster = _with_background(
            sharded.cluster,
            self._background_for(clock) if self.coschedule else None,
        )
        dataset = request.resolve_graph()
        tr = self.tracer
        if tr.enabled:
            # Anchor the cluster/tuner/cache events of this job at its
            # service start on the simulated clock.
            tr.set_time(start)
        cache = workers[0].cache
        if cache is not None:
            cache.clock = start
        wall_started = time.perf_counter()
        report = simulate_multichip_gcn(
            sharded, cluster, a_hops=request.a_hops, cache=cache,
            tracer=tr if tr.enabled else None,
        )
        elapsed = time.perf_counter() - wall_started
        service_seconds = cluster.chip.cycles_to_seconds(
            report.total_cycles
        )
        finish = start + service_seconds
        primary = workers[0]
        # Every gang member served the request and was busy for the
        # whole sharded run: the request and batch counts go to each
        # member alike, and the one wall-clock simulation cost is split
        # evenly (the counters then satisfy the gang invariant —
        # identical requests_served/batches_served/modeled_busy_seconds
        # across members, busy_seconds summing to the measured cost —
        # instead of piling requests and wall time onto workers[0]).
        for worker in workers:
            worker.free_at = finish
            worker.requests_served += 1
            worker.busy_seconds += elapsed / len(workers)
            worker.modeled_busy_seconds += finish - clock
            worker.batches_served += 1
        self._n_batches += 1
        result = InferenceResult(
            request_id=request.request_id,
            dataset=getattr(dataset, "name", "custom"),
            fingerprint=f"{dataset_fingerprint(dataset)}@{len(workers)}chips",
            total_cycles=report.total_cycles,
            latency_ms=report.latency_ms,
            utilization=report.utilization,
            cache_hit=report.cache_hit,
            worker=primary.index,
            batch=-1,
            sim_seconds=elapsed,
            arrival_time=request.arrival_time,
            start_time=start,
            finish_time=finish,
            slo_ms=request.slo_ms,
            n_shards=len(workers),
            priority=self._class_of(request) if self.coschedule else None,
        )
        member_spans = None
        req_span = svc_span = complete_ev = None
        if tr.enabled:
            tr.wall("sim.sharded", seconds=elapsed,
                    args={"seq": item.seq})
            member_spans = [
                tr.span(
                    "sharded.backfill" if backfill else "sharded",
                    lane=f"worker{w.index}", start=clock, end=finish,
                    args={"seq": item.seq, "n_shards": len(workers)},
                )
                for w in workers
            ]
            req_span, svc_span, complete_ev = self._trace_completion(
                item, result, {"backfilled": backfill},
            )
        if self.coschedule:
            # Register the job as an active tenant: its layer
            # boundaries are the preemption points, its per-round halo
            # flows the background traffic later jobs price against.
            secs = cluster.chip.cycles_to_seconds
            boundaries = []
            cum = report.migration_cycles
            for layer_cost in report.layer_cycles[:-1]:
                cum += layer_cost
                boundaries.append(start + secs(cum))
            flows = None
            if cluster.n_chips > 1:
                flows = cluster.fabric.link_loads(report.halo.words)
            self._active.append(_ActiveJob(
                seq=item.seq,
                gang=list(workers),
                priority=self._class_of(request),
                start=start,
                finish=finish,
                boundaries=boundaries,
                flows=flows,
                constrained=constrained,
                spans=member_spans,
                req_span=req_span,
                svc_span=svc_span,
                complete_ev=complete_ev,
            ))
        results.append((item.seq, result))

    def _serve_batch(self, batch, worker, clock, stream, results):
        """Run one sealed batch back-to-back on one instance.

        With ``shed_expired``, members whose deadline passed while the
        sealed batch queued for an instance are shed at service start —
        the second admission-control point, complementing the
        batch-cut-time check inside the scheduler. An entirely expired
        batch releases the instance untouched (no reconfiguration is
        charged, no batch is counted).
        """
        base_start = max(clock, worker.free_at)
        items = batch.items
        if self.shed_expired:
            live = []
            for item in items:
                if item.deadline < base_start:
                    results.append((item.seq,
                                    self._shed_result(item, base_start)))
                else:
                    live.append(item)
            items = tuple(live)
            if not items:
                return
        start = self._reconfigure(worker, batch.config,
                                  items[0].request.a_hops, base_start)
        now = start
        wall_started = time.perf_counter()
        for item in items:
            result = self._serve_one(item, batch, worker, now)
            now = result.finish_time
            stream.observe(item.request.config, item.request.a_hops,
                           result.modeled_seconds)
            results.append((item.seq, result))
        elapsed = time.perf_counter() - wall_started
        worker.busy_seconds += elapsed
        worker.free_at = now
        if self.tracer.enabled:
            self.tracer.wall("sim.batch", seconds=elapsed,
                             args={"batch": batch.index})
            self.tracer.span(
                "batch", lane=f"worker{worker.index}",
                start=base_start, end=now,
                args={
                    "batch": batch.index,
                    "size": len(items),
                    "config": config_label(batch.config),
                    "reconfig_s": start - base_start,
                },
            )
        # Charged from base_start, not start: the reconfiguration
        # interval keeps the instance occupied, so excluding it made
        # utilization denominators disagree with wall-clock occupancy
        # whenever reconfig_cycles > 0. One consistent definition:
        # modeled busy time runs from the moment the instance is
        # claimed (including any reconfiguration) to batch finish —
        # exactly what the sharded path charges via finish - clock.
        worker.modeled_busy_seconds += now - base_start
        worker.batches_served += 1
        self._n_batches += 1

    def _serve_one(self, item, batch, worker, start):
        """Run one request on one instance and record the outcome."""
        request = item.request
        tr = self.tracer
        if tr.enabled:
            # Anchor this request's tuner/cache events (direct or
            # spliced from a kept cold run) at its service start.
            tr.set_time(start)
        started = time.perf_counter()
        accel = self._accel_for(request)
        cache = worker.cache
        if cache is not None:
            cache.clock = start
        report = accel.run(cache=cache, tracer=tr if tr.enabled else None)
        elapsed = time.perf_counter() - started
        worker.requests_served += 1
        service_seconds = request.config.cycles_to_seconds(
            report.total_cycles
        )
        result = InferenceResult(
            request_id=request.request_id,
            dataset=accel.name,
            fingerprint=accel.fingerprint(),
            total_cycles=report.total_cycles,
            latency_ms=report.latency_ms,
            utilization=report.utilization,
            cache_hit=report.cache_hit,
            worker=worker.index,
            batch=batch.index,
            sim_seconds=elapsed,
            arrival_time=request.arrival_time,
            start_time=start,
            finish_time=start + service_seconds,
            slo_ms=request.slo_ms,
            priority=self._class_of(request) if self.coschedule else None,
        )
        if tr.enabled:
            tr.wall("sim.request", seconds=elapsed,
                    args={"seq": item.seq})
            tr.span(
                "serve", lane=f"worker{worker.index}", start=start,
                end=result.finish_time,
                args={"seq": item.seq, "batch": batch.index},
            )
            self._trace_completion(
                item, result, {"batch": batch.index, "worker": worker.index},
            )
        return result

    def _trace_completion(self, item, result, extra):
        """Emit a served request's ``request``/``request.queue``/
        ``request.service`` spans and ``request.complete`` instant (the
        path's ``extra`` args follow ``n_shards``); returns the request
        span, service span and completion event, which a preempted
        sharded job stretches on resume."""
        tr = self.tracer
        lane = f"req/{item.seq}"
        arrival = result.arrival_time
        start = result.start_time
        finish = result.finish_time
        req_span = tr.span("request", lane=lane, start=arrival, end=finish,
                           args={"seq": item.seq})
        tr.span("request.queue", lane=lane, start=arrival, end=start,
                args={"seq": item.seq})
        svc_span = tr.span("request.service", lane=lane, start=start,
                           end=finish, args={"seq": item.seq})
        complete = tr.instant("request.complete", ts=finish, args={
            "seq": item.seq,
            "dataset": result.dataset,
            "cycles": result.total_cycles,
            "utilization": float(result.utilization),
            "cache_hit": bool(result.cache_hit),
            "n_shards": result.n_shards,
            **extra,
            "arrival": arrival,
            "start": start,
            "finish": finish,
            "e2e_ms": result.e2e_ms,
            "queue_ms": result.queue_ms,
            "slo_ms": result.slo_ms,
            "slo_met": result.slo_met,
            "preemptions": 0,
        })
        return req_span, svc_span, complete

    def _stats(self, results, n_batches, wall, n_evictions=0):
        """Fold per-request results into :class:`ServiceStats`.

        Cache, cycle and utilization aggregates cover *served* requests
        only — a shed request never reached an instance.
        """
        served = [r for r in results if not r.shed]
        n_shed = len(results) - len(served)
        n_sharded = sum(1 for r in served if r.n_shards > 1)
        hits = sum(1 for r in served if r.cache_hit)
        utils = [r.utilization for r in served]
        return ServiceStats(
            n_requests=len(results),
            n_batches=n_batches,
            cache_hits=hits,
            cache_misses=len(served) - hits,
            wall_seconds=wall,
            total_cycles=sum(r.total_cycles for r in served),
            mean_utilization=sum(utils) / len(utils) if utils else 0.0,
            makespan_seconds=max(
                (r.finish_time for r in served), default=0.0
            ),
            n_shed=n_shed,
            n_sharded=n_sharded,
            n_backfilled=self._drain_backfills,
            n_preemptions=self._drain_preemptions,
            n_evictions=n_evictions,
            n_routed=self.placement.routes,
            n_placement_hits=self.placement.route_hits,
            n_replications=self.placement.replications,
        )


def serve_requests(requests, **options):
    """One-shot convenience: submit ``requests`` to a fresh
    ``InferenceService(**options)``, drain, return the outcome."""
    service = InferenceService(**options)
    service.submit_many(requests)
    return service.drain()
