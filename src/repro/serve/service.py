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

Requests whose graph exceeds ``chip_capacity`` run as multi-chip
sharded jobs under a policy of their own, :class:`_ShardedDispatch`,
which a drain builds only when the pool shards. The event loop keeps
the clock, admission, batch cutting and batch dispatch, and calls the
policy at fixed seams, so a batch-only service runs none of its code.
The sharded queue uses EASY-style backfill: when the head job cannot
possibly assemble yet, a later sharded job may run on idle instances
iff it cannot delay the head's planned assembly (screened against its
exact modeled duration). Multi-tenant co-scheduling
(``coschedule=True``) unifies the batch and sharded paths into one
pool: a waiting gang *claims* its planned members (claimed instances
finish their current batch and take no new one, so the gang assembles
at a bounded instant instead of racing batch traffic for simultaneous
idleness), requests carry priority classes derived from SLO slack
(``critical_slo_ms``), a deadline-critical batch may *preempt* a
lower-priority sharded job at a layer boundary (the remainder resumes
on the same gang, cycle totals conserved), and concurrent sharded jobs
price their halo traffic on one shared pool fabric (per-link background
loads summing across jobs). It defaults off, and the default service
is bit-identical to the exclusive-gang service.
"""

from __future__ import annotations

import bisect
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from operator import itemgetter

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
from repro.cluster.topology import Topology, subtopology
from repro.errors import CeilingError, ConfigError
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    config_label,
)
from repro.serve.cache import AutotuneCache, OverlayCache
from repro.serve.placement import CacheAffinity, FirstFree
from repro.serve.request import InferenceResult
from repro.serve.scheduler import (
    RequestQueue,
    StreamingScheduler,
    _check_max_batch,
)
from repro.utils.validation import (
    check_bool,
    check_choice,
    check_instance,
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
    is claimed for a batch to the batch's finish. Gang members of a
    sharded job each accrue the full sharded duration."""
    cache: object = None
    """The :class:`AutotuneCache` this instance simulates against: its
    own shard under ``cache_mode`` ``"partitioned"``/``"affinity"``,
    the one cache every instance shares under ``"shared"`` (None when
    the service runs without a cache)."""


def _nearest_rank(ordered, q):
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of values
    already sorted ascending (0.0 when there are none).

    Deterministic and library-independent so golden latency numbers pin
    exactly: the result is always one of the observed values, never an
    interpolation.
    """
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
    def fold(cls, latencies, queues, slo_verdicts):
        """Latency statistics of the served requests, in request order:
        their end-to-end and queueing milliseconds, and the
        met-or-missed verdicts of those that carried an SLO.

        The latencies are sorted once and every percentile is read off
        that order by nearest rank (:func:`_nearest_rank`); the means
        sum in request order.
        """
        ordered = sorted(latencies)
        n = len(ordered)
        return cls(
            n=n,
            p50_ms=_nearest_rank(ordered, 50),
            p95_ms=_nearest_rank(ordered, 95),
            p99_ms=_nearest_rank(ordered, 99),
            mean_ms=sum(latencies) / n if n else 0.0,
            max_ms=ordered[-1] if n else 0.0,
            mean_queue_ms=sum(queues) / len(queues) if queues else 0.0,
            slo_requests=len(slo_verdicts),
            slo_met=sum(1 for met in slo_verdicts if met),
            p999_ms=_nearest_rank(ordered, 99.9),
        )

    @classmethod
    def from_results(cls, results):
        """Fold per-request results into latency statistics.

        Shed requests are excluded — they were never served, so they
        have no latency; the shed rate lives in
        :attr:`ServiceStats.shed_rate`.
        """
        served = [r for r in results if not r.shed]
        return cls.fold(
            [r.e2e_ms for r in served],
            [r.queue_ms for r in served],
            [r.slo_met for r in served if r.slo_ms is not None],
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


def _fold_results(results, **counts):
    """A drain's ``(ServiceStats, LatencyStats)``, folded in one pass
    over its results in request order.

    ``counts`` are the :class:`ServiceStats` fields no result carries
    (``n_batches``, ``wall_seconds`` and the sharded, cache and
    placement counters). Cache, cycle and utilization aggregates, like
    the latencies, cover served requests only: a shed request never
    reached an instance. Each result's end-to-end latency is computed
    once, as :attr:`~repro.serve.request.InferenceResult.e2e_ms` and
    ``slo_met`` compute it. The float means are ``sum()`` over lists in
    request order, so they equal :meth:`LatencyStats.from_results` and
    the per-field folds bit for bit on every Python, including one whose
    ``sum`` compensates.
    """
    n_shed = n_sharded = hits = total_cycles = 0
    makespan = -math.inf
    utils, latencies, queues, verdicts = [], [], [], []
    for result in results:
        if result.shed:
            n_shed += 1
            continue
        if result.n_shards > 1:
            n_sharded += 1
        if result.cache_hit:
            hits += 1
        total_cycles += result.total_cycles
        utils.append(result.utilization)
        arrival = result.arrival_time
        finish = result.finish_time
        if finish > makespan:
            makespan = finish
        e2e_ms = (finish - arrival) * 1e3
        latencies.append(e2e_ms)
        queues.append((result.start_time - arrival) * 1e3)
        slo_ms = result.slo_ms
        if slo_ms is not None:
            verdicts.append(e2e_ms <= slo_ms)
    n_served = len(utils)
    stats = ServiceStats(
        n_requests=len(results),
        cache_hits=hits,
        cache_misses=n_served - hits,
        total_cycles=total_cycles,
        mean_utilization=sum(utils) / n_served if n_served else 0.0,
        makespan_seconds=makespan if n_served else 0.0,
        n_shed=n_shed,
        n_sharded=n_sharded,
        **counts,
    )
    return stats, LatencyStats.fold(latencies, queues, verdicts)


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
        it accumulates this many requests (otherwise batches cut on
        deadline slack or at the end of the stream).
    shed_expired:
        Admission control: shed (reject, with a recorded outcome)
        requests whose deadline has already expired at batch-cut time —
        or by the time their sealed batch reaches an instance, the
        point where queueing under load actually expires deadlines —
        instead of serving them hopelessly late. Shed requests come
        back with ``InferenceResult.shed`` True and zeroed cycle
        fields; the shed rate is reported in
        :attr:`ServiceStats.shed_rate`. Default False keeps the
        historical serve-late behavior bit-for-bit. A bool, as is
        ``coschedule``: the string ``"false"`` raises
        :class:`~repro.errors.ConfigError` rather than switching it on.
    chip_capacity:
        Node-count capacity of every instance (one positive int: the
        pool is uniform). A request whose graph exceeds it is planned
        as a *sharded job*: it gang-schedules the first
        ``ceil(n_nodes / chip_capacity)`` free instances in index order
        (more if the *actual* nnz-balanced plan would overfill a
        member) and executes through the :mod:`repro.cluster`
        multi-chip model at the request's config, with the capacity
        enforced as a hard per-chip row ceiling, occupying every member
        for the sharded duration; the ``AutotuneCache`` is keyed per
        shard. Only a pool-clamped job (a graph even the whole pool
        cannot cover) runs every instance with the capacity as a
        best-effort estimate. None (default) disables sharding —
        oversized graphs run single-instance as before. Sharded jobs
        dispatch earliest-deadline-first with oldest-arrival
        tie-break, which degenerates to FIFO when no request carries an
        ``slo_ms``, through a per-drain :class:`_ShardedDispatch` that
        a service without this knob never builds.
    cluster_options:
        Optional mapping (a dict; a string or a list of pairs raises
        :class:`~repro.errors.ConfigError`) of
        :class:`~repro.cluster.ClusterConfig` overrides for sharded
        jobs (e.g. ``link_words_per_cycle``, ``topology``,
        ``overlap``, ``rebalance_signal``); ``n_chips``,
        ``chip``, ``chips`` and ``row_ceilings`` are always derived
        from the job itself, ``topology`` is a kind, since each gang's
        fabric is sized per job, and ``stragglers`` is refused, since
        its chip ids would name gang positions, not instances. An
        unknown key or a bad value raises
        :class:`~repro.errors.ConfigError` here, before any request is
        queued, and so do options without ``chip_capacity``, which no
        job would read.
    coschedule:
        Multi-tenant co-scheduling of batch and sharded traffic.
        Enables (1) *gang claims*: while the head sharded job waits for
        members, its planned instances stop taking new batches at their
        next batch boundary, so the gang assembles at a bounded instant
        instead of racing batch traffic; (2) *priority classes*:
        admission decides each request's class once, via
        :meth:`~repro.serve.request.InferenceRequest.priority_class`,
        and the streaming scheduler and the sharded queue group and
        dispatch class-major (``(class, deadline, arrival)``);
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
        class 0. Without ``coschedule`` nothing would read it, so
        setting it raises :class:`~repro.errors.ConfigError`.
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
        :data:`~repro.serve.placement.DEMAND_HALF_LIFE` window) at
        which a graph family counts as *hot*. Once per event-loop tick
        (:meth:`~repro.serve.placement.CacheAffinity.tick`), hot
        families' warm entries, hottest first and at most one shard's
        worth (``worker_cache_entries``), are replicated to the
        :data:`~repro.serve.placement.REPLICATE_K` least-loaded
        instances, each replica admitted only over an entry of a colder
        family, re-planned only when the hot set or the target
        instances change. None disables replication. Affinity mode
        only: a :class:`~repro.errors.ConfigError` under any other
        ``cache_mode``.
    tracer:
        Optional :class:`~repro.obs.tracer.RecordingTracer` collecting
        the structured event trace of every drain (request span trees,
        batch cuts, gang claims, backfills, preemptions, cache and
        cluster events — all on the simulated clock). None (default)
        uses the zero-overhead :class:`~repro.obs.tracer.NullTracer`;
        anything but a ``NullTracer`` or a ``RecordingTracer`` raises
        :class:`~repro.errors.ConfigError` here, not at the first
        drain.

    Units
    -----
    Two clocks must never mix (see the module docstring). Everything
    scheduling-related — ``arrival_time``, deadlines, ``free_at``,
    the ``start_time``/``finish_time`` of results,
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
                 shed_expired=False, chip_capacity=None,
                 cluster_options=None, coschedule=False,
                 critical_slo_ms=None, cache_mode="shared",
                 worker_cache_entries=None, replicate_threshold=None,
                 tracer=None):
        check_positive_int(n_workers, "n_workers")
        self.tracer = NULL_TRACER if tracer is None else check_instance(
            tracer, (NullTracer, RecordingTracer), "tracer"
        )
        """Event sink (:mod:`repro.obs`): a
        :class:`~repro.obs.tracer.RecordingTracer` collects the span
        tree of every request plus scheduler/cluster/cache events on
        the simulated clock; the default :data:`NULL_TRACER` costs one
        attribute check per hook."""
        self.cache_mode = check_choice(
            cache_mode, ("shared", "partitioned", "affinity"), "cache_mode"
        )
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
            replicate_threshold = check_positive_finite(
                replicate_threshold, "replicate_threshold"
            )
        self.replicate_threshold = replicate_threshold
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
        self.shed_expired = check_bool(shed_expired, "shed_expired")
        if chip_capacity is not None:
            chip_capacity = check_positive_int(chip_capacity, "chip_capacity")
        self.chip_capacity = chip_capacity
        self.cluster_options = {} if cluster_options is None else dict(
            check_instance(cluster_options, Mapping, "cluster_options")
        )
        known = {f.name for f in fields(ClusterConfig)}
        for key in self.cluster_options:
            if key not in known:
                raise ConfigError(
                    f"cluster_options names {key!r}, which is not a "
                    "ClusterConfig field"
                )
        for reserved in ("n_chips", "chip", "chips", "row_ceilings"):
            if reserved in self.cluster_options:
                raise ConfigError(
                    f"cluster_options may not override {reserved!r} "
                    "(derived per sharded job)"
                )
        if "stragglers" in self.cluster_options:
            raise ConfigError(
                "cluster_options may not set 'stragglers': a straggler's "
                "chip id is a member position in one sharded job's gang, "
                "not an instance id, and gangs differ in size"
            )
        if isinstance(self.cluster_options.get("topology"), Topology):
            raise ConfigError(
                "cluster_options needs a topology *kind*: the service "
                "sizes each gang's fabric itself, and a prebuilt "
                "Topology cannot be re-sized"
            )
        self._pool = ClusterConfig(n_chips=n_workers, **self.cluster_options)
        """The ``cluster_options`` cluster at pool size: built here so a
        bad value fails before any request is queued, and the source of
        the pool-wide fabric (:attr:`ClusterConfig.fabric`) co-scheduled
        gangs share."""
        if self.cluster_options and chip_capacity is None:
            raise ConfigError(
                "cluster_options configure sharded jobs, which only "
                "chip_capacity creates; without it they would be ignored"
            )
        self.coschedule = check_bool(coschedule, "coschedule")
        if critical_slo_ms is not None:
            critical_slo_ms = check_positive_finite(
                critical_slo_ms, "critical_slo_ms"
            )
            if not coschedule:
                raise ConfigError(
                    "critical_slo_ms is the class-0 threshold of "
                    "coschedule=True; without co-scheduling it would be "
                    "ignored"
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
                self.workers, shard_entries=worker_cache_entries,
                replicate_threshold=replicate_threshold, tracer=self.tracer,
            )
        else:
            self.placement = FirstFree()
        self._n_batches = 0
        self._accels = {}
        """The accelerator of every key this drain has used: a
        :class:`GcnAccelerator` per (graph, config, a_hops), in its
        ``(accelerator, family, cache key)`` record
        (:meth:`_accel_for`), and a :class:`ShardedAccelerator` per
        (graph, a_hops, config, gang, constrained)
        (:meth:`_sharded_for`)."""
        self._accels_prev = {}
        """The previous drain's accelerators this drain has not used
        yet; dropped at the next drain's start."""

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
        "warm service" the multi-drain pattern models. So does every
        accelerator while consecutive drains use it: a single-instance
        one with its jobs, replay memo and kept cold run (so a key
        evicted in one drain is re-stored, not re-tuned, in the next),
        a sharded graph's on one gang with its plans, halo sets, fabric
        prices, chip accelerators and stored reports. None of this
        host-side state changes a modeled number.

        The loop keeps the clock, admission, batch cutting and batch
        dispatch; oversized requests go to this drain's
        :class:`_ShardedDispatch` (None without ``chip_capacity``).
        A tick pays for its events, not for the pool: it reads the
        scheduler's counts without a call, collects shed members only
        when the service sheds, and checks for a livelock only on a
        tick whose clock did not advance. Two such ticks in a row with
        the same loop state mean no event can ever fire again, and the
        drain raises :class:`RuntimeError` ("serving event loop
        stalled") instead of spinning.
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
        # Every accelerator lives in a one-drain window: this drain
        # starts with exactly the accelerators the last drain used, and
        # drops the rest with their replay memos and cold runs. Each
        # holds its graph, so no key's id(dataset) can be recycled
        # while its entry lives.
        self._accels_prev, self._accels = self._accels, {}
        # Without an explicit batch cap, bound batches so one giant
        # config group still spreads over the whole instance pool (each
        # instance configures once and takes a contiguous share) instead
        # of serializing on instance 0.
        cap = self.max_batch
        if cap is None and len(self.workers) > 1:
            cap = -(-len(queued) // len(self.workers)) or None
        stream = StreamingScheduler(max_batch=cap,
                                    shed_expired=self.shed_expired,
                                    tracer=tr)

        # The scheduler's ready heap is mutated in place, never rebound:
        # the loop reads its length, and the pending count, per tick
        # without a call.
        ready = stream._ready
        shed = self.shed_expired
        results = []
        capacity = self.chip_capacity
        sharding = (None if capacity is None
                    else _ShardedDispatch(self, results))
        clock = 0.0
        i, n = 0, len(queued)
        batches_before = self._n_batches
        placement = self.placement
        placement.begin_drain()
        last_snapshot = None
        started = time.perf_counter()
        while (i < n or stream._pending or ready
               or (sharding is not None and sharding.waiting())):
            if trace:
                tr.set_time(clock)
            # Admit everything that has arrived by now, resolving each
            # request's graph and class once. Size cuts happen inside
            # admit(), in arrival order; graphs over the per-chip
            # capacity divert to the sharded-job queue.
            while i < n and queued[i].request.arrival_time <= clock:
                item = queued[i]
                needs_shards = (capacity is not None
                                and item.request.graph_nodes() > capacity)
                self._resolve(item, needs_shards)
                if trace:
                    args = {
                        "seq": item.seq,
                        "slo_ms": item.request.slo_ms,
                        "sharded": needs_shards,
                    }
                    if item.priority is not None:
                        args["class"] = item.priority
                    tr.instant("request.arrival", ts=item.arrival_time,
                               args=args)
                placement.arrival(item)
                if needs_shards:
                    sharding.admit(item)
                else:
                    stream.admit(item, now=clock)
                i += 1
            # Seal groups whose deadline slack is up.
            stream.cut_due(clock)
            # The arrival stream has ended: nothing more can join a
            # group, so seal the remainder.
            if i >= n:
                stream.flush(now=clock)
            # Record anything admission control shed at the cuts above.
            if shed:
                for item, when in stream.take_shed():
                    results.append((item.seq, self._shed_result(item, when)))
            # Sharded jobs dispatch first. The instances they hold back
            # (the waiting head's gang claim, preempted jobs' resumes)
            # take no new batch.
            claimed = () if sharding is None else sharding.dispatch(clock)
            unclaimed = (
                [w for w in self.workers if w.index not in claimed]
                if claimed else self.workers
            )
            # Hand sealed batches, tightest deadline first (class-major
            # under co-scheduling), to the instance the placement policy
            # picks; a deadline-critical batch with nowhere to go may
            # arm a boundary preemption instead.
            while ready:
                items = stream.peek_ready()
                worker = placement.place(items, unclaimed, clock, stream)
                if worker is None:
                    if sharding is not None:
                        sharding.preempt(items, clock)
                    break
                if sharding is not None:
                    sharding.granted(worker)
                self._serve_batch(stream.pop_ready(), worker, clock,
                                  stream, results)
            if sharding is not None:
                sharding.resume(clock)
            placement.tick(clock)
            if trace:
                tr.counter("service.queue", ts=clock, values={
                    "pending": stream._pending,
                    "ready": len(ready),
                    "sharded": 0 if sharding is None else len(sharding.queue),
                    "active": 0 if sharding is None else len(sharding.active),
                })
            # Advance the clock to the next event: an arrival, a
            # deadline-forced cut, an unclaimed instance freeing up, or
            # one of the sharded policy's events.
            horizon = []
            if i < n:
                horizon.append(queued[i].request.arrival_time)
            if stream._pending:
                horizon.append(stream.next_cut_time())
            if ready:
                if sharding is not None:
                    # Grants and resumes may have moved the claims.
                    claimed = sharding.claimed()
                    unclaimed = [
                        w for w in self.workers if w.index not in claimed
                    ]
                if unclaimed:
                    horizon.append(min(w.free_at for w in unclaimed))
            if sharding is not None:
                sharding.next_events(clock, horizon)
            if not horizon:
                break
            next_clock = min(horizon)
            if next_clock > clock:
                # The clock advanced: this tick made progress, so no
                # livelock snapshot is due.
                clock = next_clock
                last_snapshot = None
                continue
            # Livelock backstop, on a tick whose clock did not advance:
            # two such ticks in a row with identical snapshots of the
            # loop state mean no event can ever fire again — fail loudly
            # instead of spinning (a claimed-worker accounting bug would
            # otherwise hang the caller silently). The clock is the same
            # at both, so the snapshot leaves it out.
            snapshot = (
                i, len(results), len(ready), stream._pending,
                self._n_batches,
                tuple(w.free_at for w in self.workers),
                None if sharding is None else (
                    len(sharding.queue),
                    tuple(entry.preempted for entry in sharding.active),
                ),
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
        results.sort(key=itemgetter(0))
        results = tuple(map(itemgetter(1), results))
        stats, latency = _fold_results(
            results,
            n_batches=self._n_batches - batches_before,
            wall_seconds=wall,
            n_backfilled=0 if sharding is None else sharding.backfills,
            n_preemptions=0 if sharding is None else sharding.preemptions,
            n_evictions=self._evictions_total() - evictions_before,
            n_routed=placement.routes,
            n_placement_hits=placement.route_hits,
            n_replications=placement.replications,
        )
        return ServeOutcome(results=results, stats=stats,
                            workers=tuple(self.workers), latency=latency)

    def _evictions_total(self):
        """Cumulative evictions across the pool's distinct caches."""
        return sum(
            cache.stats.evictions for cache in self._shards or (self.cache,)
            if cache is not None
        )

    def _accel_for(self, request):
        """The ``(accelerator, family, cache key)`` record of a
        request's (dataset, config, a_hops): its one
        :class:`GcnAccelerator`, the graph's placement family and the
        ``(fingerprint, config)`` key the accelerator runs under.

        Placement and serving share the accelerator, so its jobs are
        built once, its replay memo turns every repeat hit on a cache
        entry into a lookup, and every miss after its first is a store
        of the cold run it kept. The family and key are computed once,
        with the accelerator. The drain looks in its own records first,
        then takes one over from the previous drain's; only a key
        neither drain used builds a new accelerator.
        """
        dataset = request.resolve_graph()
        memo_key = (id(dataset), request.config, request.a_hops)
        record = self._accels.get(memo_key)
        if record is not None:
            return record
        record = self._accels_prev.pop(memo_key, None)
        if record is None:
            accel = GcnAccelerator(dataset, request.config,
                                   a_hops=request.a_hops)
            record = (accel, CacheAffinity.family_of(dataset),
                      (accel.fingerprint(), request.config))
        self._accels[memo_key] = record
        return record

    def _resolve(self, item, sharded=False):
        """Resolve a queued request's graph and priority class, once, at
        admission, and write both on the item (``item.resolved``,
        ``item.priority``).

        A single-instance request takes its ``(accelerator, family,
        cache key)`` record from the drain's window
        (:meth:`_accel_for`). A ``sharded`` job takes ``(graph,
        family)``: it runs on a gang's accelerator, which the sharded
        policy looks up per gang. Placement, replication, the sharded
        queue and the serve read the record and never resolve again.
        Under ``coschedule`` the class is the request's
        :meth:`~repro.serve.request.InferenceRequest.priority_class` at
        ``critical_slo_ms``; otherwise it stays None.
        """
        request = item.request
        if sharded:
            graph = request.resolve_graph()
            item.resolved = (graph, CacheAffinity.family_of(graph))
        else:
            item.resolved = self._accel_for(request)
        if self.coschedule:
            item.priority = request.priority_class(self.critical_slo_ms)

    def _sharded_for(self, gang, item, *, constrained=True):
        """The one :class:`ShardedAccelerator` for a queued sharded
        job's graph (resolved at admission, ``item.resolved``) on one
        gang.

        The key — graph, ``a_hops``, request config, the ordered gang
        members and whether the capacity binds as row ceilings — fixes
        every field of the gang's :class:`ClusterConfig`: row ceilings,
        fabric restriction, partition and rebalance settings. Plan
        validation, backfill screens and dispatch of one graph on one
        gang therefore share its plans, halo sets, fabric prices and
        per-chip accelerators.
        It lives in the same one-drain window as :meth:`_accel_for`'s
        records, whose 3-tuple keys cannot equal this 5-tuple.
        The drain looks in its own entries first, then takes one over
        from the previous drain's; only a key neither drain used builds
        a new accelerator. Under ``coschedule`` the gang runs on its
        restriction of the pool fabric (overriding the kind string in
        ``cluster_options``).
        """
        request = item.request
        dataset = item.resolved[0]
        indices = tuple(worker.index for worker in gang)
        key = (id(dataset), request.a_hops, request.config, indices,
               constrained)
        sharded = self._accels.get(key)
        if sharded is not None:
            return sharded
        sharded = self._accels_prev.pop(key, None)
        if sharded is None:
            opts = dict(self.cluster_options)
            if self.coschedule:
                opts["topology"] = subtopology(self._pool.fabric, indices)
            cluster = ClusterConfig(
                n_chips=len(gang), chip=request.config,
                row_ceilings=(
                    (self.chip_capacity,) * len(gang) if constrained else None
                ),
                **opts,
            )
            sharded = ShardedAccelerator(dataset, cluster,
                                         a_hops=request.a_hops)
        self._accels[key] = sharded
        return sharded

    def _shed_result(self, item, when):
        """The recorded outcome of a request shed at simulated ``when``."""
        request = item.request
        if self.tracer.enabled:
            self.tracer.instant("request.shed", ts=when, args={
                "seq": item.seq,
                "slo_ms": request.slo_ms,
                "waited_ms": (when - request.arrival_time) * 1e3,
            })
        # Positional, in field order, as _serve_one builds its result.
        return InferenceResult(
            item.request_id,                        # request_id
            getattr(request.graph, "name", "custom"),  # dataset
            "",                                     # fingerprint
            0,                                      # total_cycles
            0.0,                                    # latency_ms
            0.0,                                    # utilization
            False,                                  # cache_hit
            -1,                                     # worker
            -1,                                     # batch
            0.0,                                    # sim_seconds
            request.arrival_time,                   # arrival_time
            when,                                   # start_time
            when,                                   # finish_time
            request.slo_ms,                         # slo_ms
            True,                                   # shed
        )

    def _serve_batch(self, batch, worker, clock, stream, results):
        """Run one sealed batch back-to-back on one instance.

        With ``shed_expired``, members whose deadline passed while the
        sealed batch queued for an instance are shed at service start —
        the second admission-control point, complementing the
        batch-cut-time check inside the scheduler. An entirely expired
        batch releases the instance untouched (no batch is counted).
        """
        start = max(clock, worker.free_at)
        items = batch.items
        if self.shed_expired:
            live = []
            for item in items:
                if item.deadline < start:
                    results.append((item.seq,
                                    self._shed_result(item, start)))
                else:
                    live.append(item)
            items = tuple(live)
            if not items:
                return
        now = start
        wall_started = time.perf_counter()
        served = []
        for item in items:
            result = self._serve_one(item, batch, worker, now)
            now = result.finish_time
            served.append(result.modeled_seconds)
            results.append((item.seq, result))
        # Every member shares the batch's surface, and nothing reads its
        # estimate while the batch runs: fold the members' times in
        # service order, with one surface lookup.
        stream.observe(batch.config, items[0].request.a_hops, *served)
        elapsed = time.perf_counter() - wall_started
        worker.busy_seconds += elapsed
        worker.free_at = now
        if self.tracer.enabled:
            self.tracer.wall("sim.batch", seconds=elapsed,
                             args={"batch": batch.index})
            self.tracer.span(
                "batch", lane=f"worker{worker.index}",
                start=start, end=now,
                args={
                    "batch": batch.index,
                    "size": len(items),
                    "config": config_label(batch.config),
                    # Always 0.0 (switching is free); kept because the
                    # pinned trace-stream digests hash every arg.
                    "reconfig_s": 0.0,
                },
            )
        # Modeled busy time runs from the moment the instance is
        # claimed to batch finish, as the sharded path charges it.
        worker.modeled_busy_seconds += now - start
        worker.batches_served += 1
        self._n_batches += 1

    def _serve_one(self, item, batch, worker, start):
        """Run one request on one instance and record the outcome.

        The request runs on the accelerator it was resolved to at
        admission (``item.resolved``).
        """
        request = item.request
        tr = self.tracer
        if tr.enabled:
            # Anchor this request's tuner/cache events (the tuner's
            # read off its cold report) at its service start.
            tr.set_time(start)
        started = time.perf_counter()
        accel, _family, (fingerprint, _config) = item.resolved
        cache = worker.cache
        if cache is not None:
            cache.clock = start
        report = accel.run(cache=cache, tracer=tr if tr.enabled else None)
        elapsed = time.perf_counter() - started
        worker.requests_served += 1
        service_seconds = request.config.cycles_to_seconds(
            report.total_cycles
        )
        # Positional, in InferenceResult's field order: calling a class
        # with keywords builds a dict per call for the generated
        # __init__ to unpack, about three times the cost, once per
        # request.
        result = InferenceResult(
            item.request_id,                        # request_id
            accel.name,                             # dataset
            fingerprint,                            # fingerprint
            report.total_cycles,                    # total_cycles
            report.latency_ms,                      # latency_ms
            report.utilization,                     # utilization
            report.cache_hit,                       # cache_hit
            worker.index,                           # worker
            batch.index,                            # batch
            elapsed,                                # sim_seconds
            request.arrival_time,                   # arrival_time
            start,                                  # start_time
            start + service_seconds,                # finish_time
            request.slo_ms,                         # slo_ms
            False,                                  # shed
            1,                                      # n_shards
            item.priority,                          # priority
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


@dataclass
class _ActiveJob:
    """One running (or boundary-preempted) sharded job's live state."""

    seq: int
    slot: int
    """Index of the job's ``(seq, result)`` pair in the drain's result
    list, which a resume replaces. It holds for the whole drain: the
    list only grows until the loop ends."""
    gang: list
    """The member :class:`WorkerState` objects, in gang order."""
    priority: int
    finish: float
    """Projected finish on the simulated clock (updated on resume)."""
    boundaries: list
    """Absolute simulated seconds of the remaining layer boundaries —
    the only instants the job may be preempted at."""
    flows: object = None
    """Per-link halo words (pool link id space) this job keeps on the
    shared fabric per round, or None for single-chip gangs: its
    accelerator's read-only
    :meth:`~repro.cluster.ShardedAccelerator.halo_link_loads`."""
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


class _ShardedDispatch:
    """One drain's sharded-dispatch policy.

    :meth:`InferenceService.drain` builds it only when the pool shards
    (``chip_capacity``) and drops it on return, so it, and nothing that
    outlives a drain, may hold the service. It owns the queue of
    oversized requests and the registry of running jobs (``active``)
    behind claims, preemption and fabric sharing. Only ``coschedule``
    registers a job, so without it every tenant step runs on an empty
    registry.
    """

    def __init__(self, service, results):
        self.service = service
        self.results = results
        """The drain's ``(seq, result)`` list, which a resume patches."""
        self.queue = []
        """``(key, item)`` of every waiting job in key order."""
        self.active = []
        self.reserved = ()
        """The head's claimed members at the last dispatch."""
        self.backfills = 0
        self.preemptions = 0
        self.n_preempted = 0
        """Active jobs preempted and not resumed yet: :meth:`preempt`
        adds one, :meth:`resume` takes one away. While it is 0, no step
        scans ``active`` for a preempted job."""
        self._last_claim = None
        self._plan = None
        """The head's last plan with what it was made from: ``(head,
        resume claims, free_at vector, plan)`` (:meth:`_plan_head`)."""

    def admit(self, item):
        """Queue one oversized request, resolved at admission to its
        graph and family (``item.resolved``) and its priority class
        (``item.priority``).

        The key — class, deadline, arrival sequence — never changes
        while the job waits, so the queue is kept sorted on insertion:
        class-major EDF with oldest-arrival tie-break. Without
        ``coschedule`` every class is None, so the order is plain EDF
        (FIFO when nothing carries an SLO).
        """
        bisect.insort(self.queue,
                      ((item.priority, item.deadline, item.seq), item))

    def waiting(self):
        """Whether a job is queued or waits to resume."""
        return bool(self.queue) or self.n_preempted > 0

    def dispatch(self, clock):
        """Start every job that can start at ``clock``; returns the
        instance indices held back from batch traffic.

        Jobs start in key order whenever enough instances are
        simultaneously idle, each on the lowest-indexed free instances
        that cover its graph (:meth:`_shard_gang`). The head is never
        *delayed*: a blocked head plans its gang on the pool's
        ``free_at`` timeline (EASY reservation), and under
        ``coschedule`` claims the planned members. A later job may
        start only on idle instances where that cannot push the head's
        planned assembly back (:meth:`_backfill`). The held-back
        instances are the head's claim and the preempted jobs' resumes.
        """
        service = self.service
        tr = service.tracer
        if self.active:
            self.active = [
                entry for entry in self.active
                if entry.preempted or entry.finish > clock
            ]
        claims = self._resume_claims()
        reserved = ()
        queue = self.queue
        while queue:
            _key, head = queue[0]
            if service.shed_expired and head.deadline < clock:
                del queue[0]
                self.results.append(
                    (head.seq, service._shed_result(head, clock))
                )
                continue
            free = [w for w in service.workers
                    if w.free_at <= clock and w.index not in claims]
            picked = self._shard_gang(free, head)
            if picked is not None:
                del queue[0]
                self._serve(head, *picked, clock)
                continue
            planned = self._plan_head(head, claims)
            if planned is None:
                break
            t_head, head_gang = planned
            if service.coschedule:
                # Claim the planned members: from now until the gang
                # assembles they take no new batch, so t_head is an
                # upper bound, not a moving target.
                reserved = head_gang
                claim = (head.seq, tuple(sorted(head_gang)))
                if tr.enabled and claim != self._last_claim:
                    self._last_claim = claim
                    tr.instant("gang.claim", ts=clock, args={
                        "seq": head.seq,
                        "members": sorted(head_gang),
                        "ready_at": t_head,
                    })
            if not self._backfill(head, head_gang, t_head, free, clock):
                break
        self.reserved = reserved
        return claims.union(reserved)

    def _backfill(self, head, head_gang, t_head, free, clock):
        """Start the first later job that cannot delay the head's
        planned assembly at ``t_head``; whether one started.

        A candidate either avoids the head's planned members entirely,
        or borrows idle ones when its exact screened duration
        (:meth:`_screen_duration`) proves they are free again in time.
        Only the head may be pool-clamped.
        """
        service = self.service
        queue = self.queue
        unreserved = [w for w in free if w.index not in head_gang]
        for at in range(1, len(queue)):
            _key, cand = queue[at]
            if service.shed_expired and cand.deadline < clock:
                continue
            picked = self._shard_gang(unreserved, cand, clamp=False)
            if picked is None:
                # Reserved instances are idle until t_head; the
                # candidate may borrow them iff its exact modeled
                # duration returns them in time.
                picked = self._shard_gang(free, cand, clamp=False)
                if picked is not None and clock + self._screen_duration(
                    *picked, clock
                ) > t_head:
                    picked = None
            if picked is None:
                continue
            del queue[at]
            gang, sharded = picked
            if service.tracer.enabled:
                service.tracer.instant("backfill", ts=clock, args={
                    "seq": cand.seq,
                    "members": sorted(w.index for w in gang),
                    "head_seq": head.seq,
                })
            self._serve(cand, gang, sharded, clock, backfill=True)
            self.backfills += 1
            return True
        return False

    def _first_gang(self, order, item):
        """``(gang, accelerator)`` for the shortest prefix of ``order``
        a queued sharded job fits on, or None.

        The scan starts at ``ceil(nodes / chip_capacity)`` members,
        which hold the graph on average, but only the very plan the
        sharded run would use — same strategy and block granularity,
        with the capacity as every member's hard row ceiling — proves
        that none overfills. The plan comes from the gang's
        :meth:`InferenceService._sharded_for` accelerator, which
        partitions once while consecutive drains use it (an infeasible
        plan included), so a repeated check is a dict lookup. The
        accelerator that validated the gang is the one it runs on.
        """
        service = self.service
        need = -(-item.request.graph_nodes() // service.chip_capacity)
        for end in range(need, len(order) + 1):
            gang = order[:end]
            sharded = service._sharded_for(gang, item)
            try:
                sharded.plan
            except CeilingError:
                continue
            return gang, sharded
        return None

    def _shard_gang(self, free, item, *, clamp=True):
        """The gang a queued sharded job runs on, with the accelerator
        it runs: ``(gang, accelerator)``, or None.

        The shortest fitting prefix of ``free`` (:meth:`_first_gang`),
        on an accelerator that enforces the capacity as every member's
        hard row ceiling. When the whole pool is free and still holds no
        fitting gang, the job is pool-clamped onto every instance, on an
        unconstrained accelerator (the capacity becomes best-effort —
        the pool physically cannot honor it); otherwise an insufficient
        *free* set returns None and the job waits for more instances to
        idle. ``clamp=False`` disables the pool-clamp fallback — the
        backfill path uses it so only the queue head may ever
        monopolize the whole pool best-effort.

        The placement policy orders the scan
        (:meth:`~repro.serve.placement.FirstFree.gang_orders`): under
        ``cache_mode="affinity"`` a family served before tries its
        previous gang first.
        """
        service = self.service
        for order in service.placement.gang_orders(free, item):
            picked = self._first_gang(order, item)
            if picked is not None:
                return picked
        if clamp and free and len(free) == len(service.workers):
            gang = list(free)
            return gang, service._sharded_for(gang, item, constrained=False)
        return None

    def _planned_gang(self, item, exclude):
        """``(ready_time, member_indices)`` of the head job's plan.

        Scans non-excluded instances in ``free_at`` order (index-stable
        on ties) with :meth:`_first_gang`: at each instant the candidate
        set is exactly the set :meth:`_shard_gang` will see, and whether
        a gang fits depends only on its size (the plan is the same on
        any members), so the returned time is one at which dispatch
        really succeeds — the event loop never advances to a horizon
        that cannot make progress. The fallback (every instance idle)
        is exactly the pool-clamp case, which always dispatches.
        ``exclude`` (the resume claims) shrinks the candidate pool;
        None when no feasible plan exists inside what remains (only
        possible with a non-empty ``exclude``).
        """
        workers = self.service.workers
        eligible = [w for w in workers if w.index not in exclude]
        by_free = sorted(eligible, key=lambda w: w.free_at)
        picked = self._first_gang(by_free, item)
        if picked is not None:
            gang = picked[0]
            return gang[-1].free_at, tuple(w.index for w in gang)
        if len(eligible) == len(workers):
            return by_free[-1].free_at, tuple(w.index for w in workers)
        return None

    def _plan_head(self, head, claims):
        """The queue head's :meth:`_planned_gang` plan, excluding the
        resume ``claims``.

        A plan depends only on the head, the claims and every
        instance's ``free_at``, so while all three are unchanged the
        last plan is reused: a waiting head is planned once, not once
        in :meth:`dispatch` and again in :meth:`next_events`, and not
        again on a later tick that moved none of them.
        """
        free_at = [w.free_at for w in self.service.workers]
        memo = self._plan
        if (memo is not None and memo[0] is head and memo[1] == claims
                and memo[2] == free_at):
            return memo[3]
        planned = self._planned_gang(head, claims)
        self._plan = (head, claims, free_at, planned)
        return planned

    def _screen_duration(self, gang, sharded, clock):
        """Exact modeled duration a sharded dispatch would take *now*.

        Runs the very simulation :meth:`_serve` would run — same gang,
        accelerator (so the same ceilings and fabric restriction) and
        background — against an uncounted
        :class:`~repro.serve.cache.OverlayCache` over the first
        member's cache, whose contents, stats and LRU order stay
        untouched. Because the cache never changes modeled numbers, the
        screened duration equals the dispatched duration exactly; the
        backfill decision is a proof, not an estimate.
        """
        cluster = sharded.cluster
        report = simulate_multichip_gcn(
            sharded, cluster, a_hops=sharded.a_hops,
            cache=OverlayCache(gang[0].cache, counted=False),
            background=self._background(clock),
        )
        return cluster.chip.cycles_to_seconds(report.total_cycles)

    def _background(self, clock):
        """The per-link words the running jobs keep on the pool fabric,
        or None.

        Sums the stored per-round halo flows of every running (not
        preempted, not finished) job. With nothing contending — always
        without ``coschedule`` — it is None, and a job prices exactly
        as on an exclusive fabric.
        """
        flows = [
            entry.flows for entry in self.active
            if not entry.preempted and entry.flows is not None
            and entry.finish > clock
        ]
        return np.sum(flows, axis=0) if flows else None

    def _resume_claims(self):
        """Instance indices reserved for preempted jobs' resumes.

        Every gang member of a preempted job is claimed — it takes no
        new batch, so the resume is never pushed back — except the
        granted instance while its one-batch grant is still open.
        """
        claims = set()
        if not self.n_preempted:
            return claims
        for entry in self.active:
            if entry.preempted:
                for worker in entry.gang:
                    if entry.grant != worker.index or entry.grant_used:
                        claims.add(worker.index)
        return claims

    def claimed(self):
        """The instance indices held back from batch traffic now: the
        resume claims plus the head's claim at the last dispatch."""
        return self._resume_claims().union(self.reserved)

    def granted(self, worker):
        """A batch was dispatched to ``worker``: close the one-batch
        grant it held for a preempted job, if any."""
        if not self.n_preempted:
            return
        for entry in self.active:
            if (entry.preempted and not entry.grant_used
                    and entry.grant == worker.index):
                entry.grant_used = True

    def preempt(self, items, clock):
        """Boundary-preempt one active job for a critical batch.

        Fires only when the pending batch's class is 0
        (deadline-critical) and no unclaimed instance is free. Among
        active lower-priority jobs, picks the one with the earliest
        upcoming layer boundary that beats the batch's natural wait
        (the pool's earliest ``free_at``). The gang frees at that
        boundary; its lowest-indexed member becomes the batch's
        *grant*, the rest stay claimed for the resume. The drain
        re-evaluates once the clock reaches the boundary.
        """
        if not self.active:
            return
        # A batch is priority-pure: the class is in its group key.
        cls = items[0].priority
        if cls != 0:
            return
        service = self.service
        natural = min(worker.free_at for worker in service.workers)
        best = None
        for entry in self.active:
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
            if best is None or boundary < best[0]:
                best = (boundary, entry)
        if best is None:
            return
        boundary, entry = best
        member = min(entry.gang, key=lambda w: w.index)
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
        self.preemptions += 1
        self.n_preempted += 1
        tr = service.tracer
        if tr.enabled:
            tr.instant("preempt", ts=boundary, args={
                "seq": entry.seq,
                "grant": member.index,
                "remaining_ms": entry.remaining * 1e3,
            })
            # The gang frees at the boundary: trim the running spans
            # there; the remainder's spans are re-emitted at resume.
            # _serve recorded them: a service's tracer never changes.
            for span in entry.spans:
                span.dur = max(boundary - span.ts, 0.0)
            entry.svc_span.dur = max(boundary - entry.svc_span.ts, 0.0)

    def resume(self, clock):
        """Resume preempted jobs whose whole gang is idle again.

        Runs *after* the batch loop each iteration, so the granted
        batch dispatches first. The remainder re-occupies the same gang
        for exactly the preserved ``remaining`` seconds (the modeled
        cycle total is conserved — only the timeline stretched), the
        surviving layer boundaries re-anchor at the resume instant, and
        the job's recorded result is patched with the stretched finish
        and its preemption count.
        """
        if not self.n_preempted:
            return
        tr = self.service.tracer
        for entry in self.active:
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
            self.n_preempted -= 1
            entry.resumes += 1
            if tr.enabled:
                lane = f"req/{entry.seq}"
                tr.span(
                    "request.preempted", lane=lane,
                    start=entry.preempt_at, end=clock,
                    args={"seq": entry.seq},
                )
                entry.spans = [
                    tr.span(
                        "sharded.resume", lane=f"worker{w.index}",
                        start=clock, end=finish, args={"seq": entry.seq},
                    )
                    for w in entry.gang
                ]
                entry.svc_span = tr.span(
                    "request.resume", lane=lane, start=clock, end=finish,
                    args={"seq": entry.seq},
                )
                entry.preempt_at = None
                entry.req_span.dur = finish - entry.req_span.ts
                # The recorded completion moves with the stretched
                # timeline, exactly as the result is patched below.
                ev = entry.complete_ev
                ev.ts = finish
                e2e_ms = (finish - ev.args["arrival"]) * 1e3
                ev.args["finish"] = finish
                ev.args["e2e_ms"] = e2e_ms
                if ev.args.get("slo_ms") is not None:
                    ev.args["slo_met"] = e2e_ms <= ev.args["slo_ms"]
                ev.args["preemptions"] = entry.resumes
            results = self.results
            results[entry.slot] = (entry.seq, replace(
                results[entry.slot][1], finish_time=finish,
                preemptions=entry.resumes,
            ))

    def next_events(self, clock, horizon):
        """Add the instants this policy can next make progress at to
        ``horizon``: the head's planned assembly, any instance freeing
        while jobs wait behind the head (a backfill opportunity), and
        each preempted gang coming back together."""
        workers = self.service.workers
        if self.queue:
            _key, head = self.queue[0]
            planned = self._plan_head(head, self._resume_claims())
            if planned is not None:
                horizon.append(planned[0])
            if len(self.queue) > 1:
                busy = [w.free_at for w in workers if w.free_at > clock]
                if busy:
                    horizon.append(min(busy))
        if self.n_preempted:
            for entry in self.active:
                if entry.preempted:
                    horizon.append(max(w.free_at for w in entry.gang))

    def _serve(self, item, gang, sharded, clock, *, backfill=False):
        """Run one queued job as a multi-chip job on ``gang``, on the
        accelerator :meth:`_shard_gang` picked with it.

        All participating instances gang-schedule: service starts at
        ``clock``, when every one of them is idle, and they stay busy
        until the synchronized sharded run finishes. Every chip runs the
        request's config. The first member's cache (the shared one, or
        its shard) is passed down, so each shard's tuning state is
        cached independently.

        Normally ``chip_capacity`` is every member's hard
        :attr:`~repro.cluster.ClusterConfig.row_ceilings` entry in the
        accelerator's cluster — the partitioner and every rebalancing
        migration keep each shard within it. A pool-clamped job's
        accelerator has none (best effort, the pool cannot cover the
        graph).
        """
        service = self.service
        request = item.request
        service.placement.gang_landed(item, gang, clock)
        cluster = sharded.cluster
        background = self._background(clock)
        tr = service.tracer
        if tr.enabled:
            # Anchor the cluster/tuner/cache events of this job at its
            # service start on the simulated clock.
            tr.set_time(clock)
        cache = gang[0].cache
        if cache is not None:
            cache.clock = clock
        wall_started = time.perf_counter()
        report = simulate_multichip_gcn(
            sharded, cluster, a_hops=request.a_hops, cache=cache,
            tracer=tr if tr.enabled else None, background=background,
        )
        elapsed = time.perf_counter() - wall_started
        finish = clock + cluster.chip.cycles_to_seconds(report.total_cycles)
        # Every gang member served the request and was busy for the
        # whole sharded run: the request and batch counts go to each
        # member alike, and the one wall-clock simulation cost is split
        # evenly (the counters then satisfy the gang invariant —
        # identical requests_served/batches_served/modeled_busy_seconds
        # across members, busy_seconds summing to the measured cost —
        # instead of piling requests and wall time onto gang[0]).
        for worker in gang:
            worker.free_at = finish
            worker.requests_served += 1
            worker.busy_seconds += elapsed / len(gang)
            worker.modeled_busy_seconds += finish - clock
            worker.batches_served += 1
        service._n_batches += 1
        # Positional, in field order, as InferenceService._serve_one
        # builds its result.
        result = InferenceResult(
            item.request_id,                        # request_id
            sharded.name,                           # dataset
            f"{item.resolved[1]}@{len(gang)}chips",  # fingerprint
            report.total_cycles,                    # total_cycles
            report.latency_ms,                      # latency_ms
            report.utilization,                     # utilization
            report.cache_hit,                       # cache_hit
            gang[0].index,                          # worker
            -1,                                     # batch
            elapsed,                                # sim_seconds
            request.arrival_time,                   # arrival_time
            clock,                                  # start_time
            finish,                                 # finish_time
            request.slo_ms,                         # slo_ms
            False,                                  # shed
            len(gang),                              # n_shards
            item.priority,                          # priority
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
                    args={"seq": item.seq, "n_shards": len(gang)},
                )
                for w in gang
            ]
            req_span, svc_span, complete_ev = service._trace_completion(
                item, result, {"backfilled": backfill},
            )
        self.results.append((item.seq, result))
        if service.coschedule:
            # Register the job as an active tenant: its layer
            # boundaries are the preemption points, its per-round halo
            # flows the background traffic later jobs price against.
            secs = cluster.chip.cycles_to_seconds
            boundaries = []
            cum = report.migration_cycles
            for layer_cost in report.layer_cycles[:-1]:
                cum += layer_cost
                boundaries.append(clock + secs(cum))
            self.active.append(_ActiveJob(
                seq=item.seq,
                slot=len(self.results) - 1,
                gang=list(gang),
                priority=result.priority,
                finish=finish,
                boundaries=boundaries,
                flows=sharded.halo_link_loads(report.plan),
                spans=member_spans,
                req_span=req_span,
                svc_span=svc_span,
                complete_ev=complete_ev,
            ))


def serve_requests(requests, **options):
    """One-shot convenience: submit ``requests`` to a fresh
    ``InferenceService(**options)``, drain, return the outcome."""
    service = InferenceService(**options)
    service.submit_many(requests)
    return service.drain()
