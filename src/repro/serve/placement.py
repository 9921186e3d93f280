"""Placement policies: which instance a sealed batch or a sharded job lands on.

:class:`~repro.serve.service.InferenceService` picks one from
``cache_mode`` at construction — cache-blind :class:`FirstFree` for
``"shared"``/``"partitioned"``, :class:`CacheAffinity` for
``"affinity"`` — and its event loop calls the policy's hooks at fixed
points of every drain; the per-drain counters (``routes``,
``route_hits``, ``replications``) feed its stats. A policy holds the
instance pool and its own state, never the service, so a dropped
service is freed by reference counting alone. Every hook gets queued
requests the service has already resolved, once, at admission, and
reads what it needs from them
(:attr:`~repro.serve.scheduler.QueuedRequest.resolved`): a
single-instance request's ``(accelerator, family, cache key)``, a
sharded job's ``(graph, family)``.
"""

from __future__ import annotations

import itertools
import math

from repro.datasets.registry import dataset_fingerprint
from repro.serve.demand import DemandHistogram

REPLICATE_K = 2
"""How many least-loaded instances (earliest ``free_at``, index
tie-break) receive each replication pass's hot entries."""
DEMAND_HALF_LIFE = 0.05
"""Half-life (simulated seconds) of the per-family demand histogram."""


class FirstFree:
    """Cache-blind placement: the first idle candidate serves.

    Its per-drain counters stay 0: it neither routes by warmth nor
    replicates.
    """

    routes = 0
    route_hits = 0
    replications = 0

    def begin_drain(self):
        """Start a drain (no state to reset)."""

    def arrival(self, item):
        """Observe one admitted queued request (ignored)."""

    def place(self, items, candidates, clock, stream):
        """The instance a sealed batch goes to, or None to wait.

        ``candidates`` are the unclaimed instances, in index order;
        the first one idle at ``clock`` serves.
        """
        for worker in candidates:
            if worker.free_at <= clock:
                return worker
        return None

    def gang_orders(self, free, item):
        """The orders a queued sharded job's gang scan tries: index
        order."""
        return (free,)

    def gang_landed(self, item, gang, clock):
        """Observe a sharded job dispatched on ``gang`` (ignored)."""

    def tick(self, clock):
        """End of one event-loop iteration (nothing to do)."""


class CacheAffinity(FirstFree):
    """Cache-affinity placement over the instances' cache shards.

    ``workers`` is the service's instance pool, each holding its own
    shard; ``shard_entries`` (the service's ``worker_cache_entries``)
    and ``replicate_threshold`` are its replication knobs, and
    :data:`REPLICATE_K` and :data:`DEMAND_HALF_LIFE` fix the rest.
    Decisions emit ``cache.route`` and ``cache.replicate`` events on
    ``tracer``.
    """

    def __init__(self, workers, *, shard_entries, replicate_threshold,
                 tracer):
        self.workers = workers
        self.shard_entries = shard_entries
        self.replicate_threshold = replicate_threshold
        self.tracer = tracer
        self._gang_affinity = {}
        """family -> member indices of the gang that last served it
        (sharded re-landing; persists across drains like the caches)."""
        self._family_keys = {}
        """family -> ordered set (dict) of (fingerprint, config) cache
        keys observed for it — what replication copies around."""
        self._key_family = {}
        """(fingerprint, config) cache key -> its family (the inverse of
        ``_family_keys``): how replica admission prices a victim's
        demand."""
        self._demand = None
        """Per-family demand and the hot set, rebuilt each drain (None
        without replication, its only reader)."""
        self._hot = frozenset()
        """The hot families at the last tick."""
        self._replica_plan = None
        """The (hot families, target instances) the last replication
        pass planned for; a tick that plans the same does nothing."""
        self._free = None
        """Each instance's ``free_at`` when :attr:`_targets` was last
        sorted."""
        self._targets = ((), frozenset())
        """The :data:`REPLICATE_K` earliest-free instances, and the set
        of their indices."""
        self.begin_drain()

    @staticmethod
    def family_of(graph):
        """A graph's family (its dataset fingerprint): what demand,
        replication and gang re-landing are kept per."""
        return dataset_fingerprint(graph)

    def begin_drain(self):
        """Zero the per-drain counters and rebuild the demand histogram:
        each drain restarts the simulated clock, and a counter decayed
        in an earlier epoch would read as infinitely stale. The shards
        and the gang memory persist — that is the warm service."""
        self.routes = 0
        self.route_hits = 0
        self.replications = 0
        if self.replicate_threshold is not None:
            self._demand = DemandHistogram(
                half_life=DEMAND_HALF_LIFE,
                threshold=self.replicate_threshold,
            )
        self._hot = frozenset()
        self._replica_plan = None

    def arrival(self, item):
        """Count one queued request toward its family's demand, at its
        arrival time (nothing to count without replication): the
        family admission resolved it to (``item.resolved[1]``), sharded
        or not."""
        if self._demand is not None:
            self._demand.record(item.resolved[1], item.arrival_time)

    def place(self, items, candidates, clock, stream):
        """Cache-affinity placement for one sealed batch.

        Scores the candidates by warm-entry coverage of the batch's
        (fingerprint, config) keys, as admission resolved them
        (``item.resolved``): how many of them the candidate's shard
        holds. It picks the best-covered *feasible* one — where
        feasible means free now, or freeing early enough that waiting
        for it cannot break the batch's earliest deadline (for SLO-less
        batches the wait is bounded by the scheduler's own EWMA service
        estimate, so a cold idle pool is never left idle for long).
        Ties break toward the earliest-free then lowest-indexed
        instance, and when no warm feasible instance exists the router
        falls back to the first-free rule — so EDF dispatch order
        within a priority class is preserved and a batch is never
        stranded past its deadline waiting for a warm instance. Routing
        is where a key is first registered under its family, for
        replication to copy.
        """
        keys = {}  # an ordered set
        family_keys = self._family_keys
        key_family = self._key_family
        for item in items:
            _accel, family, key = item.resolved
            if key not in key_family:
                key_family[key] = family
                family_keys.setdefault(family, {})[key] = None
            keys[key] = None
        request = items[0].request
        estimate = stream.estimate(request.config, request.a_hops) * len(items)
        deadline = min(item.deadline for item in items)
        best = None
        best_score = None
        best_coverage = 0
        for worker in candidates:
            if worker.free_at > clock:
                # Waiting for a warm instance must be provably safe:
                # with a deadline, its free time + estimated service
                # still meets it; without one, the wait is bounded by
                # one estimated batch service time (0.0 before any
                # observation — i.e. never wait while cold).
                if math.isfinite(deadline):
                    if worker.free_at + estimate > deadline:
                        continue
                elif worker.free_at - clock > estimate:
                    continue
            cache = worker.cache
            coverage = 0
            for key in keys:
                if key in cache:
                    coverage += 1
            if coverage == 0:
                continue
            score = (-coverage, worker.free_at, worker.index)
            if best_score is None or score < best_score:
                best = worker
                best_score = score
                best_coverage = coverage
        warm = best is not None
        if best is None:
            best = super().place(items, candidates, clock, stream)
        if best is None:
            return None
        self.routes += 1
        self.route_hits += int(warm)
        if self.tracer.enabled:
            self.tracer.instant("cache.route", ts=clock, args={
                "seq": items[0].seq,
                "size": len(items),
                "keys": len(keys),
                "worker": best.index,
                "coverage": best_coverage,
                "warm": warm,
                "wait_ms": max(best.free_at - clock, 0.0) * 1e3,
            })
        return best

    def gang_orders(self, free, item):
        """The gang scan's candidate orders: a family served before
        tries its previous gang first. The family is the one the job
        was resolved to at admission (``item.resolved[1]``).

        The remembered members are moved to the front of the free
        order, so a repeat oversized graph re-lands on the instances
        whose shards hold its sharded entry. Feasibility is unchanged —
        the reordered scan admits exactly the same gang sizes, and the
        plain index-ordered scan still runs afterwards as the fallback.
        """
        orders = [free]
        if free:
            remembered = self._gang_affinity.get(item.resolved[1])
            if remembered:
                preferred = [w for w in free if w.index in remembered]
                if preferred and preferred != free[:len(preferred)]:
                    rest = [w for w in free if w.index not in remembered]
                    orders.insert(0, preferred + rest)
        return orders

    def gang_landed(self, item, gang, clock):
        """Remember (and score) the gang a sharded job's family lands
        on: re-landing on the same members means the primary's shard
        already holds the sharded entry."""
        family = item.resolved[1]
        members = tuple(sorted(w.index for w in gang))
        remembered = self._gang_affinity.get(family)
        warm = remembered is not None and members == tuple(
            sorted(remembered)
        )
        self._gang_affinity[family] = tuple(w.index for w in gang)
        self.routes += 1
        self.route_hits += int(warm)
        if self.tracer.enabled:
            self.tracer.instant("cache.route", ts=clock, args={
                "seq": item.seq,
                "sharded": True,
                "members": list(members),
                "warm": warm,
            })

    def _held(self, ranked):
        """``(key, family, entry)`` for each known key of the ``ranked``
        families that some shard holds, in rank order; the entry is the
        first holder's (by instance index)."""
        for family, _heat in ranked:
            for key in self._family_keys.get(family, ()):
                for worker in self.workers:
                    entry = worker.cache.get(key)
                    if entry is not None:
                        yield key, family, entry
                        break

    def tick(self, clock):
        """Copy the hottest warm entries to the least-loaded shards.

        A plan pass (a no-op without ``replicate_threshold``): the
        families whose windowed demand at ``clock`` meets
        ``replicate_threshold`` are ranked hottest first (ties in
        first-observation order), and their known (fingerprint,
        config) keys that some shard holds are taken in that order, up
        to one shard's worth (``shard_entries``; every key when
        unbounded). Each of the :data:`REPLICATE_K` earliest-free
        instances' shards then stores, through
        :meth:`~repro.serve.cache.AutotuneCache.replicate`, only the
        planned keys it lacks. A replica that would evict an entry is
        admitted only if the victim's family has strictly lower
        decayed demand than the replica's (TinyLFU-style admission,
        with the demand histogram as the frequency sketch), so a
        replica never evicts a hotter key. The plan is sticky: a tick
        whose hot set and target set equal the last pass's does
        nothing, so a shard that later evicts a replica gets it back
        only once demand or load moves. Modeled numbers never change
        (a replica only converts a future cold simulation into a warm
        replay).

        A tick pays for what changed since the last one: the histogram
        judges only the families recorded since then that were not hot
        and the hot ones whose predicted crossing has come
        (:meth:`~repro.serve.demand.DemandHistogram.advance`), the
        targets are re-sorted only when some ``free_at`` moved, and
        demand is read only for the hot families and the admission
        victims of a re-plan.
        """
        demand = self._demand
        if demand is None:
            return
        if demand.advance(clock):
            self._hot = frozenset(demand.hot_set)
        if not self._hot:
            self._replica_plan = None
            return
        free = [worker.free_at for worker in self.workers]
        if free != self._free:
            self._free = free
            targets = sorted(
                self.workers, key=lambda w: (w.free_at, w.index)
            )[:REPLICATE_K]
            self._targets = (targets, frozenset(w.index for w in targets))
        targets, target_indices = self._targets
        plan = (self._hot, target_indices)
        if plan == self._replica_plan:
            return
        self._replica_plan = plan
        ranked = demand.ranked()
        replicas = []
        planned = {}  # replica key -> its family
        for key, family, entry in itertools.islice(
            self._held(ranked), self.shard_entries
        ):
            replicas.append((key, entry))
            planned[key] = family
        if not replicas:
            return
        heat = dict(ranked)

        def admit(key, victim):
            victim_demand = demand.demand(self._key_family.get(victim), clock)
            return victim_demand < heat[planned[key]]

        tr = self.tracer
        if tr.enabled:
            # Anchor the replicas' store/evict events at this tick, not
            # at the last-served request's start.
            tr.set_time(clock)
        for worker in targets:
            worker.cache.clock = clock
            pushed = {}
            for key in worker.cache.replicate(replicas, admit=admit):
                family = planned[key]
                pushed[family] = pushed.get(family, 0) + 1
            for family, count in pushed.items():
                self.replications += 1
                if tr.enabled:
                    tr.instant("cache.replicate", ts=clock,
                               lane=worker.cache.lane, args={
                                   "family": str(family)[:24],
                                   "worker": worker.index,
                                   "entries": count,
                               })
