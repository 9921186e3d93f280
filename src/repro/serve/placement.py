"""Placement policies: which instance a sealed batch or a sharded job lands on.

:class:`~repro.serve.service.InferenceService` picks one from
``cache_mode`` at construction — cache-blind :class:`FirstFree` for
``"shared"``/``"partitioned"``, :class:`CacheAffinity` for
``"affinity"`` — and its event loop calls the policy's hooks at fixed
points of every drain; the per-drain counters (``routes``,
``route_hits``, ``replications``) feed its stats. A policy holds the
instance pool and its own state, never the service: a request's cache
key arrives with each :meth:`~FirstFree.place` call (``key_of``), so a
dropped service is freed by reference counting alone.
"""

from __future__ import annotations

import math

from repro.datasets.registry import dataset_fingerprint
from repro.serve.demand import DemandHistogram


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

    def place(self, items, candidates, clock, stream, key_of):
        """The instance a sealed batch goes to, or None to wait.

        ``candidates`` are the unclaimed instances whose capacity fits
        the batch, in index order; the first one idle at ``clock``
        serves.
        """
        for worker in candidates:
            if worker.free_at <= clock:
                return worker
        return None

    def gang_orders(self, free, request):
        """The orders a sharded job's gang scan tries: index order."""
        return (free,)

    def gang_landed(self, item, gang, clock):
        """Observe a sharded job dispatched on ``gang`` (ignored)."""

    def tick(self, clock):
        """End of one event-loop iteration (nothing to do)."""


class CacheAffinity(FirstFree):
    """Cache-affinity placement over the instances' cache shards.

    ``workers`` is the service's instance pool, each holding its own
    shard; ``reconfig_cycles`` prices a configuration switch in the
    routing wait check exactly as dispatch charges it; the rest are the
    service's replication knobs (``shard_entries`` is its
    ``worker_cache_entries``). Decisions emit ``cache.route`` and
    ``cache.replicate`` events on ``tracer``.
    """

    def __init__(self, workers, *, reconfig_cycles, shard_entries,
                 replicate_threshold, replicate_k, demand_half_life,
                 tracer):
        self.workers = workers
        self.reconfig_cycles = reconfig_cycles
        self.shard_entries = shard_entries
        self.replicate_threshold = replicate_threshold
        self.replicate_k = replicate_k
        self.tracer = tracer
        self._demand = DemandHistogram(half_life=demand_half_life)
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
        self._replica_plan = None
        """The (hot families, target instances) the last replication
        pass planned for; a tick that plans the same does nothing."""

    @staticmethod
    def family_of(request):
        """The request's graph family (dataset fingerprint)."""
        return dataset_fingerprint(request.resolve_graph())

    def begin_drain(self):
        """Zero the per-drain counters and rebuild the demand histogram:
        each drain restarts the simulated clock, and a counter decayed
        in an earlier epoch would read as infinitely stale. The shards
        and the gang memory persist — that is the warm service."""
        self.routes = 0
        self.route_hits = 0
        self.replications = 0
        self._demand = DemandHistogram(half_life=self._demand.half_life)
        self._replica_plan = None

    def arrival(self, item):
        """Count one queued request toward its family's demand, at its
        arrival time."""
        self._demand.record(self.family_of(item.request), item.arrival_time)

    def place(self, items, candidates, clock, stream, key_of):
        """Cache-affinity placement for one sealed batch.

        Scores the candidates by warm-entry coverage of the batch's
        (fingerprint, config) keys (``key_of(request)``) and picks the
        best-covered *feasible* one — where feasible means free now,
        or freeing early enough that waiting for it, plus any
        reconfiguration it owes, cannot break the batch's earliest
        deadline (for SLO-less batches the wait is bounded by the
        scheduler's own EWMA service estimate, so a cold idle pool is
        never left idle for long). Ties break toward the earliest-free
        then lowest-indexed instance, and when no warm feasible
        instance exists the router falls back to the first-free rule —
        so EDF dispatch order within a priority class is preserved and
        a batch is never stranded past its deadline waiting for a warm
        instance.
        """
        config = items[0].request.config
        a_hops = items[0].request.a_hops
        keys = {}  # an ordered set
        for item in items:
            key = key_of(item.request)
            family = self.family_of(item.request)
            self._family_keys.setdefault(family, {})[key] = None
            self._key_family[key] = family
            keys[key] = None
        estimate = stream.estimate(config, a_hops) * len(items)
        deadline = min(item.deadline for item in items)
        best = None
        best_score = None
        best_coverage = 0
        for worker in candidates:
            coverage = sum(
                1 for fp, cfg in keys
                if worker.cache.peek(fp, cfg, trace=False) is not None
            )
            if coverage == 0:
                continue
            if worker.free_at > clock:
                # Waiting for this warm instance must be provably
                # safe: with a deadline, start + estimated service
                # still meets it; without one, the wait is bounded by
                # one estimated batch service time (0.0 before any
                # observation — i.e. never wait while cold).
                start = worker.start_after(
                    config, a_hops, max(clock, worker.free_at),
                    self.reconfig_cycles,
                )
                if math.isfinite(deadline):
                    if start + estimate > deadline:
                        continue
                elif worker.free_at - clock > estimate:
                    continue
            score = (-coverage, worker.free_at, worker.index)
            if best_score is None or score < best_score:
                best = worker
                best_score = score
                best_coverage = coverage
        warm = best is not None
        if best is None:
            best = super().place(items, candidates, clock, stream, key_of)
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

    def gang_orders(self, free, request):
        """The gang scan's candidate orders: a family served before
        tries its previous gang first.

        The remembered members are moved to the front of the free
        order, so a repeat oversized graph re-lands on the instances
        whose shards hold its sharded entry. Feasibility is unchanged —
        the reordered scan admits exactly the same gang sizes, and the
        plain index-ordered scan still runs afterwards as the fallback.
        """
        orders = [free]
        if free:
            remembered = self._gang_affinity.get(self.family_of(request))
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
        family = self.family_of(item.request)
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

    def tick(self, clock):
        """Copy the hottest warm entries to the least-loaded shards.

        A plan pass (a no-op without ``replicate_threshold``): the
        families whose windowed demand at ``clock`` meets
        ``replicate_threshold`` are ranked hottest first (ties in
        first-observation order), and their known (fingerprint,
        config) keys that some shard holds are taken in that order, up
        to one shard's worth (``shard_entries``; every key when
        unbounded). Each of the ``replicate_k`` earliest-free
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
        """
        if self.replicate_threshold is None:
            return
        hot = self._demand.hot(clock, threshold=self.replicate_threshold)
        if not hot:
            self._replica_plan = None
            return
        targets = sorted(
            self.workers, key=lambda w: (w.free_at, w.index)
        )[:self.replicate_k]
        plan = (frozenset(hot), frozenset(w.index for w in targets))
        if plan == self._replica_plan:
            return
        self._replica_plan = plan
        demand = self._demand.snapshot(clock)
        planned = {}
        for family in sorted(hot, key=demand.__getitem__, reverse=True):
            for key in self._family_keys.get(family, ()):
                entry = None
                for worker in self.workers:
                    entry = worker.cache.peek(*key, trace=False)
                    if entry is not None:
                        break
                if entry is not None:
                    planned[key] = (family, entry)
        replicas = [(key, entry) for key, (_, entry) in planned.items()]
        if self.shard_entries is not None:
            del replicas[self.shard_entries:]
        if not replicas:
            return

        def admit(key, victim):
            victim_demand = demand.get(self._key_family.get(victim), 0.0)
            return victim_demand < demand[planned[key][0]]

        tr = self.tracer
        if tr.enabled:
            # Anchor the replicas' store/evict events at this tick, not
            # at the last-served request's start.
            tr.set_time(clock)
        for worker in targets:
            worker.cache.clock = clock
            pushed = {}
            for key in worker.cache.replicate(replicas, admit=admit):
                family = planned[key][0]
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
