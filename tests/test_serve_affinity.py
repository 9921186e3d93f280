"""Cache-affinity routing, replication, demand histograms and metadata.

Six contracts pinned here:

* The demand histogram's incrementally kept hot set equals a full
  rescan (``_RescanHistogram``, the histogram it replaced) at every
  tick, and so does its ranking: a hypothesis property drives both
  through random records and ticks, with equal times, ticks at a
  record's own clock and at predicted crossings, records that land on
  the threshold, and long gaps.
* ``cache_mode="shared"`` (the default) is the historical oracle: a
  hypothesis property serves identical traces — batch, streaming and
  mixed/sharded/co-scheduled, at 1/2/4 instances — once with the
  pre-PR call shape and once spelling every new knob's default
  explicitly, and requires bit-identical results, latency traces,
  cache stats and LRU order.
* Affinity routing is an optimization, never a semantics change: it
  only picks among *feasible* instances for the batch EDF already
  chose — a warm instance whose wait would break the batch's deadline
  (or, SLO-less, exceed one estimated service time) is skipped for the
  first-free fallback, so no batch is ever stranded waiting for
  warmth.
* Cache metadata (per-entry hit counts and last-use stamps) rides the
  archive: version-3 archives round-trip it, an archive of any other
  version is refused, and ``merge`` only disturbs the receiver's
  recency order when the incoming duplicate is strictly fresher.
* Hot-entry replication is a sticky, admission-checked plan: at most
  one shard's worth of the hottest keys per pass, a replica never
  evicts a key of a family at least as hot, and an unchanged hot set
  and target set push nothing.
* Every combination of the affinity knobs (shard bound, replication
  threshold, co-scheduling) keeps one result per request,
  cold-run cycles, shard bounds, trace-rebuilt stats and
  traced == untraced timelines over several drains of one service.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import ArchConfig
from repro.accel.gcnaccel import GcnAccelerator
from repro.errors import ConfigError
from repro.obs import RecordingTracer
from repro.obs.views import service_stats_view
from repro.serve import placement
from repro.serve.cache import AutotuneCache
from repro.serve.demand import DemandHistogram
from repro.serve.placement import CacheAffinity, FirstFree
from repro.serve.request import InferenceRequest
from repro.serve.scheduler import QueuedRequest
from repro.serve.service import InferenceService, serve_requests
from repro.serve.traffic import (
    RmatGraphSpec,
    mixed_traffic,
    streaming_traffic,
    synthetic_traffic,
)

CFG = ArchConfig(n_pes=32, hop=1, remote_switching=True)
CFG16 = ArchConfig(n_pes=16, hop=1, remote_switching=True)
TINY = {"f1": 16, "f2": 8, "f3": 4}


def _spec(seed, n_nodes=128):
    return RmatGraphSpec(n_nodes=n_nodes, avg_degree=4, seed=seed, **TINY)


def _accel(seed, n_nodes=128):
    return GcnAccelerator(_spec(seed, n_nodes).build(), CFG)


class _StubStream:
    """A scheduler stand-in exposing only the EWMA estimate."""

    def __init__(self, estimate):
        self._estimate = estimate

    def estimate(self, config, a_hops):
        return self._estimate


def _route(service, items, estimate, *, claimed=frozenset()):
    """Place a sealed batch at clock 0 as the drain does: the items
    resolved as admission resolves them, then the service's placement
    policy over its unclaimed instances, against a scheduler whose
    service estimate is ``estimate``."""
    for item in items:
        service._resolve(item)
    unclaimed = [w for w in service.workers if w.index not in claimed]
    return service.placement.place(
        items, unclaimed, 0.0, _StubStream(estimate),
    )


class TestDemandHistogram:
    def test_decay_halves_per_half_life(self):
        hist = DemandHistogram(half_life=0.1, threshold=1.0)
        for _ in range(4):
            hist.record("fam", 0.0)
        assert hist.demand("fam", 0.0) == 4.0
        assert hist.demand("fam", 0.1) == pytest.approx(2.0)
        assert hist.demand("fam", 0.3) == pytest.approx(0.5)
        assert hist.demand("missing", 0.3) == 0.0

    def test_record_decays_then_accumulates(self):
        hist = DemandHistogram(half_life=0.1, threshold=1.0)
        hist.record("fam", 0.0)
        assert hist.record("fam", 0.1) == pytest.approx(1.5)
        # Reads never advance the decay anchor.
        hist.demand("fam", 99.0)
        assert hist.demand("fam", 0.1) == pytest.approx(1.5)

    def test_hot_threshold_in_first_observation_order(self):
        # One histogram per threshold (the hot set is kept for a fixed
        # one), fed the same observations; the rescanning oracle reads
        # the hot set in first-observation order.
        for threshold, now, hot in ((2.0, 0.0, ["b", "c"]),
                                    (1.4, 0.1, ["b"])):
            hist = DemandHistogram(half_life=0.1, threshold=threshold)
            oracle = _RescanHistogram(half_life=0.1)
            for family, count in (("b", 3), ("a", 1), ("c", 2)):
                for _ in range(count):
                    hist.record(family, 0.0)
                    oracle.record(family, 0.0)
            assert hist.advance(now)
            assert oracle.hot(now, threshold=threshold) == hot
            assert sorted(hist.hot_set, key="bac".index) == hot
            assert [family for family, _ in hist.ranked()] == hot
            assert {family: hist.demand(family, 0.0) for family in "bac"} \
                == oracle.snapshot(0.0) == {"b": 3.0, "a": 1.0, "c": 2.0}
            assert len(hist) == 3 and "a" in hist and "z" not in hist

    def test_half_life_validated(self):
        with pytest.raises(ConfigError):
            DemandHistogram(half_life=0.0, threshold=1.0)
        with pytest.raises(ConfigError):
            DemandHistogram(half_life=-1.0, threshold=1.0)

    def test_threshold_and_time_validated(self):
        for threshold in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                DemandHistogram(threshold=threshold)
        hist = DemandHistogram(threshold=1.0)
        # A record adds one request, so it never lowers demand: the hot
        # set relies on it. Time must not run backwards.
        hist.advance(1.0)
        with pytest.raises(ConfigError, match="must not decrease"):
            hist.advance(0.5)


class _RescanHistogram:
    """The rescanning histogram the incremental hot set replaced, kept
    as its oracle: every read decays every family seen."""

    def __init__(self, *, half_life):
        self.half_life = half_life
        self._families = {}

    def _decayed(self, state, now):
        weight, last = state
        if now <= last:
            return weight
        return weight * 0.5 ** ((now - last) / self.half_life)

    def record(self, family, now):
        now = float(now)
        state = self._families.get(family)
        if state is None:
            state = [0.0, now]
            self._families[family] = state
        state[0] = self._decayed(state, now) + 1.0
        state[1] = max(state[1], now)
        return state[0]

    def hot(self, now, *, threshold):
        """Families whose decayed demand at ``now`` meets ``threshold``,
        in first-observation order."""
        threshold = float(threshold)
        now = float(now)
        return [
            family for family, state in self._families.items()
            if self._decayed(state, now) >= threshold
        ]

    def snapshot(self, now):
        """``{family: decayed demand at now}`` in first-observation
        order."""
        now = float(now)
        return {
            family: self._decayed(state, now)
            for family, state in self._families.items()
        }


_HALF_LIFE = 0.05
_THRESHOLD = 3.0
# Equal times, gaps well inside, at and past the half-life, and gaps of
# tens to thousands of half-lives.
_GAPS = st.sampled_from((0.0, 0.0, 1e-4, 0.01, 0.05, 0.1, 1.0, 100.0)) \
    | st.floats(0.0, 0.3)
# Requests recorded at one instant: one, the threshold's three at once,
# or six (on the threshold again after one half-life).
_COUNTS = st.sampled_from((1, 1, 3, 6)) | st.integers(1, 8)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("record"), st.integers(0, 3), _GAPS, _COUNTS),
    st.tuples(st.just("tick"), _GAPS),
    # A tick at a family's predicted threshold crossing, nudged by a
    # few ulps either way.
    st.tuples(st.just("crossing"), st.integers(0, 3), st.integers(-2, 2)),
), max_size=60)


class TestIncrementalHotSet:
    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS)
    def test_equals_the_rescan_at_every_tick(self, ops):
        hist = DemandHistogram(half_life=_HALF_LIFE, threshold=_THRESHOLD)
        oracle = _RescanHistogram(half_life=_HALF_LIFE)
        now = 0.0
        before = set()
        for op in ops:
            if op[0] == "record":
                _, family, gap, count = op
                now += gap
                for _ in range(count):
                    hist.record(f"f{family}", now)
                    oracle.record(f"f{family}", now)
                continue
            if op[0] == "tick":
                now += op[1]
            else:
                state = oracle._families.get(f"f{op[1]}")
                if state is not None and state[0] >= _THRESHOLD:
                    weight, last = state
                    at = last + _HALF_LIFE * math.log2(weight / _THRESHOLD)
                    for _ in range(abs(op[2])):
                        at = math.nextafter(at, math.copysign(math.inf, op[2]))
                    now = max(now, at)
            changed = hist.advance(now)
            hot = oracle.hot(now, threshold=_THRESHOLD)
            assert set(hist.hot_set) == set(hot)
            # One pending crossing per hot family, none for the rest.
            assert sorted(family for _, _, family in hist._due) \
                == sorted(hot)
            assert changed == (set(hot) != before)
            before = set(hot)
            demand = oracle.snapshot(now)
            ranked = sorted(hot, key=demand.__getitem__, reverse=True)
            assert hist.ranked() == [
                (family, demand[family]) for family in ranked
            ]


class TestCacheMetadata:
    def test_lookup_counts_hits_and_stamps_clock(self):
        cache = AutotuneCache()
        a = _accel(11)
        a.run(cache=cache)
        cache.clock = 2.5
        assert cache.lookup(a.fingerprint(), a.config) is not None
        (info,) = cache.snapshot()
        assert info.fingerprint == a.fingerprint()
        assert info.config == a.config
        assert info.hits == 1 and info.last_used == 2.5
        assert info.key == AutotuneCache.key(a.fingerprint(), a.config)
        # peek is invisible to the metadata too.
        cache.clock = 9.0
        assert cache.peek(a.fingerprint(), a.config) is not None
        (info,) = cache.snapshot()
        assert info.hits == 1 and info.last_used == 2.5

    def test_v3_archive_roundtrips_metadata(self, tmp_path):
        cache = AutotuneCache()
        a, b = _accel(21), _accel(22)
        a.run(cache=cache)
        b.run(cache=cache)
        cache.clock = 4.0
        cache.lookup(a.fingerprint(), a.config)
        path = cache.save(tmp_path / "cache")
        restored = AutotuneCache.load(path)
        assert restored.snapshot() == cache.snapshot()

    def test_v2_archive_is_refused(self, tmp_path):
        cache = AutotuneCache()
        _accel(31).run(cache=cache)
        path = cache.save(tmp_path / "cache")
        # Rewrite the archive as a pre-metadata version-2 index.
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        index = json.loads(bytes(arrays["index"]).decode())
        index["version"] = 2
        for entry in index["entries"]:
            del entry["hits"], entry["last_used"]
        arrays["index"] = np.frombuffer(
            json.dumps(index).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigError,
                           match="unsupported cache archive version 2"):
            AutotuneCache.load(path)

    def test_merge_duplicate_not_fresher_keeps_recency(self):
        left = AutotuneCache()
        a, b = _accel(41), _accel(42)
        a.run(cache=left)
        b.run(cache=left)
        left.lookup(a.fingerprint(), a.config)  # order [b, a], a hits 1
        order = [info.key for info in left.snapshot()]
        donor = AutotuneCache()
        a.run(cache=donor)  # last_used 0.0 — not fresher
        assert left.merge(donor) == 1
        assert [info.key for info in left.snapshot()] == order
        by_key = {info.key: info for info in left.snapshot()}
        key_a = AutotuneCache.key(a.fingerprint(), a.config)
        assert by_key[key_a].hits == 1  # receiver history untouched

    def test_merge_fresher_duplicate_promotes_and_restamps(self):
        left = AutotuneCache()
        a, b, c = _accel(51), _accel(52), _accel(53)
        a.run(cache=left)
        left.clock = 1.0
        left.lookup(a.fingerprint(), a.config)  # a hits 1, stamp 1.0
        b.run(cache=left)
        c.run(cache=left)  # order [a, b, c]
        donor = AutotuneCache()
        donor.clock = 5.0
        a.run(cache=donor)  # last_used 5.0 — strictly fresher
        assert left.merge(donor) == 1
        key = AutotuneCache.key(a.fingerprint(), a.config)
        assert [info.key for info in left.snapshot()][-1] == key
        info = {info.key: info for info in left.snapshot()}[key]
        # Fresher stamp adopted, local hit history carried.
        assert info.last_used == 5.0 and info.hits == 1


class TestAffinityRouting:
    def _service(self, **kwargs):
        kwargs.setdefault("n_workers", 2)
        return InferenceService(cache=True, cache_mode="affinity", **kwargs)

    def _item(self, seed=1, slo_ms=None):
        request = InferenceRequest(
            graph=_spec(seed), config=CFG, arrival_time=0.0, slo_ms=slo_ms
        )
        return QueuedRequest(seq=0, request=request)

    def _warm(self, service, worker_index, item):
        dataset = item.request.resolve_graph()
        accel = GcnAccelerator(dataset, item.request.config)
        accel.run(cache=service.workers[worker_index].cache)

    def test_prefers_free_warm_worker_over_lower_index(self):
        service = self._service()
        item = self._item(slo_ms=50.0)
        self._warm(service, 1, item)
        worker = _route(service, [item], 0.001)
        assert worker is service.workers[1]
        assert service.placement.routes == 1
        assert service.placement.route_hits == 1

    def test_waits_for_busy_warm_worker_within_slack(self):
        service = self._service()
        item = self._item(slo_ms=50.0)  # deadline 0.05
        self._warm(service, 1, item)
        service.workers[1].free_at = 0.01
        worker = _route(service, [item], 0.005)
        assert worker is service.workers[1]  # 0.01 + 0.005 <= 0.05

    def test_never_strands_past_deadline_on_a_warm_worker(self):
        service = self._service()
        item = self._item(slo_ms=5.0)  # deadline 0.005
        self._warm(service, 1, item)
        service.workers[1].free_at = 0.004
        worker = _route(service, [item], 0.002)
        # Waiting would blow the deadline (0.004 + 0.002 > 0.005):
        # EDF feasibility wins, the free cold instance serves now.
        assert worker is service.workers[0]
        assert service.placement.route_hits == 0
        # With every instance busy the router reports none rather than
        # queueing the batch on warmth it cannot safely wait for.
        service.workers[0].free_at = 0.02
        assert _route(service, [item], 0.002) is None

    def test_slo_less_wait_bounded_by_service_estimate(self):
        service = self._service()
        item = self._item()  # no SLO: deadline inf
        self._warm(service, 1, item)
        service.workers[1].free_at = 0.01
        # Wait (0.01) within one estimated service (0.02): warm wins.
        assert _route(service, [item], 0.02) is service.workers[1]
        # Estimate 0.0 — a cold scheduler — means never wait.
        assert _route(service, [item], 0.0) is service.workers[0]

    def test_claimed_workers_skipped(self):
        service = self._service()
        item = self._item(slo_ms=50.0)
        self._warm(service, 1, item)
        worker = _route(service, [item], 0.001, claimed=frozenset({1}))
        assert worker is service.workers[0]

    def test_a_sharded_family_relands_on_its_last_gang(self):
        # Gang memory is kept per family: a job whose graph is another
        # object with the same fingerprint tries the gang the family
        # last ran on first, and landing there again counts as warm.
        service = self._service(n_workers=4, chip_capacity=128)
        graph = _spec(1, n_nodes=256).build()
        twin = dataclasses.replace(graph, name="twin")
        first, again = (
            QueuedRequest(seq=seq, request=InferenceRequest(
                graph=job_graph, config=CFG, arrival_time=0.0,
            ))
            for seq, job_graph in enumerate((graph, twin))
        )
        for item in (first, again):
            service._resolve(item, True)
        assert first.resolved[1] == again.resolved[1]
        workers = service.workers
        policy = service.placement
        policy.gang_landed(first, workers[2:], 0.0)
        assert policy.gang_orders(workers, again) == [
            workers[2:] + workers[:2], workers,
        ]
        policy.gang_landed(again, workers[2:], 1.0)
        assert (policy.routes, policy.route_hits) == (2, 1)

    def test_affinity_changes_no_modeled_number(self):
        requests = streaming_traffic(
            16, arrival_rate=2000.0, slo_ms=50.0, family_size=3, n_nodes=256,
            seed=3, configs=(CFG,), graph_kwargs=TINY,
        )
        blind = serve_requests(
            requests, n_workers=2, cache=True, max_batch=4,
            cache_mode="partitioned",
        )
        affinity = serve_requests(
            requests, n_workers=2, cache=True, max_batch=4,
            cache_mode="affinity", replicate_threshold=2.0,
        )
        assert [r.total_cycles for r in blind.results] == [
            r.total_cycles for r in affinity.results
        ]
        assert [r.shed for r in blind.results] == [
            r.shed for r in affinity.results
        ]
        assert blind.stats.n_batches == affinity.stats.n_batches

    def test_views_rebuild_placement_stats_from_event_stream(self):
        requests = streaming_traffic(
            16, arrival_rate=2000.0, slo_ms=50.0, family_size=3, n_nodes=256,
            seed=3, configs=(CFG,), graph_kwargs=TINY,
        )
        tracer = RecordingTracer()
        outcome = serve_requests(
            requests, n_workers=2, cache=True, max_batch=4,
            cache_mode="affinity", replicate_threshold=2.0, tracer=tracer,
        )
        names = {event.name for event in tracer.events}
        assert {"cache.route", "cache.replicate"} <= names
        view = service_stats_view(
            tracer.events, wall_seconds=outcome.stats.wall_seconds
        )
        assert view == outcome.stats
        assert view.placement_hit_rate == outcome.stats.placement_hit_rate
        assert outcome.stats.n_routed > 0
        assert outcome.stats.n_replications > 0


class TestReplicaAdmission:
    """Hot-entry replication on 2-entry shards, demand set by hand.

    Instance 1 is the only replication target (``REPLICATE_K`` patched
    to 1, every other instance busy); families reach it as warm entries
    served on any shard, with the demand each test gives them.
    """

    @pytest.fixture(autouse=True)
    def _one_target(self, monkeypatch):
        monkeypatch.setattr(placement, "REPLICATE_K", 1)

    def _service(self, n_workers=2):
        service = InferenceService(
            n_workers=n_workers, cache=True, cache_mode="affinity",
            worker_cache_entries=2, replicate_threshold=3.0,
            tracer=RecordingTracer(),
        )
        for worker in service.workers:
            worker.free_at = 0.0 if worker.index == 1 else 1.0
        return service

    def _family(self, service, seed, demand, *, holder, config=CFG):
        """Serve graph ``seed`` on ``holder``'s shard and give its
        family ``demand`` requests at time 0; returns the entry's cache
        key."""
        request = InferenceRequest(graph=_spec(seed), config=config,
                                   arrival_time=0.0)
        item = QueuedRequest(seq=0, request=request)
        # Routing is where the policy learns a family's keys.
        _route(service, [item], 0.0)
        accel, family, key = item.resolved
        accel.run(cache=service.workers[holder].cache)
        for _ in range(int(demand)):
            service.placement._demand.record(family, 0.0)
        return key

    def _stores(self, service, lane="cache/w1"):
        return [e for e in service.tracer.events
                if e.name == "cache.store" and e.lane == lane]

    def test_hot_replica_evicts_a_colder_familys_key(self):
        service = self._service()
        hot = self._family(service, 1, 5.0, holder=0)
        coldest = self._family(service, 2, 1.0, holder=1)
        cold = self._family(service, 3, 2.0, holder=1)
        target = service.workers[1].cache
        service.placement.tick(0.0)
        assert hot in target and cold in target
        assert coldest not in target  # the LRU victim, demand 1 < 5
        assert target.stats.evictions == 1
        assert service.placement.replications == 1

    def test_colder_replica_refused_while_victim_is_hotter(self):
        service = self._service()
        # Target shard, LRU first: the hottest family, then a cold one.
        hottest = self._family(service, 1, 6.0, holder=1)
        cold = self._family(service, 2, 0.0, holder=1)
        warm = self._family(service, 3, 4.0, holder=0)
        target = service.workers[1].cache
        service.tracer.events.clear()
        service.placement.tick(0.0)
        # Storing the warm replica would evict the hottest key at the
        # LRU front (6 >= 4): refused, though a cold key sits behind it.
        assert warm not in target
        assert hottest in target and cold in target
        assert target.stats.evictions == 0
        assert self._stores(service) == []
        assert service.placement.replications == 0

    def test_one_call_stores_at_most_one_shards_worth(self):
        service = self._service(n_workers=3)
        keys = [self._family(service, seed, demand, holder=holder)
                for seed, demand, holder in ((1, 4.0, 0), (2, 7.0, 0),
                                             (3, 5.0, 2), (4, 6.0, 2))]
        target = service.workers[1].cache
        service.tracer.events.clear()
        service.placement.tick(0.0)
        assert len(self._stores(service)) == 2
        # The two hottest families, hottest first.
        assert [info.key for info in target.snapshot()] == [
            keys[1], keys[3]
        ]
        assert target.stats.evictions == 0

    def test_unchanged_hot_and_target_sets_store_nothing(self):
        service = self._service()
        first = self._family(service, 1, 6.0, holder=0)
        second = self._family(service, 2, 5.0, holder=0)
        target = service.workers[1].cache
        service.placement.tick(0.0)
        assert first in target and second in target
        # A serve-path store evicts one replica from the target...
        GcnAccelerator(_spec(3).build(), CFG).run(cache=target)
        assert first not in target
        service.tracer.events.clear()
        # ...but the plan is sticky: same hot set, same target, no
        # re-push.
        service.placement.tick(0.001)
        assert self._stores(service) == []
        assert first not in target
        # Moving the target set re-plans: instance 0 already holds
        # both, and back on instance 1 the evicted replica returns.
        service.workers[0].free_at, service.workers[1].free_at = 0.0, 1.0
        service.placement.tick(0.002)
        assert self._stores(service, lane="cache/w0") == []
        service.workers[0].free_at, service.workers[1].free_at = 1.0, 0.0
        service.placement.tick(0.003)
        assert first in target and second in target

    def test_replicate_event_counts_the_replicas_stored(self):
        service = self._service()
        hot = self._family(service, 1, 6.0, holder=1)
        # One family, two keys (two configs); the budget plans one.
        pair = [self._family(service, 2, 2.0, holder=0),
                self._family(service, 2, 2.0, holder=0, config=CFG16)]
        target = service.workers[1].cache
        service.tracer.events.clear()
        service.placement.tick(0.0)
        (event,) = [e for e in service.tracer.events
                    if e.name == "cache.replicate"]
        assert event.args["worker"] == 1
        assert event.args["entries"] == len(self._stores(service)) == 1
        assert hot in target and pair[0] in target
        assert pair[1] not in target
        assert service.placement.replications == 1


def _trace(kind, seed):
    if kind == "batch":
        return synthetic_traffic(
            8, family_size=2, n_nodes=128, seed=seed, configs=(CFG,),
            graph_kwargs=TINY,
        ), {}
    if kind == "streaming":
        return streaming_traffic(
            8, arrival_rate=800.0, slo_ms=20.0, family_size=2, n_nodes=128,
            seed=seed, configs=(CFG,), graph_kwargs=TINY,
        ), {"max_batch": 4}
    return mixed_traffic(
        8, arrival_rate=1500.0, chip_capacity=256, seed=seed,
        configs=(CFG16,), sharded_nodes=600, sharded_fraction=0.3,
        critical_fraction=0.3, graph_kwargs=TINY,
    ), {"chip_capacity": 256, "coschedule": True, "critical_slo_ms": 1.0}


class TestSharedModeIsTheOracle:
    @settings(max_examples=10, deadline=None)
    @given(
        kind=st.sampled_from(["batch", "streaming", "mixed"]),
        n_workers=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 3),
    )
    def test_default_bit_identical_to_explicit_shared(
        self, kind, n_workers, seed
    ):
        requests, kwargs = _trace(kind, seed)
        oracle_cache, explicit_cache = AutotuneCache(), AutotuneCache()
        # The pre-PR call shape: no affinity-era kwargs at all.
        oracle = serve_requests(
            requests, n_workers=n_workers, cache=oracle_cache, **kwargs
        )
        # Every new knob spelled at its default.
        explicit = serve_requests(
            requests, n_workers=n_workers, cache=explicit_cache,
            cache_mode="shared", worker_cache_entries=None,
            replicate_threshold=None, **kwargs
        )
        for a, b in zip(oracle.results, explicit.results):
            assert a.total_cycles == b.total_cycles
            assert a.start_time == b.start_time
            assert a.finish_time == b.finish_time
            assert a.latency_ms == b.latency_ms
            assert a.cache_hit == b.cache_hit
            assert a.worker == b.worker and a.batch == b.batch
            assert a.shed == b.shed and a.n_shards == b.n_shards
        assert oracle.latency == explicit.latency
        # wall_seconds is host wall-clock — the one legitimately
        # nondeterministic column; everything else must match exactly.
        assert dataclasses.replace(
            oracle.stats, wall_seconds=0.0
        ) == dataclasses.replace(explicit.stats, wall_seconds=0.0)
        assert oracle.stats.n_routed == 0
        assert oracle.stats.placement_hit_rate is None
        assert oracle_cache.stats == explicit_cache.stats
        # Contents, LRU order and per-entry metadata all match.
        assert oracle_cache.snapshot() == explicit_cache.snapshot()


class TestModeKnobs:
    @pytest.mark.parametrize("knob, value, cache_mode, own_mode", [
        ("worker_cache_entries", 8, "shared", "partitioned"),
        ("replicate_threshold", 3.0, "shared", "affinity"),
        ("replicate_threshold", 3.0, "partitioned", "affinity"),
    ])
    def test_knob_outside_its_mode_rejected(self, knob, value, cache_mode,
                                            own_mode):
        # A knob the mode would silently ignore is a config error that
        # names both; the same knob under its own mode is accepted.
        with pytest.raises(ConfigError, match=f"{knob}.*{cache_mode}"):
            InferenceService(cache_mode=cache_mode, **{knob: value})
        service = InferenceService(cache_mode=own_mode, **{knob: value})
        assert getattr(service, knob) == value

    @pytest.mark.parametrize("bad", [0, -1, math.inf, math.nan, "x", "3",
                                     True])
    def test_replicate_threshold_must_be_positive_finite(self, bad):
        # A number in a string or a bool is refused, not coerced.
        with pytest.raises(ConfigError, match="replicate_threshold"):
            InferenceService(cache_mode="affinity", replicate_threshold=bad)

    def test_mode_decides_each_instances_cache_and_the_policy(self):
        shared = InferenceService(n_workers=3)
        assert shared.cache is not None
        assert all(w.cache is shared.cache for w in shared.workers)
        assert type(shared.placement) is FirstFree
        uncached = InferenceService(n_workers=2, cache=None)
        assert all(w.cache is None for w in uncached.workers)
        for mode, policy in (("partitioned", FirstFree),
                             ("affinity", CacheAffinity)):
            service = InferenceService(n_workers=3, cache_mode=mode,
                                       worker_cache_entries=4)
            assert service.cache is None
            shards = [w.cache for w in service.workers]
            assert len({id(shard) for shard in shards}) == 3
            assert all(shard.max_entries == 4 for shard in shards)
            assert type(service.placement) is policy


_COLD_CYCLES = {}


def _cold_cycles(request):
    """Cache-less cycles of one request's graph (memoized)."""
    key = (request.graph, request.config, request.a_hops)
    if key not in _COLD_CYCLES:
        _COLD_CYCLES[key] = GcnAccelerator(
            request.resolve_graph(), request.config, a_hops=request.a_hops
        ).run().total_cycles
    return _COLD_CYCLES[key]


def _bounded_shards(service):
    """Make every shard check its LRU bound after each store."""
    for worker in service.workers:
        cache = worker.cache
        store = cache.store

        def checked(fingerprint, config, entry, *, _cache=cache,
                    _store=store):
            _store(fingerprint, config, entry)
            bound = _cache.max_entries
            assert bound is None or len(_cache) <= bound

        cache.store = checked


class TestAffinityKnobProduct:
    """Every affinity knob combination, over several drains of one
    service: results, cycles, shard bounds, views and tracing."""

    @settings(max_examples=25, deadline=None)
    @given(
        worker_cache_entries=st.sampled_from([1, 2, 4, None]),
        replicate_threshold=st.sampled_from([1.0, 2.0, 3.0]),
        coschedule=st.booleans(),
        kind=st.sampled_from(["streaming", "mixed"]),
        n_drains=st.integers(2, 3),
        seed=st.integers(0, 3),
    )
    def test_knob_product_keeps_every_contract(
        self, worker_cache_entries, replicate_threshold, coschedule, kind,
        n_drains, seed
    ):
        kwargs = dict(
            n_workers=4, cache=True, max_batch=4, cache_mode="affinity",
            worker_cache_entries=worker_cache_entries,
            replicate_threshold=replicate_threshold,
            coschedule=coschedule,
        )
        if coschedule:
            kwargs["critical_slo_ms"] = 1.0
        if kind == "mixed":
            kwargs["chip_capacity"] = 256
        tracer = RecordingTracer()
        plain = InferenceService(**kwargs)
        traced = InferenceService(tracer=tracer, **kwargs)
        for service in (plain, traced):
            _bounded_shards(service)
        for drain in range(n_drains):
            if kind == "streaming":
                requests = streaming_traffic(
                    12, arrival_rate=4000.0, slo_ms=5.0, n_nodes=128,
                    family_size=6, repeat_alpha=1.2, seed=seed + drain,
                    configs=(CFG,), graph_kwargs=TINY,
                )
            else:
                requests = mixed_traffic(
                    12, arrival_rate=4000.0, chip_capacity=256,
                    seed=seed + drain, configs=(CFG16,), sharded_nodes=600,
                    sharded_fraction=0.2, critical_fraction=0.3,
                    family_size=3, graph_kwargs=TINY,
                )
            ids = plain.submit_many(requests)
            traced.submit_many(requests)
            outcome = plain.drain()
            tracer.events.clear()
            mirrored = traced.drain()
            # Exactly one result per request.
            assert sorted(r.request_id for r in outcome.results) == \
                sorted(ids)
            assert len(outcome.results) == len(requests)
            by_id = {r.request_id: r for r in outcome.results}
            for request_id, request in zip(ids, requests):
                result = by_id[request_id]
                if not result.shed and result.n_shards == 1:
                    assert result.total_cycles == _cold_cycles(request)
            # Tracing never moves the timeline.
            assert [(r.total_cycles, r.start_time, r.finish_time)
                    for r in outcome.results] == [
                (r.total_cycles, r.start_time, r.finish_time)
                for r in mirrored.results
            ]
            assert dataclasses.replace(outcome.stats, wall_seconds=0.0) \
                == dataclasses.replace(mirrored.stats, wall_seconds=0.0)
            # The event stream rebuilds the stats, replications included.
            view = service_stats_view(
                tracer.events, wall_seconds=mirrored.stats.wall_seconds
            )
            assert view == mirrored.stats
            for worker in plain.workers:
                bound = worker.cache.max_entries
                assert bound is None or len(worker.cache) <= bound
