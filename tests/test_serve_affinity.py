"""Cache-affinity routing, demand histograms and cache metadata.

Three contracts pinned here:

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
  first-free fallback, so no batch is ever stranded waiting for warmth.
* Cache metadata (per-entry hit counts and last-use stamps) rides the
  archive format compatibly: version-3 archives round-trip it,
  version-2 archives still load cold, and ``merge`` only disturbs the
  receiver's recency order when the incoming duplicate is strictly
  fresher.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import ArchConfig
from repro.accel.gcnaccel import GcnAccelerator
from repro.errors import ConfigError
from repro.obs import RecordingTracer
from repro.obs.views import service_stats_view
from repro.serve.cache import AutotuneCache
from repro.serve.demand import DemandHistogram
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


class TestDemandHistogram:
    def test_decay_halves_per_half_life(self):
        hist = DemandHistogram(half_life=0.1)
        hist.record("fam", 0.0, weight=4.0)
        assert hist.demand("fam", 0.0) == 4.0
        assert hist.demand("fam", 0.1) == pytest.approx(2.0)
        assert hist.demand("fam", 0.3) == pytest.approx(0.5)
        assert hist.demand("missing", 0.3) == 0.0

    def test_record_decays_then_accumulates(self):
        hist = DemandHistogram(half_life=0.1)
        hist.record("fam", 0.0)
        assert hist.record("fam", 0.1) == pytest.approx(1.5)
        # Reads never advance the decay anchor.
        hist.demand("fam", 99.0)
        assert hist.demand("fam", 0.1) == pytest.approx(1.5)

    def test_hot_threshold_in_first_observation_order(self):
        hist = DemandHistogram(half_life=0.1)
        for family, count in (("b", 3), ("a", 1), ("c", 2)):
            for _ in range(count):
                hist.record(family, 0.0)
        assert hist.hot(0.0, threshold=2.0) == ["b", "c"]
        assert hist.hot(0.1, threshold=1.4) == ["b"]
        assert hist.snapshot(0.0) == {"b": 3.0, "a": 1.0, "c": 2.0}
        assert len(hist) == 3 and "a" in hist and "z" not in hist

    def test_half_life_validated(self):
        with pytest.raises(ConfigError):
            DemandHistogram(half_life=0.0)
        with pytest.raises(ConfigError):
            DemandHistogram(half_life=-1.0)


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

    def test_v2_archive_loads_with_cold_metadata(self, tmp_path):
        cache = AutotuneCache()
        a, b = _accel(31), _accel(32)
        a.run(cache=cache)
        b.run(cache=cache)
        cache.clock = 4.0
        cache.lookup(a.fingerprint(), a.config)
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
        restored = AutotuneCache.load(path)
        # Same entries in the same LRU order (lookup promoted a)...
        assert [info.key for info in restored.snapshot()] == [
            info.key for info in cache.snapshot()
        ]
        # ...with metadata defaulting to cold.
        assert all(
            info.hits == 0 and info.last_used == 0.0
            for info in restored.snapshot()
        )

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
        worker = service._route_worker(
            [item], 0.0, 128, frozenset(), _StubStream(0.001)
        )
        assert worker is service.workers[1]
        assert service._drain_routes == 1
        assert service._drain_route_hits == 1

    def test_waits_for_busy_warm_worker_within_slack(self):
        service = self._service()
        item = self._item(slo_ms=50.0)  # deadline 0.05
        self._warm(service, 1, item)
        service.workers[1].free_at = 0.01
        worker = service._route_worker(
            [item], 0.0, 128, frozenset(), _StubStream(0.005)
        )
        assert worker is service.workers[1]  # 0.01 + 0.005 <= 0.05

    def test_never_strands_past_deadline_on_a_warm_worker(self):
        service = self._service()
        item = self._item(slo_ms=5.0)  # deadline 0.005
        self._warm(service, 1, item)
        service.workers[1].free_at = 0.004
        worker = service._route_worker(
            [item], 0.0, 128, frozenset(), _StubStream(0.002)
        )
        # Waiting would blow the deadline (0.004 + 0.002 > 0.005):
        # EDF feasibility wins, the free cold instance serves now.
        assert worker is service.workers[0]
        assert service._drain_route_hits == 0
        # With every instance busy the router reports none rather than
        # queueing the batch on warmth it cannot safely wait for.
        service.workers[0].free_at = 0.02
        assert service._route_worker(
            [item], 0.0, 128, frozenset(), _StubStream(0.002)
        ) is None

    def test_slo_less_wait_bounded_by_service_estimate(self):
        service = self._service()
        item = self._item()  # no SLO: deadline inf
        self._warm(service, 1, item)
        service.workers[1].free_at = 0.01
        # Wait (0.01) within one estimated service (0.02): warm wins.
        assert service._route_worker(
            [item], 0.0, 128, frozenset(), _StubStream(0.02)
        ) is service.workers[1]
        # Estimate 0.0 — a cold scheduler — means never wait.
        assert service._route_worker(
            [item], 0.0, 128, frozenset(), _StubStream(0.0)
        ) is service.workers[0]

    def test_claimed_workers_skipped(self):
        service = self._service()
        item = self._item(slo_ms=50.0)
        self._warm(service, 1, item)
        worker = service._route_worker(
            [item], 0.0, 128, frozenset({1}), _StubStream(0.001)
        )
        assert worker is service.workers[0]

    def test_affinity_changes_no_modeled_number(self):
        requests = streaming_traffic(
            16, arrival_rate=2000.0, slo_ms=50.0, n_graphs=3, n_nodes=256,
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
            16, arrival_rate=2000.0, slo_ms=50.0, n_graphs=3, n_nodes=256,
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


def _trace(kind, seed):
    if kind == "batch":
        return synthetic_traffic(
            8, n_graphs=2, n_nodes=128, seed=seed, configs=(CFG,),
            graph_kwargs=TINY,
        ), {}
    if kind == "streaming":
        return streaming_traffic(
            8, arrival_rate=800.0, slo_ms=20.0, n_graphs=2, n_nodes=128,
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
            replicate_threshold=None, replicate_k=2,
            demand_half_life=0.05, **kwargs
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
