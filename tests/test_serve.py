"""The batched inference service: scheduler, autotune cache, service."""

import gc
import importlib
import json
import os
import warnings
import weakref
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.accel.gcnaccel as gcnaccel
import repro.serve.service as service_module
from repro.accel import ArchConfig, CachedTuning, GcnAccelerator
from repro.analysis.tracescenarios import trace_scenario
from repro.datasets import dataset_fingerprint, load_dataset
from repro.errors import ConfigError
from repro.obs import RecordingTracer
from repro.serve import (
    AutotuneCache,
    InferenceRequest,
    InferenceService,
    RequestQueue,
    RmatGraphSpec,
    StreamingScheduler,
    serve_requests,
    streaming_traffic,
    synthetic_traffic,
)
from repro.serve.bench import DEFAULT_GRAPH_KWARGS, default_serving_config
from repro.serve.cache import OverlayCache
from repro.serve.request import InferenceResult
from repro.serve.scheduler import Batch, QueuedRequest
from repro.serve.service import _ShardedDispatch
from repro.serve.traffic import clear_graph_cache
from trace_identity import stream_fingerprint

CFG_A = ArchConfig(n_pes=16, hop=1, remote_switching=True)
CFG_B = ArchConfig(n_pes=32, hop=1, remote_switching=True)
SPEC = RmatGraphSpec(n_nodes=384, f1=24, f2=12, f3=4, seed=5)
SPEC2 = RmatGraphSpec(n_nodes=384, f1=24, f2=12, f3=4, seed=6)


def _requests(pattern):
    """Requests with graph SPEC under the configs named by ``pattern``."""
    configs = {"a": CFG_A, "b": CFG_B}
    return [
        InferenceRequest(graph=SPEC, config=configs[token])
        for token in pattern
    ]


class TestRequestQueue:
    def test_assigns_sequential_ids(self):
        queue = RequestQueue()
        ids = queue.submit_many(_requests("aaa"))
        assert ids == [0, 1, 2]
        assert len(queue) == 3

    def test_explicit_id_preserved(self):
        queue = RequestQueue()
        rid = queue.submit(InferenceRequest(
            graph=SPEC, config=CFG_A, request_id="tenant-1/42"
        ))
        assert rid == "tenant-1/42"

    def test_drain_empties_in_arrival_order(self):
        queue = RequestQueue()
        queue.submit_many(_requests("ab"))
        drained = queue.drain()
        assert [q.seq for q in drained] == [0, 1]
        assert len(queue) == 0

    def test_rejects_non_request(self):
        with pytest.raises(ConfigError):
            RequestQueue().submit("not a request")

    def test_submit_keeps_the_callers_requests(self, monkeypatch):
        # Each request was checked when it was built: submit builds no
        # copy, and the id it returns rides on the queued item.
        trace = [
            replace(request, request_id=f"r{i}") if i % 3 == 0 else request
            for i, request in enumerate(streaming_traffic(
                40, arrival_rate=100.0, n_nodes=256, seed=3,
            ))
        ]
        checks = []
        check = InferenceRequest.__post_init__
        monkeypatch.setattr(InferenceRequest, "__post_init__",
                            lambda self: checks.append(self) or check(self))
        queue = RequestQueue()
        ids = queue.submit_many(trace)
        assert checks == []
        assert ids == [
            seq if request.request_id is None else request.request_id
            for seq, request in enumerate(trace)
        ]
        drained = queue.drain()
        assert [item.request_id for item in drained] == ids
        assert all(item.request is request
                   for item, request in zip(drained, trace))


def _offline_batches(queued, *, max_batch=None):
    """Admit a whole queue at once, flush, and pop every batch."""
    stream = StreamingScheduler(max_batch=max_batch)
    for item in queued:
        stream.admit(item)
    stream.flush()
    batches = []
    while len(stream._ready):
        batches.append(stream.pop_ready())
    return batches


class TestSchedulerOrdering:
    """The offline regime (everything queued at t=0, no SLO) batches by
    (config, a_hops), oldest member first — the order the service
    promises for offline traffic."""

    def plan(self, pattern, **kwargs):
        queue = RequestQueue()
        queue.submit_many(_requests(pattern))
        return _offline_batches(queue.drain(), **kwargs)

    def test_groups_by_config(self):
        batches = self.plan("aabba")
        assert len(batches) == 2
        assert [q.seq for q in batches[0].items] == [0, 1, 4]
        assert [q.seq for q in batches[1].items] == [2, 3]

    def test_batches_ordered_by_oldest_member(self):
        # b arrives first even though a has more requests: the b batch
        # must come out first.
        batches = self.plan("baaa")
        assert batches[0].config == CFG_B
        assert batches[1].config == CFG_A

    def test_within_batch_fifo(self):
        batches = self.plan("abababab")
        for batch in batches:
            seqs = [q.seq for q in batch.items]
            assert seqs == sorted(seqs)

    def test_max_batch_splits_in_order(self):
        batches = self.plan("aaaaa", max_batch=2)
        sizes = [len(b) for b in batches]
        assert sizes == [2, 2, 1]
        seqs = [q.seq for b in batches for q in b.items]
        assert seqs == [0, 1, 2, 3, 4]

    def test_a_hops_is_part_of_the_affinity_key(self):
        queue = RequestQueue()
        queue.submit(InferenceRequest(graph=SPEC, config=CFG_A, a_hops=1))
        queue.submit(InferenceRequest(graph=SPEC, config=CFG_A, a_hops=2))
        batches = _offline_batches(queue.drain())
        assert len(batches) == 2

    def test_batch_indices_are_consecutive(self):
        batches = self.plan("abab")
        assert [b.index for b in batches] == [0, 1]


class TestSchedulerValidation:
    def test_rejects_negative_max_batch(self):
        with pytest.raises(ConfigError):
            StreamingScheduler(max_batch=-3)

    def test_rejects_non_int_max_batch(self):
        with pytest.raises(ConfigError):
            StreamingScheduler(max_batch=2.5)

    def test_queue_rejects_non_monotonic_arrivals(self):
        queue = RequestQueue()
        queue.submit(InferenceRequest(
            graph=SPEC, config=CFG_A, arrival_time=2.0
        ))
        with pytest.raises(ConfigError):
            queue.submit(InferenceRequest(
                graph=SPEC, config=CFG_A, arrival_time=1.0
            ))

    def test_queue_accepts_equal_arrivals(self):
        # A burst: several requests sharing one timestamp is legal.
        queue = RequestQueue()
        for _ in range(3):
            queue.submit(InferenceRequest(
                graph=SPEC, config=CFG_A, arrival_time=1.5
            ))
        assert len(queue) == 3


class TestAutotuneCacheLRU:
    def _entry(self):
        return CachedTuning(layers=())

    def _filled(self, max_entries, n):
        cache = AutotuneCache(max_entries=max_entries)
        for i in range(n):
            cache.store(f"g{i}", CFG_A, self._entry())
        return cache

    def test_rejects_bad_bound(self):
        for bad in (0, -1, 1.5, "big"):
            with pytest.raises(ConfigError):
                AutotuneCache(max_entries=bad)

    def test_unbounded_by_default(self):
        cache = self._filled(None, 50)
        assert len(cache) == 50
        assert cache.stats.evictions == 0

    def test_evicts_oldest_first(self):
        cache = self._filled(3, 4)
        assert len(cache) == 3
        assert cache.stats.evictions == 1
        assert AutotuneCache.key("g0", CFG_A) not in cache
        for kept in ("g1", "g2", "g3"):
            assert AutotuneCache.key(kept, CFG_A) in cache

    def test_lookup_refreshes_recency(self):
        cache = self._filled(3, 3)
        # Touch g0: it becomes most-recent, so g1 is evicted next.
        assert cache.lookup("g0", CFG_A) is not None
        cache.store("g3", CFG_A, self._entry())
        assert AutotuneCache.key("g0", CFG_A) in cache
        assert AutotuneCache.key("g1", CFG_A) not in cache

    def test_store_overwrite_refreshes_recency(self):
        cache = self._filled(3, 3)
        cache.store("g0", CFG_A, self._entry())
        cache.store("g3", CFG_A, self._entry())
        assert AutotuneCache.key("g0", CFG_A) in cache
        assert AutotuneCache.key("g1", CFG_A) not in cache

    def test_miss_does_not_refresh(self):
        cache = self._filled(3, 3)
        assert cache.lookup("nope", CFG_A) is None
        cache.store("g3", CFG_A, self._entry())
        assert AutotuneCache.key("g0", CFG_A) not in cache

    def test_clear_resets_evictions(self):
        cache = self._filled(2, 4)
        assert cache.stats.evictions == 2
        cache.clear()
        assert cache.stats.evictions == 0

    def test_bound_holds_under_service_traffic(self):
        # A bounded cache serving more unique (graph, config) pairs than
        # it can hold must keep working — just with more misses.
        cache = AutotuneCache(max_entries=1)
        outcome = serve_requests(_requests("abab"), n_workers=1,
                                 cache=cache, max_batch=1)
        assert len(cache) == 1
        assert cache.stats.evictions >= 1
        assert outcome.stats.n_requests == 4


class TestOverlayCache:
    @pytest.mark.parametrize("counted", [True, False])
    def test_reads_fall_through_and_stores_stay_private(self, counted):
        entry = CachedTuning(layers=())
        shared = AutotuneCache(max_entries=1)
        shared.store("warm", CFG_A, entry)
        tracer = RecordingTracer()
        shared.tracer = tracer
        overlay = OverlayCache(shared, counted=counted)
        assert overlay.lookup("warm", CFG_A) is entry
        assert overlay.lookup("cold", CFG_A) is None
        overlay.store("cold", CFG_A, entry)
        assert overlay.lookup("cold", CFG_A) is entry
        # The store stayed private: the one-entry shared cache kept its
        # entry. Only a counted overlay's shared reads count.
        assert list(shared._entries) == [AutotuneCache.key("warm", CFG_A)]
        assert shared.stats.evictions == 0
        assert shared.stats.lookups == (2 if counted else 0)
        assert [e.name for e in tracer.events] == (
            ["cache.hit", "cache.miss"] if counted
            else ["cache.peek", "cache.peek"]
        )

    def test_without_a_shared_cache(self):
        overlay = OverlayCache(None, counted=True)
        assert overlay.lookup("g", CFG_A) is None
        overlay.store("g", CFG_A, CachedTuning(layers=()))
        assert overlay.lookup("g", CFG_A) is not None


class TestAutotuneCache:
    def test_miss_then_hit(self, tiny_cora):
        cache = AutotuneCache()
        accel = GcnAccelerator(tiny_cora, CFG_A)
        first = accel.run(cache=cache)
        assert not first.cache_hit
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        second = GcnAccelerator(tiny_cora, CFG_A).run(cache=cache)
        assert second.cache_hit
        assert cache.stats.hits == 1
        assert len(cache) == 1

    def test_different_config_is_a_miss(self, tiny_cora):
        cache = AutotuneCache()
        GcnAccelerator(tiny_cora, CFG_A).run(cache=cache)
        report = GcnAccelerator(tiny_cora, CFG_B).run(cache=cache)
        assert not report.cache_hit
        assert len(cache) == 2

    def test_different_graph_is_a_miss(self):
        cache = AutotuneCache()
        GcnAccelerator(SPEC.build(), CFG_A).run(cache=cache)
        report = GcnAccelerator(SPEC2.build(), CFG_A).run(cache=cache)
        assert not report.cache_hit

    def test_hit_is_cycle_identical_to_cold_run(self, tiny_nell):
        # The core soundness property: replaying the cached converged
        # row map must reproduce the cold run bit-for-bit.
        for config in (CFG_A, CFG_B,
                       ArchConfig(n_pes=16, hop=0, remote_switching=False)):
            cache = AutotuneCache()
            cold = GcnAccelerator(tiny_nell, config).run(cache=cache)
            hit = GcnAccelerator(tiny_nell, config).run(cache=cache)
            assert hit.cache_hit
            assert hit.total_cycles == cold.total_cycles
            assert hit.utilization == cold.utilization
            for a, b in zip(cold.spmm_results, hit.spmm_results):
                assert np.array_equal(a.cycles_per_round, b.cycles_per_round)
                assert np.array_equal(a.final_owner, b.final_owner)
                assert a.converged_round == b.converged_round
                assert a.max_queue_backlog == b.max_queue_backlog
                assert a.final_backlog == b.final_backlog
                assert a.total_backlog == b.total_backlog

    def test_incompatible_entry_falls_back_to_cold(self, tiny_cora,
                                                   tiny_nell):
        # A (hypothetical) colliding fingerprint with the wrong shape
        # must not crash the accelerator — it re-runs cold and re-stores.
        cache = AutotuneCache()
        cold = GcnAccelerator(tiny_nell, CFG_A).run()
        wrong_entry = CachedTuning.from_report(cold)
        accel = GcnAccelerator(tiny_cora, CFG_A)
        cache.store(accel.fingerprint(), CFG_A, wrong_entry)
        report = accel.run(cache=cache)
        assert not report.cache_hit
        assert GcnAccelerator(tiny_cora, CFG_A).run(cache=cache).cache_hit

    def test_save_load_round_trip(self, tiny_nell, tmp_path):
        cache = AutotuneCache()
        cold = GcnAccelerator(tiny_nell, CFG_A).run(cache=cache)
        GcnAccelerator(tiny_nell, CFG_B).run(cache=cache)
        path = cache.save(tmp_path / "cache.npz")
        restored = AutotuneCache.load(path)
        assert len(restored) == 2
        hit = GcnAccelerator(tiny_nell, CFG_A).run(cache=restored)
        assert hit.cache_hit
        assert hit.total_cycles == cold.total_cycles
        assert restored.stats.hits == 1

    def test_save_without_suffix_returns_real_path(self, tiny_cora,
                                                   tmp_path):
        cache = AutotuneCache()
        GcnAccelerator(tiny_cora, CFG_A).run(cache=cache)
        # numpy appends .npz to suffix-less paths; save must return the
        # path that actually exists so save -> load round-trips.
        path = cache.save(tmp_path / "autotune")
        assert str(path).endswith(".npz")
        assert AutotuneCache.load(path).stats.entries == 1

    def test_clear(self, tiny_cora):
        cache = AutotuneCache()
        GcnAccelerator(tiny_cora, CFG_A).run(cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0


def _save_one_entry(path, owner):
    cache = AutotuneCache()
    cache.store("g", CFG_A, CachedTuning(layers=((gcnaccel.CachedStage(
        owner=owner, warmup_costs=(),
        converged_round=None, final_backlog=0, total_backlog=0,
    ),),)))
    cache.save(path)


def _truncated(path):
    _save_one_entry(path, np.zeros(64, dtype=np.int64))
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _owner_out_of_range(path):
    # CFG_A has 16 PEs: the first hit on this entry would fail mid-drain.
    _save_one_entry(path, np.full(64, 99, dtype=np.int64))


def _random_bytes(path):
    path.write_bytes(np.random.default_rng(0).bytes(300))


def _empty(path):
    path.write_bytes(b"")


def _without_index(path):
    np.savez_compressed(path, other=np.arange(3))


def _non_json_index(path):
    np.savez_compressed(
        path, index=np.frombuffer(b"not json {", dtype=np.uint8)
    )


def _edited(path, edit):
    # A readable archive whose JSON index or arrays ``edit`` breaks.
    _save_one_entry(path, np.zeros(64, dtype=np.int64))
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    index = json.loads(bytes(arrays.pop("index")).decode())
    edit(index, arrays)
    np.savez_compressed(path, index=np.frombuffer(
        json.dumps(index).encode(), dtype=np.uint8,
    ), **arrays)


def _without_entries(path):
    _edited(path, lambda index, arrays: index.pop("entries"))


def _entry_without_config(path):
    _edited(path, lambda index, arrays: index["entries"][0].pop("config"))


def _unknown_config_field(path):
    _edited(path, lambda index, arrays: index["entries"][0]["config"]
            .update(bogus=1))


def _missing_owner_array(path):
    _edited(path, lambda index, arrays: arrays.pop("e0_s0"))


def _infinite_warmup(path):
    # Python's json reads Infinity; int() of it overflows.
    _edited(path, lambda index, arrays: index["entries"][0]["layers"][0][0]
            .update(warmup=[float("inf")]))


def _infinite_hits(path):
    _edited(path, lambda index, arrays: index["entries"][0]
            .update(hits=float("inf")))


def _nan_last_used(path):
    # A NaN stamp would load, then break merge's freshness comparison.
    _edited(path, lambda index, arrays: index["entries"][0]
            .update(last_used=float("nan")))


@pytest.mark.parametrize("write", [
    _truncated, _random_bytes, _empty, _without_index, _non_json_index,
    _owner_out_of_range, _without_entries, _entry_without_config,
    _unknown_config_field, _missing_owner_array, _infinite_warmup,
    _infinite_hits, _nan_last_used,
])
def test_malformed_archive_load_is_a_config_error(tmp_path, write):
    path = tmp_path / "cache.npz"
    write(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(ConfigError, match="cache.npz"):
            AutotuneCache.load(path)
        # A file the failed load left open warns when it is freed.
        gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []


def test_an_archived_config_is_checked_like_any_other(tmp_path):
    # A fractional MAC depth once loaded and priced every later hit.
    path = tmp_path / "cache.npz"
    _edited(path, lambda index, arrays: index["entries"][0]["config"]
            .update(mac_latency=2.5))
    with pytest.raises(ConfigError,
                       match=r"cache\.npz entry 0 is malformed.*mac_latency"):
        AutotuneCache.load(path)


def _stages(entry):
    return [stage for layer in entry.layers for stage in layer]


def _stage_count(request):
    jobs = GcnAccelerator(request.resolve_graph(), request.config,
                          a_hops=request.a_hops).jobs
    return sum(len(stage_jobs) for stage_jobs in jobs)


@pytest.fixture
def frozen_calls(monkeypatch):
    """Names of the jobs every frozen replay evaluates, in call order."""
    calls = []
    real = gcnaccel.simulate_spmm_frozen

    def counting(job, *args, **kwargs):
        calls.append(job.name)
        return real(job, *args, **kwargs)

    monkeypatch.setattr(gcnaccel, "simulate_spmm_frozen", counting)
    return calls


@pytest.fixture
def matches_calls(monkeypatch):
    """Ids of the entries every ``CachedTuning.matches`` call checks."""
    calls = []
    real = CachedTuning.matches

    def counting(entry, jobs):
        calls.append(id(entry))
        return real(entry, jobs)

    monkeypatch.setattr(CachedTuning, "matches", counting)
    return calls


@pytest.fixture
def tune_calls(monkeypatch):
    """Names of the jobs every cold Eq. 5 run tunes, in call order."""
    calls = []
    real = gcnaccel.simulate_spmm

    def counting(job, *args, **kwargs):
        calls.append(job.name)
        return real(job, *args, **kwargs)

    monkeypatch.setattr(gcnaccel, "simulate_spmm", counting)
    return calls


class TestCacheEntryImmutability:
    def test_mutating_a_cold_report_leaves_the_entry_intact(self):
        # The accelerator keeps its cold run for later misses, so the
        # report's arrays are read-only; had the zeroing below reached
        # the cached maps, this replay would read 13480 cycles.
        cache = AutotuneCache()
        cold = GcnAccelerator(SPEC.build(), CFG_A).run(cache=cache)
        expected = cold.total_cycles
        for result in cold.spmm_results:
            with pytest.raises(ValueError):
                result.final_owner[:] = 0
            with pytest.raises(ValueError):
                result.cycles_per_round[:] = 0
        hit = GcnAccelerator(SPEC.build(), CFG_A).run(cache=cache)
        assert hit.cache_hit
        assert hit.total_cycles == expected

    def test_stage_owner_is_a_read_only_copy(self):
        owner = np.array([0, 1, 1, 0], dtype=np.int64)
        stage = gcnaccel.CachedStage(
            owner=owner, warmup_costs=(), converged_round=None,
            final_backlog=0, total_backlog=0,
        )
        owner[0] = 1
        assert stage.owner.tolist() == [0, 1, 1, 0]
        assert stage.owner.dtype == np.int64
        with pytest.raises(ValueError):
            stage.owner[0] = 1

    @pytest.mark.parametrize("f2, f3, converged", [
        (12, 4, True),
        # Two rounds per stage, at the tuner's patience: it never freezes.
        (2, 2, False),
    ])
    def test_hit_report_round_trips_to_its_entry(self, f2, f3, converged):
        # A replayed unconverged stage must still report tuned=True, or
        # re-extracting it drops the warm-up trace (1253 -> 1067 cycles
        # on the short graph).
        dataset = RmatGraphSpec(n_nodes=384, f1=24, f2=f2, f3=f3,
                                seed=5).build()
        cache = AutotuneCache()
        accel = GcnAccelerator(dataset, CFG_A)
        cold = accel.run(cache=cache)
        entry = cache.peek(accel.fingerprint(), CFG_A)
        hit = GcnAccelerator(dataset, CFG_A).run(cache=cache)
        again = CachedTuning.from_report(hit)
        stages = _stages(entry)
        assert all((s.converged_round is not None) == converged
                   for s in stages)
        for original, extracted in zip(stages, _stages(again), strict=True):
            assert np.array_equal(original.owner, extracted.owner)
            assert original.warmup_costs == extracted.warmup_costs
            assert original.converged_round == extracted.converged_round
            assert original.final_backlog == extracted.final_backlog
            assert original.total_backlog == extracted.total_backlog
        assert all(result.tuned for result in hit.spmm_results)
        restored = AutotuneCache()
        restored.store(accel.fingerprint(), CFG_A, again)
        replayed = GcnAccelerator(dataset, CFG_A).run(cache=restored)
        assert replayed.total_cycles == cold.total_cycles


class TestReplayMemo:
    def test_frozen_calls_per_service_are_keys_times_stages(self,
                                                           frozen_calls):
        keys = ((SPEC, CFG_A, 1), (SPEC2, CFG_A, 1), (SPEC, CFG_B, 2))

        def requests_of(subset):
            return [
                InferenceRequest(graph=graph, config=config, a_hops=hops)
                for graph, config, hops in subset * 3
            ]

        requests = requests_of(keys)
        expected = sum(_stage_count(r) for r in requests[:3])
        service = InferenceService(n_workers=2, cache=AutotuneCache())

        def frozen_per_drain(requests):
            frozen_calls.clear()
            service.submit_many(requests)
            outcome = service.drain()
            return len(frozen_calls), outcome.stats.cache_hits

        # Cold: one tune and two hits per key.
        assert frozen_per_drain(requests)[0] == expected
        for _ in range(2):
            # Warm drains replay nothing: the memo lives on the
            # accelerators earlier drains used.
            assert frozen_per_drain(requests) == (0, len(requests))
        # A key a whole drain leaves out loses its accelerator, so on
        # its return it replays each of its stages once, and only it.
        without_last = requests_of(keys[:2])
        assert frozen_per_drain(without_last) == (0, len(without_last))
        assert frozen_per_drain(requests) == (
            _stage_count(requests[2]), len(requests),
        )

    def test_restored_entry_mid_drain_is_replayed_afresh(self, monkeypatch,
                                                        frozen_calls):
        dataset = SPEC.build()
        static = ArchConfig(n_pes=16, hop=1, remote_switching=False)
        static_report = GcnAccelerator(dataset, static).run()
        other = CachedTuning.from_report(static_report)
        cache = AutotuneCache()
        service = InferenceService(n_workers=1, cache=cache)
        service.submit_many(_requests("a"))
        tuned = service.drain().results[0].total_cycles
        assert tuned != static_report.total_cycles

        lookup = cache.lookup
        lookups = []

        def restore_before_third(fingerprint, config):
            lookups.append(fingerprint)
            if len(lookups) == 3:
                cache.store(fingerprint, config, other)
            return lookup(fingerprint, config)

        monkeypatch.setattr(cache, "lookup", restore_before_third)
        frozen_calls.clear()
        service.submit_many(_requests("aaaa"))
        outcome = service.drain()
        assert [r.total_cycles for r in outcome.results] == (
            [tuned] * 2 + [static_report.total_cycles] * 2
        )
        assert len(frozen_calls) == 2 * _stage_count(_requests("a")[0])

    def test_mismatched_entry_runs_cold_on_every_hit(self, matches_calls,
                                                     frozen_calls):
        # An entry tuned on a smaller graph fails the structural check;
        # it is never replayed, so it is checked again on every hit.
        other = RmatGraphSpec(n_nodes=200, f1=24, f2=12, f3=4, seed=5)
        bad = CachedTuning.from_report(
            GcnAccelerator(other.build(), CFG_A).run()
        )
        dataset = SPEC.build()
        cold = GcnAccelerator(dataset, CFG_A).run()
        accel = GcnAccelerator(dataset, CFG_A)
        cache = AutotuneCache()
        for _ in range(2):
            # The miss stores the good entry; put the bad one back.
            cache.store(accel.fingerprint(), CFG_A, bad)
            report = accel.run(cache=cache)
            assert not report.cache_hit
            assert report.total_cycles == cold.total_cycles
        assert matches_calls == [id(bad)] * 2
        assert frozen_calls == []
        assert accel._replays == {}

    def test_matching_entry_is_checked_once_per_accelerator(
            self, matches_calls):
        dataset = SPEC.build()
        cache = AutotuneCache()
        cold = GcnAccelerator(dataset, CFG_A).run(cache=cache)
        fingerprint = GcnAccelerator(dataset, CFG_A).fingerprint()
        entry = cache.peek(fingerprint, CFG_A)

        def hits(accel, n=4):
            for _ in range(n):
                report = accel.run(cache=cache)
                assert report.cache_hit
                assert report.total_cycles == cold.total_cycles

        accel = GcnAccelerator(dataset, CFG_A)
        hits(accel)
        assert matches_calls == [id(entry)]
        # A fresh accelerator, as in the next drain, checks again.
        hits(GcnAccelerator(dataset, CFG_A))
        assert matches_calls == [id(entry)] * 2
        # So does a different entry object re-stored under the key.
        restored = CachedTuning(layers=entry.layers)
        cache.store(fingerprint, CFG_A, restored)
        hits(accel)
        assert matches_calls == [id(entry)] * 2 + [id(restored)]

    def test_memoized_report_arrays_are_read_only(self, tiny_nell):
        # Every hit on one entry returns the one replayed report, so
        # nothing in it may be writable.
        cache = AutotuneCache()
        accel = GcnAccelerator(tiny_nell, CFG_A)
        accel.run(cache=cache)
        first = accel.run(cache=cache)
        second = accel.run(cache=cache)
        assert first.cache_hit and first is second
        assert isinstance(first.layers, tuple)
        for result in second.spmm_results:
            with pytest.raises(ValueError):
                result.cycles_per_round[0] = 0
            with pytest.raises(ValueError):
                result.final_owner[0] = 0

    def test_out_of_range_owner_raises_on_every_hit(self, tiny_nell):
        cold = GcnAccelerator(tiny_nell, CFG_A).run()
        layers = list(CachedTuning.from_report(cold).layers)
        xw, *rest = layers[0]
        bad_owner = np.full(xw.owner.size, CFG_A.n_pes)
        layers[0] = (replace(xw, owner=bad_owner), *rest)
        accel = GcnAccelerator(tiny_nell, CFG_A)
        cache = AutotuneCache()
        cache.store(accel.fingerprint(), CFG_A,
                    CachedTuning(layers=tuple(layers)))
        for _ in range(2):
            with pytest.raises(ConfigError, match="out of range"):
                accel.run(cache=cache)


def _stage_cycles(report):
    return [result.cycles_per_round.tolist()
            for result in report.spmm_results]


class TestColdMemo:
    def test_tunes_per_service_are_keys_times_stages(self, tune_calls):
        # A one-entry cache alternating two graphs misses on every
        # request; each graph still tunes once for the service's life.
        requests = [InferenceRequest(graph=graph, config=CFG_A)
                    for graph in (SPEC, SPEC2) * 3]
        service = InferenceService(n_workers=1,
                                   cache=AutotuneCache(max_entries=1))
        cycles = []
        tunes = []
        for _ in range(3):
            tune_calls.clear()
            service.submit_many(requests)
            outcome = service.drain()
            assert outcome.stats.cache_hits == 0
            cycles.append([r.total_cycles for r in outcome.results])
            tunes.append(len(tune_calls))
        assert tunes == [2 * _stage_count(requests[0]), 0, 0]
        assert cycles[1] == cycles[0] and cycles[2] == cycles[0]

    def test_repeat_miss_report_equals_a_fresh_cold_run(self, tune_calls):
        dataset = SPEC.build()
        accel = GcnAccelerator(dataset, CFG_A)
        first_cache, second_cache = AutotuneCache(), AutotuneCache()
        accel.run(cache=first_cache)
        stored = first_cache.peek(accel.fingerprint(), CFG_A)
        tune_calls.clear()
        again = accel.run(cache=second_cache)
        assert tune_calls == []
        assert not again.cache_hit
        assert second_cache.stats.misses == 1
        assert second_cache.peek(accel.fingerprint(), CFG_A) is stored
        fresh = GcnAccelerator(dataset, CFG_A).run()
        assert again.total_cycles == fresh.total_cycles
        assert _stage_cycles(again) == _stage_cycles(fresh)
        for result in again.spmm_results:
            with pytest.raises(ValueError):
                result.cycles_per_round[0] = 0
            with pytest.raises(ValueError):
                result.final_owner[0] = 0

    def test_no_cache_tunes_every_request(self, tune_calls):
        stages = _stage_count(_requests("a")[0])
        accel = GcnAccelerator(SPEC.build(), CFG_A)
        accel.run()
        accel.run()
        assert len(tune_calls) == 2 * stages
        tune_calls.clear()
        serve_requests(_requests("aaaa"), n_workers=1, cache=None)
        assert len(tune_calls) == 4 * stages

    def test_no_cache_service_tunes_every_drain(self, tune_calls):
        # Without a cache nothing is kept, so nothing outlives a drain.
        stages = _stage_count(_requests("a")[0])
        service = InferenceService(n_workers=1, cache=None)
        for _ in range(2):
            tune_calls.clear()
            service.submit_many(_requests("aa"))
            service.drain()
            assert len(tune_calls) == 2 * stages

    def test_untraced_run_is_refilled_once_for_a_traced_miss(self,
                                                             tune_calls):
        # The caches trace nothing here, so a miss records exactly the
        # tuner events of a cache-less traced run.
        dataset = SPEC.build()
        want = RecordingTracer()
        GcnAccelerator(dataset, CFG_A).run(tracer=want)
        accel = GcnAccelerator(dataset, CFG_A)
        accel.run(cache=AutotuneCache())
        stages = len(tune_calls) // 2
        assert want.events
        assert accel._cold is not None
        assert accel._cold.events is None
        for _ in range(2):
            got = RecordingTracer()
            accel.run(cache=AutotuneCache(), tracer=got)
            assert stream_fingerprint(got.events) == stream_fingerprint(
                want.events
            )
        assert len(tune_calls) == 3 * stages


class _TuneEveryMiss(GcnAccelerator):
    """The accelerator without a kept cold run: every cache miss drives
    the tuner, straight into the tracer."""

    def run(self, *, cache=None, tracer=None):
        if cache is None:
            return self._run_cold(tracer=tracer)
        fingerprint = self.fingerprint()
        entry = cache.lookup(fingerprint, self.config)
        if entry is not None and entry.matches(self.jobs):
            return self._run_cached(entry)
        report = self._run_cold(tracer=tracer)
        cache.store(fingerprint, self.config,
                    CachedTuning.from_report(report))
        return report


class _FreshAccelService(InferenceService):
    """The no-reuse oracle: a new :class:`_TuneEveryMiss` for every use."""

    def _accel_for(self, request):
        accel = _TuneEveryMiss(request.resolve_graph(), request.config,
                               a_hops=request.a_hops)
        return (accel, dataset_fingerprint(accel.dataset),
                (accel.fingerprint(), request.config))


class _PrefilledService(InferenceService):
    """Keeps each accelerator's cold run untraced the moment it is
    built, so a traced drain has to refill its events."""

    def _accel_for(self, request):
        record = super()._accel_for(request)
        accel = record[0]
        if accel._cold is None:
            accel.run(cache=AutotuneCache())
        return record


def _result_key(result):
    return (
        result.request_id, result.fingerprint, result.total_cycles,
        result.latency_ms, result.utilization, result.cache_hit,
        result.worker, result.batch, result.start_time, result.finish_time,
        result.shed,
    )


def _caches(service):
    if service.cache_mode == "shared":
        return [service.cache]
    return [worker.cache for worker in service.workers]


@settings(max_examples=20, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 1000), min_size=3, max_size=3,
                   unique=True),
    cache_mode=st.sampled_from(("shared", "partitioned", "affinity")),
    entries=st.sampled_from((1, 2, None)),
    traced=st.booleans(),
    prefill=st.booleans(),
)
def test_cold_memo_matches_fresh_accelerator_oracle(seeds, cache_mode,
                                                    entries, traced,
                                                    prefill):
    # Three drains on one service. Every seed draws from the same four
    # graph families, so a later drain mixes keys an earlier drain
    # tuned with new keys: a key the previous drain used keeps its
    # accelerator (replay memo and cold run), and a key absent for a
    # whole drain gets a new one.
    drains = []
    for seed in seeds:
        requests = streaming_traffic(
            14, arrival_rate=3000.0, slo_ms=5.0, n_nodes=256, seed=seed,
            configs=(CFG_A,), repeat_alpha=1.2, family_size=4,
            graph_kwargs={"f1": 16, "f2": 8, "f3": 4},
        )
        for request in requests:
            request.resolve_graph()
        drains.append(requests)
    kwargs = dict(n_workers=2, max_batch=2, cache_mode=cache_mode)
    if cache_mode == "affinity":
        kwargs["replicate_threshold"] = 2.0

    def build(cls, **extra):
        tracer = RecordingTracer() if traced else None
        if cache_mode == "shared":
            cache = AutotuneCache(max_entries=entries)
        else:
            cache = True
            extra["worker_cache_entries"] = entries
        return cls(cache=cache, tracer=tracer, **kwargs, **extra), tracer

    def drain(service, tracer, requests):
        if tracer is not None:
            tracer.events.clear()
        service.submit_many(requests)
        return service.drain()

    memo, got_trace = build(
        _PrefilledService if prefill else InferenceService,
    )
    fresh, want_trace = build(_FreshAccelService)
    for requests in drains:
        got = drain(memo, got_trace, requests)
        want = drain(fresh, want_trace, requests)
        assert [_result_key(r) for r in got.results] == [
            _result_key(r) for r in want.results
        ]
        assert got.latency == want.latency
        assert got.stats.cache_hits == want.stats.cache_hits
        assert got.stats.n_evictions == want.stats.n_evictions
        for mine, theirs in zip(_caches(memo), _caches(fresh), strict=True):
            assert mine.stats == theirs.stats
            assert mine.snapshot() == theirs.snapshot()
        if traced:
            assert stream_fingerprint(got_trace.events) == (
                stream_fingerprint(want_trace.events)
            )


class TestFingerprints:
    def test_dataset_fingerprint_stable_and_distinct(self):
        a = dataset_fingerprint(load_dataset("cora", "tiny", seed=3))
        b = dataset_fingerprint(load_dataset("cora", "tiny", seed=3))
        c = dataset_fingerprint(load_dataset("nell", "tiny", seed=3))
        assert a == b
        assert a != c

    def test_accelerator_fingerprint_covers_a_hops(self, tiny_cora):
        one = GcnAccelerator(tiny_cora, CFG_A, a_hops=1).fingerprint()
        two = GcnAccelerator(tiny_cora, CFG_A, a_hops=2).fingerprint()
        assert one != two


class TestInferenceService:
    def test_results_in_arrival_order_with_hits(self):
        outcome = serve_requests(
            _requests("abababab"), n_workers=2, cache=True
        )
        assert [r.request_id for r in outcome.results] == list(range(8))
        # First request per config is a miss, the rest hit.
        assert [r.cache_hit for r in outcome.results] == (
            [False, False] + [True] * 6
        )
        assert outcome.stats.cache_hits == 6
        assert outcome.stats.n_batches == 2

    def test_cache_disabled_never_hits(self):
        outcome = serve_requests(_requests("aaaa"), cache=None)
        assert outcome.stats.cache_hits == 0
        assert outcome.stats.hit_rate == 0.0

    def test_cached_results_identical_to_uncached(self):
        requests = synthetic_traffic(
            10, family_size=2, n_nodes=384, seed=3,
            configs=(CFG_A,), graph_kwargs={"f1": 24, "f2": 12, "f3": 4},
        )
        cold = serve_requests(requests, cache=None)
        warm = serve_requests(requests, cache=True)
        for a, b in zip(cold.results, warm.results):
            assert a.total_cycles == b.total_cycles
            assert a.utilization == b.utilization

    def test_workers_round_robin_batches(self):
        outcome = serve_requests(_requests("ab"), n_workers=2, cache=True)
        assert {r.worker for r in outcome.results} == {0, 1}
        assert all(w.batches_served == 1 for w in outcome.workers)

    def test_single_config_mix_spreads_over_the_pool(self):
        # One giant config group must not serialize on instance 0: the
        # service splits it so every instance takes a contiguous share.
        outcome = serve_requests(_requests("aaaaaa"), n_workers=3,
                                 cache=True)
        assert {r.worker for r in outcome.results} == {0, 1, 2}
        assert all(w.requests_served == 2 for w in outcome.workers)

    def test_explicit_max_batch_still_wins(self):
        outcome = serve_requests(_requests("aaaa"), n_workers=2,
                                 cache=True, max_batch=4)
        assert {r.worker for r in outcome.results} == {0}

    def test_shared_cache_across_drains(self):
        cache = AutotuneCache()
        service = InferenceService(n_workers=1, cache=cache)
        service.submit_many(_requests("aa"))
        first = service.drain()
        service.submit_many(_requests("aa"))
        second = service.drain()
        assert first.stats.cache_hits == 1
        assert second.stats.cache_hits == 2  # warm from the first drain

    def test_rejects_bad_cache(self):
        with pytest.raises(ConfigError):
            InferenceService(cache="yes please")

    def test_stats_throughput_positive(self):
        outcome = serve_requests(_requests("aa"), cache=True)
        assert outcome.stats.requests_per_second > 0
        assert outcome.stats.total_cycles > 0
        assert 0.0 < outcome.stats.mean_utilization <= 1.0


class TestServiceLifetime:
    """A drained service holds no reference cycle, so dropping it frees
    it by reference counting alone, with the cycle collector off. A
    service that waits for the collector keeps its caches, graphs and
    accelerators alive next to whatever the caller builds next."""

    @staticmethod
    def _freed(requests, n_drains, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            service = InferenceService(**kwargs)
            for _ in range(n_drains):
                service.submit_many(requests)
                service.drain()
            ref = weakref.ref(service)
            del service
            return ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("cache_mode",
                             ["shared", "partitioned", "affinity"])
    def test_every_cache_mode(self, cache_mode, traced):
        requests = streaming_traffic(
            12, arrival_rate=3000.0, slo_ms=5.0, n_nodes=128, seed=3,
            configs=(CFG_A,), repeat_alpha=1.2, family_size=3,
            graph_kwargs={"f1": 16, "f2": 8, "f3": 4},
        )
        kwargs = dict(n_workers=2, max_batch=2, cache_mode=cache_mode)
        if cache_mode == "affinity":
            kwargs["replicate_threshold"] = 1.0
        if traced:
            kwargs["tracer"] = RecordingTracer()
        assert self._freed(requests, 2, **kwargs)

    def test_coscheduled_mixed_drain(self):
        # Gang claims, a backfill and a boundary preemption/resume.
        requests, kwargs = trace_scenario("mixed")
        assert kwargs["coschedule"]
        assert self._freed(requests, 1, **kwargs)


class TestDrainWindow:
    """Single-instance accelerators live in a one-drain window, as the
    sharded ones do (``tests/test_cluster_reuse.py``): each drain keeps
    only those the drain before it used, and each takes its graph,
    replay memo and kept cold run along when it leaves."""

    @staticmethod
    def _round(first_seed, count=3):
        """Requests for ``count`` fresh graphs, one each."""
        return [
            InferenceRequest(graph=RmatGraphSpec(
                n_nodes=128, seed=first_seed + i, f1=16, f2=8, f3=4,
            ), config=CFG_A)
            for i in range(count)
        ]

    def test_the_window_frees_what_traffic_left(self):
        # Four drains of three distinct graphs each: once the graph
        # cache lets go, nothing holds the first two rounds' graphs.
        def service():
            return InferenceService(n_workers=2, cache=AutotuneCache())

        warm = service()
        refs = []
        for round_index in range(4):
            requests = self._round(100 + 3 * round_index)
            refs.append([weakref.ref(r.resolve_graph()) for r in requests])
            warm.submit_many(requests)
            warm.drain()
        clear_graph_cache()
        gc.collect()
        assert all(ref() is None for round_refs in refs[:2]
                   for ref in round_refs)
        # New graphs may get a freed graph's id; each still runs as its
        # own graph.
        requests = self._round(200, 6)
        outcomes = []
        for target in (warm, service()):
            target.submit_many(requests)
            outcomes.append(target.drain())
        got, want = outcomes
        assert [r.total_cycles for r in got.results] == [
            r.total_cycles for r in want.results
        ]
        assert [r.fingerprint for r in got.results] == [
            r.fingerprint for r in want.results
        ]

    @pytest.mark.parametrize("cache_mode", ["shared", "affinity"])
    def test_a_bounded_cache_bounds_the_service(self, cache_mode):
        # Four drains of three fresh graphs each on two-entry caches.
        # An entry the caches evicted lives only while an accelerator in
        # the window keeps it, so nothing holds the first two rounds'.
        kwargs = dict(n_workers=2, max_batch=2)
        if cache_mode == "shared":
            kwargs["cache"] = AutotuneCache(max_entries=2)
        else:
            kwargs.update(cache=True, cache_mode="affinity",
                          worker_cache_entries=2, replicate_threshold=1.0)
        service = InferenceService(**kwargs)
        refs = []
        for round_index in range(4):
            service.submit_many(self._round(300 + 3 * round_index))
            service.drain()
            refs.append([
                weakref.ref(cache.get(info.key))
                for cache in _caches(service) for info in cache.snapshot()
            ])
        clear_graph_cache()
        gc.collect()
        assert refs[0] and refs[1]
        assert all(ref() is None for round_refs in refs[:2]
                   for ref in round_refs)


class TestWarmRequestCost:
    """A warm request is a few dict hits: counted over a second drain
    of repeat traffic, where every request is a cache hit."""

    # Per request: the scheduler group (admit), the accelerator window,
    # and the cache hit's pop, re-insert and metadata read.
    HASHES_PER_REQUEST = 5
    # Per batch: observe's one surface lookup for all its members.
    HASHES_PER_BATCH = 1
    # Per drain: each accelerator key's first use moves its record out
    # of the previous drain's window, and each scheduler group and
    # surface record is made once.
    HASHES_PER_DRAIN = 32

    @staticmethod
    def _warm_service():
        """A service that drained one repeat trace, with the same trace
        queued again: ``(service, requests)``."""
        requests = streaming_traffic(
            500, arrival_rate=20_000.0, slo_ms=5.0, n_nodes=256,
            family_size=8, repeat_alpha=1.1, seed=1,
            configs=(default_serving_config(32),),
            graph_kwargs=DEFAULT_GRAPH_KWARGS,
        )
        service = InferenceService(n_workers=4, cache=True, max_batch=8)
        service.submit_many(requests)
        service.drain()
        service.submit_many(requests)
        return service, requests

    def test_a_warm_request_hashes_its_config_five_times(self, monkeypatch):
        service, requests = self._warm_service()
        calls = {"__hash__": 0, "lookup": 0}

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(ArchConfig, "__hash__")
        counting(AutotuneCache, "lookup")
        outcome = service.drain()
        monkeypatch.undo()
        n = len(requests)
        assert outcome.stats.cache_hits == n
        assert calls["lookup"] == n
        assert calls["__hash__"] <= (
            self.HASHES_PER_REQUEST * n
            + self.HASHES_PER_BATCH * outcome.stats.n_batches
            + self.HASHES_PER_DRAIN
        )

    def test_a_warm_drain_builds_its_records_without_keywords(
            self, monkeypatch):
        # Calling a class with keywords builds a dict per call: every
        # result and batch of a warm drain is built positionally.
        service, requests = self._warm_service()
        built = {InferenceResult: 0, Batch: 0}
        keywords = []

        def recording(cls):
            # __init__, not __new__: a class whose __new__ was set and
            # deleted again rejects constructor arguments from then on.
            real = cls.__init__

            def init(self, *args, **kwargs):
                built[cls] += 1
                if kwargs:
                    keywords.append((cls.__name__, sorted(kwargs)))
                real(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", init)

        for cls in built:
            recording(cls)
        outcome = service.drain()
        monkeypatch.undo()
        assert outcome.stats.cache_hits == len(requests)
        assert built == {InferenceResult: len(requests),
                         Batch: outcome.stats.n_batches}
        assert keywords == []


def _typed(record):
    """Every field of a dataclass record with its value's type, so
    ``True`` and ``1`` or ``False`` and ``0`` differ."""
    return [(f.name, type(getattr(record, f.name)), getattr(record, f.name))
            for f in fields(record)]


class TestRecordFieldOrder:
    """The service builds its per-request records positionally; every
    site must fill each field with what keyword construction names.
    Inputs are distinct per field (by value and type) wherever the site
    takes the field from its inputs."""

    @staticmethod
    def _clock(monkeypatch, *readings):
        ticks = iter(readings)
        monkeypatch.setattr(service_module, "time",
                            SimpleNamespace(perf_counter=lambda: next(ticks)))

    def test_a_served_request(self, monkeypatch):
        service = InferenceService(n_workers=4, cache=None, coschedule=True)
        report = SimpleNamespace(total_cycles=12_345, latency_ms=2.5,
                                 utilization=0.75, cache_hit=True)
        accel = SimpleNamespace(name="graph-x",
                                run=lambda cache, tracer: report)
        item = QueuedRequest(seq=11, request=InferenceRequest(
            graph=SPEC, config=CFG_A, request_id="req-7",
            arrival_time=0.125, slo_ms=7.0, priority=4,
        ))
        item.resolved = (accel, "family", ("fp-x", CFG_A))
        item.priority = item.request.priority_class(service.critical_slo_ms)
        batch = Batch(9, CFG_A, (item,))
        self._clock(monkeypatch, 100.0, 100.5)
        result = service._serve_one(item, batch, service.workers[3], 0.25)
        expected = InferenceResult(
            request_id="req-7", dataset="graph-x", fingerprint="fp-x",
            total_cycles=12_345, latency_ms=2.5, utilization=0.75,
            cache_hit=True, worker=3, batch=9, sim_seconds=0.5,
            arrival_time=0.125, start_time=0.25,
            finish_time=0.25 + CFG_A.cycles_to_seconds(12_345),
            slo_ms=7.0, shed=False, n_shards=1, priority=4, preemptions=0,
        )
        values = [(kind, value) for _name, kind, value in _typed(expected)]
        assert len(set(values)) == len(values)
        assert _typed(result) == _typed(expected)

    def test_a_sharded_job(self, monkeypatch):
        service = InferenceService(n_workers=4, cache=None,
                                   chip_capacity=256, coschedule=True)
        report = SimpleNamespace(
            total_cycles=54_321, latency_ms=3.5, utilization=0.625,
            cache_hit=True, migration_cycles=0, layer_cycles=[54_321],
            plan=None,
        )
        monkeypatch.setattr(service_module, "simulate_multichip_gcn",
                            lambda *args, **kwargs: report)
        sharded = SimpleNamespace(
            name="sharded-x", cluster=SimpleNamespace(chip=CFG_B),
            halo_link_loads=lambda plan: None,
        )
        item = QueuedRequest(seq=5, request=InferenceRequest(
            graph=SPEC, config=CFG_B, request_id="job-5",
            arrival_time=0.0625, slo_ms=9.0, priority=3,
        ))
        item.resolved = (None, "fam")
        item.priority = item.request.priority_class(service.critical_slo_ms)
        results = []
        gang = service.workers[1:3]
        self._clock(monkeypatch, 10.0, 10.75)
        _ShardedDispatch(service, results)._serve(item, gang, sharded, 0.375)
        [(seq, result)] = results
        assert seq == 5
        expected = InferenceResult(
            request_id="job-5", dataset="sharded-x",
            fingerprint="fam@2chips", total_cycles=54_321, latency_ms=3.5,
            utilization=0.625, cache_hit=True, worker=1, batch=-1,
            sim_seconds=0.75, arrival_time=0.0625, start_time=0.375,
            finish_time=0.375 + CFG_B.cycles_to_seconds(54_321),
            slo_ms=9.0, shed=False, n_shards=2, priority=3, preemptions=0,
        )
        values = [(kind, value) for _name, kind, value in _typed(expected)]
        assert len(set(values)) == len(values)
        assert _typed(result) == _typed(expected)

    def test_a_shed_request(self):
        # Only the request's fields and the shed instant vary here; the
        # rest are the shed outcome's constants.
        service = InferenceService(n_workers=1, shed_expired=True)
        item = QueuedRequest(seq=3, request=InferenceRequest(
            graph=SPEC, config=CFG_A, request_id="late-3",
            arrival_time=0.5, slo_ms=0.25,
        ))
        result = service._shed_result(item, 0.875)
        expected = InferenceResult(
            request_id="late-3", dataset=SPEC.name, fingerprint="",
            total_cycles=0, latency_ms=0.0, utilization=0.0,
            cache_hit=False, worker=-1, batch=-1, sim_seconds=0.0,
            arrival_time=0.5, start_time=0.875, finish_time=0.875,
            slo_ms=0.25, shed=True, n_shards=1, priority=None,
            preemptions=0,
        )
        assert _typed(result) == _typed(expected)

    def test_a_popped_batch(self):
        stream = StreamingScheduler(max_batch=2)
        queued = [QueuedRequest(seq=seq, request=InferenceRequest(
            graph=SPEC, config=config, arrival_time=0.0,
        )) for seq, config in enumerate((CFG_A, CFG_A, CFG_B))]
        for item in queued:
            stream.admit(item, now=0.0)
        stream.flush(now=0.0)
        stream.pop_ready()
        batch = stream.pop_ready()
        expected = Batch(index=1, config=CFG_B, items=(queued[2],))
        assert _typed(batch) == _typed(expected)


class TestSyntheticTraffic:
    def test_mix_is_deterministic(self):
        mix1 = synthetic_traffic(8, family_size=3, n_nodes=256, seed=11)
        mix2 = synthetic_traffic(8, family_size=3, n_nodes=256, seed=11)
        assert [r.graph for r in mix1] == [r.graph for r in mix2]

    def test_repeats_graphs(self):
        mix = synthetic_traffic(30, family_size=3, n_nodes=256, seed=11)
        assert len({r.graph for r in mix}) <= 3
        assert len(mix) == 30

    def test_spec_build_memoized(self):
        assert SPEC.build() is SPEC.build()


def _accel(seed):
    return GcnAccelerator(
        RmatGraphSpec(
            n_nodes=256, avg_degree=6, f1=16, f2=8, f3=4, seed=seed
        ).build(),
        CFG_B,
    )


def _entries_equal(a, b):
    """Whether two caches hold identical entries in identical LRU order."""
    if list(a._entries.keys()) != list(b._entries.keys()):
        return False
    for ea, eb in zip(a._entries.values(), b._entries.values()):
        for la, lb in zip(ea.layers, eb.layers):
            for sa, sb in zip(la, lb):
                if not np.array_equal(sa.owner, sb.owner):
                    return False
                if (sa.warmup_costs, sa.converged_round, sa.final_backlog,
                        sa.total_backlog) != (
                        sb.warmup_costs, sb.converged_round,
                        sb.final_backlog, sb.total_backlog):
                    return False
    return True


class TestCachePeekAndMerge:
    def test_peek_has_no_side_effects(self):
        cache = AutotuneCache()
        a, b = _accel(41), _accel(42)
        a.run(cache=cache)
        b.run(cache=cache)
        before = cache.stats
        order = list(cache._entries.keys())
        assert cache.peek(a.fingerprint(), a.config) is not None
        assert cache.peek("missing", CFG_B) is None
        assert cache.stats == before
        assert list(cache._entries.keys()) == order

    def test_get_has_no_side_effects(self):
        cache = AutotuneCache()
        a, b = _accel(41), _accel(42)
        a.run(cache=cache)
        b.run(cache=cache)
        before = cache.stats
        snapshot = cache.snapshot()
        order = list(cache._entries.keys())
        key = AutotuneCache.key(a.fingerprint(), a.config)
        assert cache.get(key) is cache.peek(a.fingerprint(), a.config)
        assert cache.get(AutotuneCache.key("missing", CFG_B)) is None
        assert cache.stats == before
        assert cache.snapshot() == snapshot
        assert list(cache._entries.keys()) == order

    def test_merge_contents_and_recency(self):
        left, right = AutotuneCache(), AutotuneCache()
        a, b, c = _accel(51), _accel(52), _accel(53)
        a.run(cache=left)
        b.run(cache=left)
        b.run(cache=right)  # duplicates left's entry; not fresher
        c.run(cache=right)
        merged = left.merge(right)
        assert merged == 2
        assert len(left) == 3
        # New keys land most recent; the duplicate (equal last-use
        # stamps, so not fresher) keeps its receiver-side position.
        keys = list(left._entries.keys())
        assert keys[0][0] == a.fingerprint()
        assert keys[1][0] == b.fingerprint()
        assert keys[2][0] == c.fingerprint()
        # Counters describe the receiver's own history only.
        assert left.stats.misses == 2

    def test_merge_respects_lru_bound(self):
        left = AutotuneCache(max_entries=2)
        right = AutotuneCache()
        a, b, c = _accel(61), _accel(62), _accel(63)
        a.run(cache=left)
        b.run(cache=right)
        c.run(cache=right)
        left.merge(right)
        assert len(left) == 2
        assert left.stats.evictions == 1
        # The receiver's own (least recent) entry was evicted first.
        assert left.peek(a.fingerprint(), a.config) is None

    def test_merge_type_checked(self):
        with pytest.raises(ConfigError):
            AutotuneCache().merge({})


class TestAtomicSave:
    def test_failed_save_leaves_old_archive_readable(self, tmp_path,
                                                     monkeypatch):
        cache = AutotuneCache()
        a = _accel(71)
        a.run(cache=cache)
        path = cache.save(tmp_path / "tuning")
        assert AutotuneCache.load(path).stats.entries == 1

        b = _accel(72)
        b.run(cache=cache)

        def boom(path, **arrays):
            # Simulate a crash mid-write: leave a truncated temp file.
            with open(path, "wb") as fh:
                fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", boom)
        with pytest.raises(OSError):
            cache.save(tmp_path / "tuning")
        monkeypatch.undo()

        # The published archive is the old, complete one — and the
        # aborted temp file did not leak beside it.
        restored = AutotuneCache.load(path)
        assert restored.stats.entries == 1
        assert restored.peek(a.fingerprint(), a.config) is not None
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp" in p]
        assert leftovers == []

    def test_save_still_roundtrips(self, tmp_path):
        cache = AutotuneCache()
        a = _accel(73)
        a.run(cache=cache)
        path = cache.save(tmp_path / "roundtrip.npz")
        restored = AutotuneCache.load(path)
        assert _entries_equal(cache, restored)


class TestNoProcessPool:
    """Serving and sharded simulation both run in one process."""

    def test_service_reserves_workers_cluster_option(self):
        with pytest.raises(ConfigError):
            InferenceService(cluster_options={"workers": 2})

    def test_service_has_no_workers_knob(self):
        # The service serves in one process.
        with pytest.raises(TypeError):
            InferenceService(workers=2)
        with pytest.raises(TypeError):
            serve_requests([], workers=2)

    def test_chip_level_pool_is_gone(self):
        from repro.cli import main
        from repro.cluster import ClusterConfig

        with pytest.raises(TypeError):
            ClusterConfig(n_chips=2, workers=2)
        for argv in (["parallel-bench"],
                     ["shard-bench", "--workers", "2"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.parallel")
