"""The batched inference service: scheduler, autotune cache, service."""

import gc
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.accel.gcnaccel as gcnaccel
from repro.accel import ArchConfig, CachedTuning, GcnAccelerator
from repro.analysis.tracescenarios import trace_scenario
from repro.datasets import dataset_fingerprint, load_dataset
from repro.datasets.rmat import edges_fingerprint
from repro.errors import ConfigError
from repro.obs import RecordingTracer, stream_fingerprint
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
from repro.serve.cache import OverlayCache

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


def _offline_batches(queued, *, max_batch=None):
    """Admit a whole queue at once, flush, and pop every batch."""
    stream = StreamingScheduler(max_batch=max_batch)
    for item in queued:
        stream.admit(item)
    stream.flush()
    batches = []
    while stream.ready:
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

    def test_load_applies_bound(self, tiny_nell, tmp_path):
        cache = AutotuneCache()
        GcnAccelerator(tiny_nell, CFG_A).run(cache=cache)
        GcnAccelerator(tiny_nell, CFG_B).run(cache=cache)
        path = cache.save(tmp_path / "cache.npz")
        restored = AutotuneCache.load(path, max_entries=1)
        assert len(restored) == 1
        assert restored.max_entries == 1


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
        assert overlay.peek("g", CFG_A) is not None


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


@pytest.mark.parametrize("write", [
    _truncated, _random_bytes, _empty, _without_index, _non_json_index,
    _owner_out_of_range, _without_entries, _entry_without_config,
    _unknown_config_field, _missing_owner_array,
])
def test_malformed_archive_load_is_a_config_error(tmp_path, write):
    path = tmp_path / "cache.npz"
    write(path)
    with pytest.raises(ConfigError, match="cache.npz"):
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
    def test_frozen_calls_per_drain_are_keys_times_stages(self,
                                                         frozen_calls):
        requests = [
            InferenceRequest(graph=graph, config=config, a_hops=hops)
            for graph, config, hops in (
                (SPEC, CFG_A, 1), (SPEC2, CFG_A, 1), (SPEC, CFG_B, 2),
            ) * 3
        ]
        expected = sum(_stage_count(r) for r in requests[:3])
        service = InferenceService(n_workers=2, cache=AutotuneCache())
        service.submit_many(requests)
        service.drain()  # cold: one tune and two hits per key
        assert len(frozen_calls) == expected
        for _ in range(2):
            # Warm drains replay each key once, never zero times: the
            # memo lives on the drain's accelerators.
            frozen_calls.clear()
            service.submit_many(requests)
            outcome = service.drain()
            assert outcome.stats.cache_hits == len(requests)
            assert len(frozen_calls) == expected

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
        cache = AutotuneCache()
        accel = GcnAccelerator(tiny_nell, CFG_A)
        accel.run(cache=cache)
        first = accel.run(cache=cache)
        second = accel.run(cache=cache)
        assert first is not second and first.layers is not second.layers
        assert first.layers[0] is second.layers[0]
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

    def test_seeded_run_reports_its_own_dataset(self):
        # The fingerprint ignores the dataset's name, so a service seeds
        # a renamed twin with the cold run kept for the original.
        dataset = SPEC.build()
        original = GcnAccelerator(dataset, CFG_A)
        original.run(cache=AutotuneCache())
        cold = original.kept_cold_run
        twin = GcnAccelerator(replace(dataset, name="twin"), CFG_A)
        assert twin.fingerprint() == original.fingerprint()
        twin.remember_cold(cold)
        report = twin.run(cache=AutotuneCache())
        assert report.dataset == "twin"
        assert report.total_cycles == cold.report.total_cycles

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
        assert accel.remembers_cold_run()
        assert not accel.remembers_cold_run(traced=True)
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
        return _TuneEveryMiss(request.resolve_graph(), request.config,
                              a_hops=request.a_hops)


class _PrefilledService(InferenceService):
    """Keeps each accelerator's cold run untraced the moment it is
    built, so a traced drain has to refill its events."""

    def _accel_for(self, request):
        accel = super()._accel_for(request)
        if not accel.remembers_cold_run():
            accel.run(cache=AutotuneCache())
        return accel


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
    # tuned (their accelerators are built holding the service's kept
    # cold runs) with new keys.
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

    def test_edges_fingerprint_order_insensitive(self):
        src = np.array([0, 3, 1]); dst = np.array([2, 1, 0])
        fwd = edges_fingerprint(src, dst, 4)
        perm = edges_fingerprint(src[::-1], dst[::-1], 4)
        assert fwd == perm
        assert fwd != edges_fingerprint(dst, src, 4)

    def test_edges_fingerprint_validates(self):
        with pytest.raises(ConfigError):
            edges_fingerprint([0, 9], [1, 1], 4)


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
            10, n_graphs=2, n_nodes=384, seed=3,
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


class TestSyntheticTraffic:
    def test_mix_is_deterministic(self):
        mix1 = synthetic_traffic(8, n_graphs=3, n_nodes=256, seed=11)
        mix2 = synthetic_traffic(8, n_graphs=3, n_nodes=256, seed=11)
        assert [r.graph for r in mix1] == [r.graph for r in mix2]

    def test_repeats_graphs(self):
        mix = synthetic_traffic(30, n_graphs=3, n_nodes=256, seed=11)
        assert len({r.graph for r in mix}) <= 3
        assert len(mix) == 30

    def test_spec_build_memoized(self):
        assert SPEC.build() is SPEC.build()
