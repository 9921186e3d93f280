"""Per-drain reuse of sharded plans, halo sets and chip accelerators.

A drain keeps one :class:`~repro.cluster.ShardedAccelerator` per
(graph, gang shape, ``a_hops``): repeated sharded traffic partitions,
derives halo sets and replays each shard entry once per drain instead
of once per job. These tests pin

* the counts: ``make_plan`` and ``halo_exchange`` once per distinct
  (graph, gang) key, frozen replays once per distinct shard entry and
  stage;
* identity: a drain equals a per-job-fresh oracle (no reuse at all) in
  results, latency, cache stats and LRU order and the recorded event
  stream, across ``coschedule``, ``cache_mode`` and
  ``rebalance_signal``;
* eviction: a shard entry evicted mid-drain is re-stored from the chip
  accelerator's kept cold run, not re-tuned;
* immutability of what the reuse shares (plans and halo sets).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.accel.gcnaccel as gcnaccel
import repro.cluster.multichip as multichip
import repro.serve.service as service_module
from repro.accel import ArchConfig
from repro.cluster import (
    ClusterConfig,
    ShardedAccelerator,
    halo_exchange,
    make_plan,
    simulate_multichip_gcn,
)
from repro.errors import CeilingError, ConfigError
from repro.obs import RecordingTracer, stream_fingerprint
from repro.serve import (
    AutotuneCache,
    InferenceRequest,
    InferenceService,
    RmatGraphSpec,
    mixed_traffic,
)

CFG = ArchConfig(n_pes=16, hop=1, remote_switching=True)
TINY = {"avg_degree": 6, "f1": 16, "f2": 8, "f3": 4}
BIG_A = RmatGraphSpec(n_nodes=512, seed=11, **TINY)
BIG_B = RmatGraphSpec(n_nodes=512, seed=12, **TINY)
STAGES = 4  # 2 layers x (X W + one A hop)
MIXED_KW = {
    "arrival_rate": 800.0, "chip_capacity": 256, "configs": (CFG,),
    "sharded_nodes": 700, "sharded_fraction": 0.4, "avg_degree": 6,
    "graph_kwargs": {"f1": 16, "f2": 8, "f3": 4},
}


def _spaced(graphs, gap=1.0):
    """Requests far enough apart that every job finds the pool idle."""
    return [
        InferenceRequest(graph=graph, config=CFG, arrival_time=i * gap)
        for i, graph in enumerate(graphs)
    ]


@pytest.fixture
def calls(monkeypatch):
    """Counts of partitioner, halo, frozen-replay and cold-tune calls,
    by every module name they are reachable through."""
    counts = {"make_plan": 0, "halo_exchange": 0, "frozen": 0, "tune": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module in (multichip, service_module):
        monkeypatch.setattr(module, "make_plan",
                            counting("make_plan", make_plan))
        monkeypatch.setattr(module, "halo_exchange",
                            counting("halo_exchange", halo_exchange))
    monkeypatch.setattr(
        gcnaccel, "simulate_spmm_frozen",
        counting("frozen", gcnaccel.simulate_spmm_frozen),
    )
    monkeypatch.setattr(gcnaccel, "simulate_spmm",
                        counting("tune", gcnaccel.simulate_spmm))
    return counts


class TestReuseCounts:
    @pytest.mark.parametrize("coschedule", [False, True])
    def test_one_plan_halo_and_replay_per_key_per_drain(self, calls,
                                                       coschedule):
        # Two 512-node graphs on a 2 x 256 pool: every job gangs both
        # instances, so there are two (graph, gang) keys and four shard
        # entries. The first job of each graph tunes cold, the second
        # replays, the third hits the replay memo.
        requests = _spaced([BIG_A, BIG_B] * 3)
        service = InferenceService(
            n_workers=2, cache=AutotuneCache(), chip_capacity=256,
            coschedule=coschedule,
        )
        for _ in range(2):
            for name in calls:
                calls[name] = 0
            service.submit_many(requests)
            outcome = service.drain()
            assert outcome.stats.n_sharded == len(requests)
            assert calls["make_plan"] == 2
            assert calls["halo_exchange"] == 2
            assert calls["frozen"] == 2 * 2 * STAGES
            assert len(service._sharded) == 2

    def test_evicted_shard_entry_is_restored_not_retuned(self, calls):
        # A 2-entry cache holds one graph's two shard entries: B evicts
        # A's, A's repeat miss re-stores the entry objects its chip
        # accelerators kept from their first tune, and the next A hit
        # reuses the replay of those very entries.
        cache = AutotuneCache(max_entries=2)
        service = InferenceService(n_workers=2, cache=cache,
                                   chip_capacity=256)
        service.submit_many(_spaced([BIG_A, BIG_A, BIG_B, BIG_A, BIG_A]))
        outcome = service.drain()
        hits = [r.cache_hit for r in outcome.results]
        assert hits == [False, True, False, False, True]
        assert cache.stats.evictions == 4
        assert calls["frozen"] == 2 * STAGES
        # Two graphs x two shards, each tuned once.
        assert calls["tune"] == 2 * 2 * STAGES
        cycles = [r.total_cycles for r in outcome.results]
        assert cycles[0] == cycles[1] == cycles[3] == cycles[4]


class _FreshShardedService(InferenceService):
    """The no-reuse oracle: a new accelerator for every sharded use."""

    def _sharded_for(self, gang, request, *, constrained=True):
        self._sharded = {}
        return super()._sharded_for(gang, request, constrained=constrained)


def _result_key(result):
    return (
        result.request_id, result.fingerprint, result.total_cycles,
        result.latency_ms, result.utilization, result.cache_hit,
        result.worker, result.batch, result.start_time, result.finish_time,
        result.shed, result.n_shards, result.priority, result.preemptions,
    )


def _caches(service):
    if service.cache_mode == "shared":
        return [service.cache]
    return [worker.cache for worker in service.workers]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 1000),
    coschedule=st.booleans(),
    cache_mode=st.sampled_from(("shared", "affinity")),
    signal=st.sampled_from(("load", "cycles")),
)
def test_drain_matches_per_job_fresh_oracle(seed, coschedule, cache_mode,
                                            signal):
    requests = mixed_traffic(12, seed=seed, **MIXED_KW)
    assume(sum(r.graph.n_nodes > 256 for r in requests) >= 2)
    kwargs = dict(
        n_workers=4, chip_capacity=256, coschedule=coschedule,
        critical_slo_ms=1.0 if coschedule else None, cache_mode=cache_mode,
        cluster_options={"topology": "ring", "rebalance_signal": signal},
    )
    runs = []
    for cls in (InferenceService, _FreshShardedService):
        tracer = RecordingTracer()
        service = cls(tracer=tracer, **kwargs)
        service.submit_many(requests)
        runs.append((service, service.drain(), tracer))
    (reused, got, got_trace), (fresh, want, want_trace) = runs
    assert [_result_key(r) for r in got.results] == [
        _result_key(r) for r in want.results
    ]
    assert got.latency == want.latency
    for mine, theirs in zip(_caches(reused), _caches(fresh)):
        assert mine.stats == theirs.stats
        assert list(mine._entries) == list(theirs._entries)
    assert stream_fingerprint(got_trace.events) == stream_fingerprint(
        want_trace.events
    )


class TestShardedAccelerator:
    def _cluster(self, **kwargs):
        return ClusterConfig(n_chips=2, chip=CFG, **kwargs)

    def test_runs_equal_fresh_simulations(self):
        dataset = BIG_A.build()
        cluster = self._cluster()
        sharded = ShardedAccelerator(dataset, cluster)
        cache, fresh_cache = AutotuneCache(), AutotuneCache()
        for background in (None, (5.0, 0.0), None):
            job = cluster if background is None else self._cluster(
                background_link_loads=background,
            )
            got = simulate_multichip_gcn(sharded, job, cache=cache)
            want = simulate_multichip_gcn(dataset, job, cache=fresh_cache)
            assert got.total_cycles == want.total_cycles
            assert got.layer_cycles == want.layer_cycles
            assert got.cluster == want.cluster
            assert np.array_equal(got.halo.words, want.halo.words)
        assert cache.stats == fresh_cache.stats

    def test_rejects_a_foreign_cluster_or_plan(self):
        dataset = BIG_A.build()
        sharded = ShardedAccelerator(dataset, self._cluster())
        for cluster, kwargs in (
            (self._cluster(overlap=True), {}),
            (self._cluster(), {"a_hops": 2}),
        ):
            with pytest.raises(ConfigError):
                simulate_multichip_gcn(sharded, cluster, **kwargs)
        same_but_background = self._cluster(background_link_loads=(1.0, 2.0))
        report = simulate_multichip_gcn(sharded, same_but_background)
        assert report.cluster is same_but_background

    def test_infeasible_plan_is_partitioned_once(self, calls):
        # Two 256-row blocks cannot fit under a 255-row ceiling.
        sharded = ShardedAccelerator(
            BIG_A.build(), self._cluster(row_ceilings=(255, 257),
                                         blocks_per_chip=1),
        )
        for _ in range(3):
            with pytest.raises(CeilingError):
                sharded.plan
        assert calls["make_plan"] == 1


class TestSharedStateIsReadOnly:
    def test_plan_arrays_are_read_only_copies(self):
        owner = np.array([0, 0, 1, 1])
        bounds = np.array([0, 2, 4, 6, 8])
        plan = make_plan(np.ones(8, dtype=np.int64), 2, blocks_per_chip=2)
        plan = plan.with_owner(owner)
        owner[0] = 1
        assert plan.owner.tolist() == [0, 0, 1, 1]
        assert plan.block_bounds.tolist() == bounds.tolist()
        for array in (plan.block_bounds, plan.owner, plan.row_owner()):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_halo_arrays_are_read_only(self):
        dataset = BIG_A.build()
        plan = make_plan(dataset.adjacency.row_nnz(), 2)
        halo = halo_exchange(dataset.adjacency, plan)
        with pytest.raises(ValueError):
            halo.words[0, 1] = 0
        for rows in halo.rows:
            with pytest.raises(ValueError):
                rows[:1] = 0
