"""Reuse of sharded plans, halo sets, fabric prices and chip accelerators.

A service keeps one :class:`~repro.cluster.ShardedAccelerator` per
(graph, gang shape, ``a_hops``) for as long as consecutive drains use
it: each drain starts with exactly the accelerators the previous drain
used. Repeated sharded traffic partitions, derives halo sets, prices
its exclusive fabric and replays each shard entry once per service
instead of once per job. These tests pin

* the counts: ``make_plan`` and ``halo_exchange`` once per distinct
  (graph, gang) key, frozen replays once per distinct shard entry and
  stage, compositions once per distinct set of chip reports, none of
  the four in a later drain of the same traffic, and one graph
  resolution per sharded job;
* the stored report: a warm run without a fabric background returns
  the plan's one stored :class:`~repro.cluster.ClusterReport`, equal to
  a fresh simulation field by field and event by event, stragglers
  included;
* identity: every drain of a service equals a per-job-fresh oracle (no
  reuse at all) in results, latency, cache stats and LRU order and the
  recorded event stream, across ``coschedule``, ``cache_mode`` and
  ``rebalance_signal``;
* the window and its keys: graphs that two drains in a row did not
  use are freed, a new graph that may reuse a freed ``id`` gets its own
  cycles, and so does a graph whose fingerprint equals another's;
* the pricing memo: runs on every fabric kind, with and without
  overlap, equal fresh simulations, and a run against a background
  neither reads nor changes the exclusive price;
* eviction: a shard entry evicted mid-drain is re-stored from the chip
  accelerator's kept cold run, not re-tuned;
* immutability of what the reuse shares (plans, halo sets and halo
  link loads).
"""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.accel.gcnaccel as gcnaccel
import repro.cluster.multichip as multichip
import repro.serve.service as service_module
from repro.accel import ArchConfig, CachedTuning
from repro.cluster import (
    ClusterConfig,
    ShardedAccelerator,
    StragglerEvent,
    halo_exchange,
    make_plan,
    simulate_multichip_gcn,
)
from repro.datasets.registry import dataset_fingerprint
from repro.errors import CeilingError, ConfigError
from repro.obs import RecordingTracer
from repro.serve import (
    AutotuneCache,
    InferenceRequest,
    InferenceService,
    RmatGraphSpec,
    mixed_traffic,
)
from repro.serve.traffic import clear_graph_cache
from repro.sparse.coo import CooMatrix
from trace_identity import stream_fingerprint

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


BURST_KW = dict(MIXED_KW, arrival_rate=1e6, critical_slo_ms=0.01,
                batch_slo_ms=0.05, sharded_slo_ms=0.05)


def _spaced(graphs, gap=1.0):
    """Requests far enough apart that every job finds the pool idle."""
    return [
        InferenceRequest(graph=graph, config=CFG, arrival_time=i * gap)
        for i, graph in enumerate(graphs)
    ]


@pytest.fixture
def calls(monkeypatch):
    """Counts of partitioner, halo, frozen-replay, cold-tune and
    composition calls, by every module name they are reachable
    through."""
    counts = {"make_plan": 0, "halo_exchange": 0, "frozen": 0, "tune": 0,
              "compose": 0}

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
    monkeypatch.setattr(multichip, "_compose_layers",
                        counting("compose", multichip._compose_layers))
    return counts


class TestReuseCounts:
    @pytest.mark.parametrize("coschedule", [False, True])
    def test_one_plan_halo_and_replay_per_key_per_service(self, calls,
                                                         coschedule):
        # Two 512-node graphs on a 2 x 256 pool: every job gangs both
        # instances, so there are two (graph, gang) keys and four shard
        # entries. In the first drain the first job of each graph tunes
        # cold, the second replays, the third hits the replay memo; the
        # first two compose, the third returns the stored report. The
        # second drain takes both accelerators over from the first, so
        # it partitions, derives halo sets, replays and composes
        # nothing.
        requests = _spaced([BIG_A, BIG_B] * 3)
        service = InferenceService(
            n_workers=2, cache=AutotuneCache(), chip_capacity=256,
            coschedule=coschedule,
        )
        for first in (True, False):
            for name in calls:
                calls[name] = 0
            service.submit_many(requests)
            outcome = service.drain()
            assert outcome.stats.n_sharded == len(requests)
            assert calls["make_plan"] == (2 if first else 0)
            assert calls["halo_exchange"] == (2 if first else 0)
            assert calls["frozen"] == (2 * 2 * STAGES if first else 0)
            assert calls["compose"] == (2 * 2 if first else 0)
            assert len(_sharded_entries(service._accels)) == 2
            assert not _sharded_entries(service._accels_prev)

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


    @pytest.mark.parametrize("cache_mode,chip_capacity,shed_expired", [
        pytest.param(
            mode, capacity, shed,
            id=mode + ("" if capacity else "-unsharded")
            + ("-shed" if shed else ""),
        )
        for mode in ("shared", "partitioned", "affinity")
        for capacity in (256, None)
        for shed in (False, True)
    ])
    def test_one_graph_resolution_per_sharded_job(self, monkeypatch,
                                                 cache_mode, chip_capacity,
                                                 shed_expired):
        # Every request is resolved once, at admission, shed or not:
        # placement, replication, the sharded queue and the serve read
        # what admission resolved. A dispatched sharded job runs on the
        # accelerator its gang scan validated: one window lookup.
        calls = {"resolve_graph": [], "_sharded_for": []}

        def counting(owner, name, argument):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args[argument])
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(InferenceRequest, "resolve_graph", 0)  # the request
        counting(InferenceService, "_sharded_for", 2)  # the queued job

        def service():
            return InferenceService(
                n_workers=4, chip_capacity=chip_capacity, coschedule=True,
                critical_slo_ms=1.0, cache_mode=cache_mode,
                shed_expired=shed_expired,
                replicate_threshold=(3.0 if cache_mode == "affinity"
                                     else None),
            )

        # A burst with microsecond SLOs: with shed_expired, requests
        # expire while queueing, sharded jobs among them.
        requests = mixed_traffic(40, seed=1, **BURST_KW)
        warm = service()
        warm.submit_many(requests)
        warm.drain()
        calls["resolve_graph"].clear()
        ids = warm.submit_many(requests)
        outcome = warm.drain()
        # The queue keeps the caller's requests: each submitted object
        # is resolved exactly once, and the results carry the ids
        # submit_many returned.
        resolved = calls["resolve_graph"]
        assert sorted(map(id, resolved)) == sorted(map(id, requests))
        assert [r.request_id for r in outcome.results] == ids
        assert (outcome.stats.n_sharded > 0) == (chip_capacity is not None)
        assert (outcome.stats.n_shed > 0) == shed_expired

        spaced = service()
        spaced.submit_many(_spaced([BIG_A, BIG_B] * 3))
        calls["_sharded_for"].clear()
        outcome = spaced.drain()
        jobs = calls["_sharded_for"]
        assert outcome.stats.n_sharded == (0 if chip_capacity is None
                                           else 6)
        assert len(jobs) == len({id(item) for item in jobs})
        assert len(jobs) == outcome.stats.n_sharded


class TestDrainWindow:
    def test_the_window_frees_what_traffic_left(self):
        # Four drains of three distinct 512-node graphs each, on a
        # 2 x 256 pool. Each drain keeps only the accelerators the drain
        # before it used, so once the graph cache lets go, nothing holds
        # the first two rounds' graphs.
        def service():
            return InferenceService(n_workers=2, cache=AutotuneCache(),
                                    chip_capacity=256)

        def specs(first_seed, count):
            return [RmatGraphSpec(n_nodes=512, seed=first_seed + i, **TINY)
                    for i in range(count)]

        warm = service()
        refs = []
        for round_index in range(4):
            graphs = specs(100 + 3 * round_index, 3)
            refs.append([weakref.ref(graph.build()) for graph in graphs])
            warm.submit_many(_spaced(graphs))
            warm.drain()
        clear_graph_cache()
        gc.collect()
        assert all(ref() is None for round_refs in refs[:2]
                   for ref in round_refs)
        # New graphs may get a freed graph's id; each still prices as
        # its own graph.
        graphs = specs(200, 6)
        outcomes = []
        for target in (warm, service()):
            target.submit_many(_spaced(graphs))
            outcomes.append(target.drain())
        got, want = outcomes
        assert [r.total_cycles for r in got.results] == [
            r.total_cycles for r in want.results
        ]
        assert [r.fingerprint for r in got.results] == [
            r.fingerprint for r in want.results
        ]

    def test_equal_fingerprints_keep_their_own_accelerators(self):
        # A graph and its copy with every column shifted by n/2 share
        # row-nnz profiles, so fingerprints and shard cache entries,
        # but not halo sets: the memo keys by graph identity, not by
        # content.
        base = BIG_A.build()
        adjacency = base.adjacency
        n = adjacency.shape[0]
        twin = replace(base, adjacency=CooMatrix(
            adjacency.shape, adjacency.rows, (adjacency.cols + n // 2) % n,
            adjacency.vals,
        ))
        assert dataset_fingerprint(twin) == dataset_fingerprint(base)

        def cycles(graphs):
            service = InferenceService(n_workers=2, cache=AutotuneCache(),
                                       chip_capacity=256)
            service.submit_many(_spaced(graphs))
            return [r.total_cycles for r in service.drain().results]

        alone = cycles([base]) + cycles([twin])
        assert alone[0] != alone[1]
        assert cycles([base, twin, base, twin]) == alone * 2


def _sharded_entries(window):
    """The keys of a window's :class:`ShardedAccelerator` entries."""
    return [key for key, accel in window.items()
            if isinstance(accel, ShardedAccelerator)]


class _FreshShardedService(InferenceService):
    """The no-reuse oracle: a new accelerator for every sharded use."""

    def _sharded_for(self, gang, item, *, constrained=True):
        for window in (self._accels, self._accels_prev):
            for key in _sharded_entries(window):
                del window[key]
        return super()._sharded_for(gang, item, constrained=constrained)


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
    n_drains=st.integers(1, 3),
    coschedule=st.booleans(),
    cache_mode=st.sampled_from(("shared", "affinity")),
    signal=st.sampled_from(("load", "cycles")),
)
def test_drain_matches_per_job_fresh_oracle(seed, n_drains, coschedule,
                                            cache_mode, signal):
    # Fresh traffic per drain over the same graph pool: later drains
    # run on accelerators the drain before them used.
    traffic = [mixed_traffic(12, seed=seed + d, **MIXED_KW)
               for d in range(n_drains)]
    assume(sum(r.graph.n_nodes > 256 for r in traffic[0]) >= 2)
    kwargs = dict(
        n_workers=4, chip_capacity=256, coschedule=coschedule,
        critical_slo_ms=1.0 if coschedule else None, cache_mode=cache_mode,
        cluster_options={"topology": "ring", "rebalance_signal": signal},
    )
    reused_trace, fresh_trace = RecordingTracer(), RecordingTracer()
    reused = InferenceService(tracer=reused_trace, **kwargs)
    fresh = _FreshShardedService(tracer=fresh_trace, **kwargs)
    for requests in traffic:
        outcomes = []
        for service, tracer in ((reused, reused_trace),
                                (fresh, fresh_trace)):
            tracer.events.clear()
            service.submit_many(requests)
            outcomes.append(service.drain())
        got, want = outcomes
        assert [_result_key(r) for r in got.results] == [
            _result_key(r) for r in want.results
        ]
        assert got.latency == want.latency
        for mine, theirs in zip(_caches(reused), _caches(fresh)):
            assert mine.stats == theirs.stats
            assert list(mine._entries) == list(theirs._entries)
        assert stream_fingerprint(reused_trace.events) == stream_fingerprint(
            fresh_trace.events
        )


class TestShardedAccelerator:
    def _cluster(self, n_chips=2, **kwargs):
        return ClusterConfig(n_chips=n_chips, chip=CFG, **kwargs)

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("kind", ["all-to-all", "ring", "mesh2d"])
    def test_runs_equal_fresh_simulations(self, kind, overlap):
        # The exclusive fabric's price is memoized per plan; the middle
        # run prices against a background, which must neither read nor
        # overwrite that memo.
        dataset = BIG_A.build()
        cluster = self._cluster(n_chips=4, topology=kind, overlap=overlap)
        sharded = ShardedAccelerator(dataset, cluster)
        busy = (500.0,) + (0.0,) * (cluster.fabric.n_links - 1)
        cache, fresh_cache = AutotuneCache(), AutotuneCache()
        reports = []
        for background in (None, busy, None):
            got = simulate_multichip_gcn(sharded, cluster, cache=cache,
                                         background=background)
            want = simulate_multichip_gcn(dataset, cluster,
                                          cache=fresh_cache,
                                          background=background)
            assert got.total_cycles == want.total_cycles
            assert got.layer_cycles == want.layer_cycles
            assert got.cluster == want.cluster
            assert np.array_equal(got.halo.words, want.halo.words)
            assert np.array_equal(got.comm_cycles_per_layer,
                                  want.comm_cycles_per_layer)
            assert np.array_equal(got.chip_costs_per_layer,
                                  want.chip_costs_per_layer)
            reports.append(got)
        assert cache.stats == fresh_cache.stats
        exclusive, contended, again = reports
        assert (contended.comm_cycles_per_layer
                > exclusive.comm_cycles_per_layer).any()
        assert again.comm_cycles_per_layer is exclusive.comm_cycles_per_layer

    def test_rejects_a_foreign_cluster_or_plan(self):
        dataset = BIG_A.build()
        sharded = ShardedAccelerator(dataset, self._cluster())
        for cluster, kwargs in (
            (self._cluster(overlap=True), {}),
            (self._cluster(), {"a_hops": 2}),
        ):
            with pytest.raises(ConfigError):
                simulate_multichip_gcn(sharded, cluster, **kwargs)
        equal = self._cluster()
        report = simulate_multichip_gcn(sharded, equal, background=(1.0, 2.0))
        assert report.cluster is sharded.cluster

    @pytest.mark.parametrize("background", [
        (1.0, 2.0, 3.0), (1.0, -2.0), (1.0, float("nan")), ("a", "b"),
    ], ids=["length", "negative", "nan", "not-a-number"])
    def test_rejects_a_malformed_background(self, background):
        # One chip prices no halo, but its background is checked too.
        for cluster in (self._cluster(), self._cluster(n_chips=1)):
            for dataset in (BIG_A.build(),
                            ShardedAccelerator(BIG_A.build(), cluster)):
                with pytest.raises(ConfigError, match="background"):
                    simulate_multichip_gcn(dataset, cluster,
                                           background=background)

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


def _assert_same_report(got, want):
    """Two :class:`ClusterReport` objects agree field by field."""
    assert got.dataset == want.dataset
    assert got.cluster == want.cluster
    assert np.array_equal(got.plan.owner, want.plan.owner)
    assert got.rebalance == want.rebalance
    assert got.total_cycles == want.total_cycles
    assert got.layer_cycles == want.layer_cycles
    assert got.migration_cycles == want.migration_cycles
    for name in ("comm_cycles_per_layer", "chip_costs_per_layer",
                 "chip_compute_per_layer"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(got.halo.words, want.halo.words)
    assert [r.total_cycles for r in got.chip_reports] == [
        r.total_cycles for r in want.chip_reports
    ]
    assert [r.cache_hit for r in got.chip_reports] == [
        r.cache_hit for r in want.chip_reports
    ]
    for name in ("utilization", "total_work", "comm_cycles",
                 "compute_imbalance", "cache_hit", "latency_ms"):
        assert getattr(got, name) == getattr(want, name), name


class TestStoredReport:
    def test_warm_runs_return_the_stored_report(self, calls):
        # One accelerator runs a sequence of jobs; each is checked
        # against a fresh simulation on a cache that saw the same
        # calls. ``composed`` counts the accelerator's own
        # compositions, so a warm run that returns the stored report
        # composes nothing.
        dataset = BIG_A.build()
        cluster = ClusterConfig(n_chips=4, chip=CFG, topology="ring")
        busy = (500.0,) + (0.0,) * (cluster.fabric.n_links - 1)
        sharded = ShardedAccelerator(dataset, cluster)
        cache, fresh_cache = AutotuneCache(), AutotuneCache()

        def run(background=None, *, traced=False, cached=True):
            tracers = [RecordingTracer() if traced else None
                       for _ in range(2)]
            calls["compose"] = 0
            got = simulate_multichip_gcn(
                sharded, cluster, cache=cache if cached else None,
                tracer=tracers[0], background=background,
            )
            composed = calls["compose"]
            want = simulate_multichip_gcn(
                dataset, cluster, cache=fresh_cache if cached else None,
                tracer=tracers[1], background=background,
            )
            _assert_same_report(got, want)
            if traced:
                assert tracers[0].events
                assert stream_fingerprint(tracers[0].events) == (
                    stream_fingerprint(tracers[1].events)
                )
            assert cache.stats == fresh_cache.stats
            return got, composed

        def stored():
            (report,) = sharded._reports.values()
            return report

        cold, composed = run(traced=True)
        assert composed == 1 and cold is stored() and not cold.cache_hit
        # The first hits replay new chip reports: one recomposition.
        warm, composed = run()
        assert composed == 1 and warm is stored() and warm.cache_hit
        for traced in (False, True):
            again, composed = run(traced=traced)
            assert composed == 0 and again is warm
        for array in (warm.chip_costs_per_layer,
                      warm.chip_compute_per_layer,
                      warm.comm_cycles_per_layer):
            with pytest.raises(ValueError):
                array[0, 0] = 0

        # A background-priced run composes afresh and leaves the slot.
        contended, composed = run(busy)
        assert composed == 1 and stored() is warm
        assert (contended.comm_cycles_per_layer
                > warm.comm_cycles_per_layer).any()
        again, composed = run(traced=True)
        assert composed == 0 and again is warm

        # Chip 0's entry is evicted and another object re-stored under
        # its key: its replay is new, so the job recomposes once.
        chip0 = sharded._chip_accels(warm.plan)[0]
        key = AutotuneCache.key(chip0.fingerprint(), CFG)
        for target in (cache, fresh_cache):
            target.store(*key, CachedTuning(layers=target.get(key).layers))
        restored, composed = run()
        assert composed == 1 and restored is stored()
        assert restored.chip_reports[0] is not warm.chip_reports[0]
        assert all(a is b for a, b in zip(restored.chip_reports[1:],
                                          warm.chip_reports[1:]))
        again, composed = run(traced=True)
        assert composed == 0 and again is restored

        # A cache-less run tunes every chip, so it replaces the one
        # slot, and the report it replaced is freed.
        replaced = weakref.ref(restored)
        del cold, warm, again, restored, contended
        uncached, composed = run(cached=False)
        assert composed == 1 and uncached is stored()
        assert not uncached.cache_hit
        gc.collect()
        assert replaced() is None
        assert len(sharded._reports) == 1

    def test_a_straggler_run_returns_the_stored_report(self, calls):
        # Stragglers are part of the bound shape, and a run without a
        # background charges their steady-state slowdown, so it returns
        # the plan's stored report like any other. A run against a
        # background composes afresh under the same multipliers: an
        # all-zero one prices like none, so it equals the stored report.
        dataset = BIG_A.build()
        cluster = ClusterConfig(n_chips=4, chip=CFG, topology="ring",
                                stragglers=(StragglerEvent(1, 0.0, 2.0),))
        idle = (0.0,) * cluster.fabric.n_links
        busy = (500.0,) + idle[1:]
        sharded = ShardedAccelerator(dataset, cluster)
        cache, fresh_cache = AutotuneCache(), AutotuneCache()

        def run(background=None):
            calls["compose"] = 0
            got = simulate_multichip_gcn(sharded, cluster, cache=cache,
                                         background=background)
            composed = calls["compose"]
            want = simulate_multichip_gcn(dataset, cluster,
                                          cache=fresh_cache,
                                          background=background)
            _assert_same_report(got, want)
            assert cache.stats == fresh_cache.stats
            return got, composed

        cold, composed = run()
        assert composed == 1 and not cold.cache_hit
        warm, composed = run()
        assert composed == 1 and warm.cache_hit
        for _ in range(2):
            again, composed = run()
            assert composed == 0 and again is warm
        (stored,) = sharded._reports.values()
        assert stored is warm

        fresh, composed = run(idle)
        assert composed == 1 and fresh is not warm
        _assert_same_report(fresh, warm)
        contended, composed = run(busy)
        assert composed == 1
        assert (contended.comm_cycles_per_layer
                > warm.comm_cycles_per_layer).any()
        again, composed = run()
        assert composed == 0 and again is warm

        # The stored report charges chip 1 its full slowdown.
        plain = simulate_multichip_gcn(dataset, replace(cluster,
                                                        stragglers=None))
        assert np.array_equal(plain.plan.owner, warm.plan.owner)
        slowed = warm.chip_compute_per_layer
        base = plain.chip_compute_per_layer
        assert np.array_equal(slowed[:, 1], base[:, 1] * 2)
        assert np.array_equal(np.delete(slowed, 1, axis=1),
                              np.delete(base, 1, axis=1))


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

    def test_halo_link_loads_are_read_only(self):
        cluster = ClusterConfig(n_chips=4, chip=CFG, topology="ring")
        sharded = ShardedAccelerator(BIG_A.build(), cluster)
        report = simulate_multichip_gcn(sharded, cluster)
        loads = sharded.halo_link_loads(report.plan)
        assert loads is sharded.halo_link_loads(report.plan)
        assert np.array_equal(
            loads, cluster.fabric.link_loads(report.halo.words),
        )
        with pytest.raises(ValueError):
            loads[0] = 0
        with pytest.raises(ValueError):
            report.comm_cycles_per_layer[0, 0] = 0
        single = ShardedAccelerator(BIG_A.build(), ClusterConfig(
            n_chips=1, chip=CFG,
        ))
        assert single.halo_link_loads(single.plan) is None
