"""Multi-tenant co-scheduling: oracle identity and scheduling invariants.

Property-test hardening of the serving/cluster seams introduced by the
co-scheduling service (PR 8). Three pillars:

* **off ≡ sequential oracle** — with ``coschedule`` disabled (the
  default), the service must be bit-identical to an explicit
  ``coschedule=False`` run across batch, streaming and sharded traffic:
  same results, same latency trace, same cache entries in the same LRU
  order. The co-scheduling machinery must be invisible until asked for.
* **co-scheduling invariants** — with the flag on: no worker accrues
  more modeled-busy time than the simulated span (the observable
  signature of double-booking a gang member), preemption conserves the
  modeled cycle totals and the set of served work, and per-class SLO
  attainment is monotone in priority.
* **seam units** — the shared-fabric pricing (``background``,
  ``subtopology`` link-id preservation), the
  :func:`mixed_traffic` generator, and the service's co-scheduling
  parameter validation.

A knob-product property then runs every combination of the service's
mode knobs (``cache_mode`` × ``coschedule`` × ``shed_expired`` ×
``chip_capacity`` × ``max_batch``) over several drains of one service
and of a traced twin.

Also pins the EASY-backfill stranding fix (satellite d): freeing
workers are no longer held idle behind a queue head that cannot fit
yet — a smaller sharded job behind the head starts immediately, and
the head still starts at the instant it would have anyway.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.accel import ArchConfig, GcnAccelerator
from repro.cluster import (
    StragglerEvent,
    Topology,
    make_topology,
    subtopology,
)
from repro.errors import ConfigError
from repro.obs import RecordingTracer, latency_stats_view, service_stats_view
from repro.serve import (
    AutotuneCache,
    InferenceRequest,
    InferenceService,
    RmatGraphSpec,
    mixed_traffic,
    serve_requests,
    streaming_traffic,
    synthetic_traffic,
)
from repro.serve.service import _ShardedDispatch

CFG = ArchConfig(n_pes=16, hop=1, remote_switching=True)
TINY = {"avg_degree": 6, "f1": 16, "f2": 8, "f3": 4}
SMALL = RmatGraphSpec(n_nodes=192, seed=5, **TINY)
BIG = RmatGraphSpec(n_nodes=700, seed=6, **TINY)
TINY_GK = {"f1": 16, "f2": 8, "f3": 4}
TRAFFIC_KW = {
    "n_nodes": 256, "configs": (CFG,), "avg_degree": 6,
    "graph_kwargs": TINY_GK,
}
MIXED_KW = {
    "arrival_rate": 800.0, "chip_capacity": 256, "configs": (CFG,),
    "sharded_nodes": 700, "avg_degree": 6, "graph_kwargs": TINY_GK,
}


def _req(graph=SMALL, arrival=0.0, slo_ms=None, priority=None):
    return InferenceRequest(
        graph=graph, config=CFG, arrival_time=arrival, slo_ms=slo_ms,
        priority=priority,
    )


def _result_key(result):
    """Every deterministic field of one result (``sim_seconds`` is wall
    clock and legitimately varies run to run)."""
    return (
        result.request_id, result.dataset, result.fingerprint,
        result.total_cycles, result.latency_ms, result.utilization,
        result.cache_hit, result.worker, result.batch,
        result.arrival_time, result.start_time, result.finish_time,
        result.slo_ms, result.shed, result.n_shards, result.priority,
        result.preemptions,
    )


def _latency_key(outcome):
    stats = outcome.latency
    return (
        stats.n, stats.p50_ms, stats.p95_ms, stats.p99_ms, stats.mean_ms,
        stats.max_ms, stats.mean_queue_ms, stats.slo_requests,
        stats.slo_met,
    )


def _assert_oracle_identity(requests, **kwargs):
    """Default-flag serving must be bit-identical to an explicit
    ``coschedule=False`` run: results, latency trace, cache LRU order."""
    cache_a, cache_b = AutotuneCache(), AutotuneCache()
    oracle = serve_requests(requests, cache=cache_a, **kwargs)
    off = serve_requests(
        requests, cache=cache_b, coschedule=False, critical_slo_ms=None,
        **kwargs,
    )
    assert [_result_key(r) for r in off.results] == [
        _result_key(r) for r in oracle.results
    ]
    assert _latency_key(off) == _latency_key(oracle)
    assert list(cache_b._entries) == list(cache_a._entries)
    assert cache_b.stats == cache_a.stats
    return oracle, off


class TestOffModeOracle:
    """``coschedule=False`` ≡ the sequential exclusive-gang oracle."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_batch_traffic_identity(self, seed):
        requests = synthetic_traffic(10, seed=seed, **TRAFFIC_KW)
        _assert_oracle_identity(requests, n_workers=2)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000), rate=st.sampled_from([200.0, 2000.0]))
    def test_streaming_traffic_identity(self, seed, rate):
        requests = streaming_traffic(
            12, arrival_rate=rate, slo_ms=8.0, seed=seed, **TRAFFIC_KW
        )
        _assert_oracle_identity(requests, n_workers=2, shed_expired=True)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_sharded_traffic_identity(self, seed):
        kwargs = dict(MIXED_KW)
        kwargs["sharded_fraction"] = 0.4
        requests = mixed_traffic(10, seed=seed, **kwargs)
        assume(any(r.graph.n_nodes > 256 for r in requests))
        _assert_oracle_identity(requests, n_workers=4, chip_capacity=256)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_off_repeat_runs_identical(self, seed):
        requests = mixed_traffic(8, seed=seed, **MIXED_KW)
        first = serve_requests(requests, n_workers=3, chip_capacity=256)
        second = serve_requests(requests, n_workers=3, chip_capacity=256)
        assert [_result_key(r) for r in first.results] == [
            _result_key(r) for r in second.results
        ]

    def test_off_results_carry_no_priority(self):
        requests = mixed_traffic(8, seed=3, **MIXED_KW)
        outcome = serve_requests(requests, n_workers=4, chip_capacity=256)
        assert all(r.priority is None for r in outcome.results)
        assert all(r.preemptions == 0 for r in outcome.results)
        assert outcome.stats.n_preemptions == 0

    def test_critical_slo_requires_coschedule_consistency(self):
        # Only co-scheduling reads the class-0 threshold: without it the
        # knob would be inert, so construction refuses it.
        with pytest.raises(ConfigError, match="critical_slo_ms"):
            InferenceService(n_workers=2, critical_slo_ms=1.0)
        with pytest.raises(ConfigError, match="critical_slo_ms"):
            InferenceService(n_workers=2, coschedule=False,
                             critical_slo_ms=1.0)

    def test_cluster_options_require_chip_capacity(self):
        # Only sharded jobs read cluster_options, and only chip_capacity
        # makes a job sharded.
        with pytest.raises(ConfigError, match="chip_capacity"):
            InferenceService(n_workers=4,
                             cluster_options={"topology": "ring"})
        with pytest.raises(ConfigError, match="chip_capacity"):
            InferenceService(n_workers=4, coschedule=True,
                             cluster_options={"link_words_per_cycle": 2.0})


def _worker_busy_bounded(outcome):
    """No instance accrues more modeled-busy time than the simulated
    span — the observable signature of a double-booked gang member."""
    span = outcome.stats.makespan_seconds
    for worker in outcome.workers:
        assert worker.modeled_busy_seconds <= span + 1e-9, (
            worker.index, worker.modeled_busy_seconds, span
        )


def _served_nodes(outcome):
    return sorted(
        (r.request_id, r.total_cycles, r.n_shards)
        for r in outcome.results if not r.shed
    )


class TestCoscheduleInvariants:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_no_worker_overbooked(self, seed):
        requests = mixed_traffic(10, seed=seed, **MIXED_KW)
        outcome = serve_requests(
            requests, n_workers=4, chip_capacity=256,
            coschedule=True, critical_slo_ms=1.0,
        )
        _worker_busy_bounded(outcome)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_on_serves_same_work_as_off(self, seed):
        requests = mixed_traffic(10, seed=seed, **MIXED_KW)
        off = serve_requests(requests, n_workers=4, chip_capacity=256)
        on = serve_requests(
            requests, n_workers=4, chip_capacity=256,
            coschedule=True, critical_slo_ms=1.0,
        )
        # Work conservation: same requests served, same modeled cycle
        # total per request, same sharded count. Only timelines differ.
        assert _served_nodes(on) == _served_nodes(off)
        assert on.stats.n_sharded == off.stats.n_sharded

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_on_results_carry_priority_class(self, seed):
        requests = mixed_traffic(8, seed=seed, **MIXED_KW)
        outcome = serve_requests(
            requests, n_workers=4, chip_capacity=256,
            coschedule=True, critical_slo_ms=1.0,
        )
        assert all(r.priority in (0, 1, 2) for r in outcome.results)

    def _preemption_pair(self):
        """Two workers, a pool-wide sharded job, then a critical small
        arriving mid-job: the canonical boundary-preemption scenario."""
        requests = [
            _req(graph=RmatGraphSpec(n_nodes=1800, seed=6, **TINY)),
            _req(graph=SMALL, arrival=1e-5, slo_ms=1.0),
        ]
        kwargs = dict(n_workers=2, chip_capacity=1024)
        off = serve_requests(requests, **kwargs)
        on = serve_requests(
            requests, coschedule=True, critical_slo_ms=1.0, **kwargs
        )
        return off, on

    def test_preemption_fires_in_canonical_scenario(self):
        off, on = self._preemption_pair()
        assert off.stats.n_preemptions == 0
        assert on.stats.n_preemptions == 1
        sharded = next(r for r in on.results if r.n_shards > 1)
        assert sharded.preemptions == 1

    def test_preemption_conserves_cycles_and_work(self):
        off, on = self._preemption_pair()
        # The modeled cycle total of every request is untouched by
        # preemption — only the serving timeline stretches.
        assert _served_nodes(on) == _served_nodes(off)
        _worker_busy_bounded(on)

    def test_preemption_helps_the_critical_request(self):
        off, on = self._preemption_pair()
        crit_off = next(r for r in off.results if r.slo_ms is not None)
        crit_on = next(r for r in on.results if r.slo_ms is not None)
        sh_off = next(r for r in off.results if r.n_shards > 1)
        sh_on = next(r for r in on.results if r.n_shards > 1)
        assert crit_on.start_time < crit_off.start_time
        assert sh_on.finish_time >= sh_off.finish_time
        assert sh_on.total_cycles == sh_off.total_cycles

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_slo_attainment_monotone_in_priority(self, seed):
        # Identical work, identical SLOs, explicit classes, one worker:
        # higher-priority classes must reach at-least-as-high SLO
        # attainment (class 0 served before 1 before 2).
        rng = np.random.default_rng(seed)
        classes = rng.integers(0, 3, size=9)
        requests = [
            _req(graph=SMALL, arrival=0.0, slo_ms=3.0, priority=int(cls))
            for cls in classes
        ]
        outcome = serve_requests(
            requests, n_workers=1, max_batch=1,
            coschedule=True, critical_slo_ms=1.0,
        )
        att = {}
        for cls in (0, 1, 2):
            scoped = [r for r in outcome.results if r.priority == cls]
            if scoped:
                att[cls] = (
                    sum(1 for r in scoped if r.slo_met) / len(scoped)
                )
        present = sorted(att)
        for hi, lo in zip(present, present[1:]):
            assert att[hi] >= att[lo], (att, list(classes))


_FRESH_CYCLES = {}


def _fresh_cycles(request):
    """Cycles of one request on a fresh, cache-less accelerator
    (memoized per graph, config and ``a_hops``)."""
    key = (request.graph, request.config, request.a_hops)
    if key not in _FRESH_CYCLES:
        _FRESH_CYCLES[key] = GcnAccelerator(
            request.resolve_graph(), request.config, a_hops=request.a_hops
        ).run().total_cycles
    return _FRESH_CYCLES[key]


class TestServiceKnobProduct:
    """Every combination of the service's mode knobs, over several
    drains of one service: one result per request, monotone timelines,
    no overbooked instance, no stalled loop, cache-invariant cycles,
    and a traced twin that serves the same drains and whose event
    stream rebuilds the stats and the latency."""

    @settings(max_examples=25, deadline=None)
    @given(
        cache_mode=st.sampled_from(["shared", "partitioned", "affinity"]),
        coschedule=st.booleans(),
        shed_expired=st.booleans(),
        chip_capacity=st.sampled_from([None, 256]),
        max_batch=st.sampled_from([None, 1, 4]),
        kind=st.sampled_from(["streaming", "mixed"]),
        n_drains=st.integers(2, 3),
        seed=st.integers(0, 3),
    )
    def test_knob_product_keeps_every_contract(
        self, cache_mode, coschedule, shed_expired, chip_capacity,
        max_batch, kind, n_drains, seed
    ):
        kwargs = dict(
            n_workers=4, cache=True, cache_mode=cache_mode,
            coschedule=coschedule, shed_expired=shed_expired,
            chip_capacity=chip_capacity, max_batch=max_batch,
            critical_slo_ms=1.0 if coschedule else None,
        )
        service = InferenceService(**kwargs)
        tracer = RecordingTracer()
        twin = InferenceService(tracer=tracer, **kwargs)
        for drain in range(n_drains):
            if kind == "streaming":
                requests = streaming_traffic(
                    12, arrival_rate=4000.0, slo_ms=5.0, seed=seed + drain,
                    **TRAFFIC_KW,
                )
            else:
                requests = mixed_traffic(12, seed=seed + drain, **MIXED_KW)
            ids = service.submit_many(requests)
            twin.submit_many(requests)
            busy_before = [w.modeled_busy_seconds for w in service.workers]
            try:
                outcome = service.drain()
                tracer.events.clear()
                mirrored = twin.drain()
            except RuntimeError as exc:  # the livelock backstop
                pytest.fail(f"drain {drain} stalled: {exc}")
            # Tracing moves nothing, and the stream rebuilds the stats
            # (preempted jobs' patched completions and shed requests
            # included).
            assert [_result_key(r) for r in mirrored.results] == [
                _result_key(r) for r in outcome.results
            ]
            stats = mirrored.stats
            assert replace(stats, wall_seconds=0.0) == replace(
                outcome.stats, wall_seconds=0.0
            )
            assert service_stats_view(
                tracer.events, wall_seconds=stats.wall_seconds
            ) == stats
            assert latency_stats_view(tracer.events) == mirrored.latency
            # Exactly one result per request, in submission order.
            assert [r.request_id for r in outcome.results] == ids
            for result, request in zip(outcome.results, requests):
                assert (result.arrival_time <= result.start_time
                        <= result.finish_time)
                if not result.shed and result.n_shards == 1:
                    assert result.total_cycles == _fresh_cycles(request)
            # No instance is busy for longer than the drain lasted.
            span = outcome.stats.makespan_seconds
            for worker, before in zip(service.workers, busy_before):
                assert worker.modeled_busy_seconds - before <= span + 1e-9


class TestBackfillStranding:
    """Satellite (d): freeing workers must not idle behind a blocked
    queue head — the EASY backfill screen dispatches a smaller sharded
    job immediately, without delaying the head's start."""

    def _scenario(self, **kwargs):
        # 4 workers x 256 rows. A (400 rows -> 2 chips) and B (700 rows
        # -> 3 chips) arrive at t=0; B is the head-of-line once A holds
        # workers 0-1 and cannot fit on the 2 free workers. C (300 rows
        # -> 2 chips) fits on the free pair right now.
        graphs = {
            "A": RmatGraphSpec(n_nodes=400, seed=11, **TINY),
            "B": RmatGraphSpec(n_nodes=700, seed=12, **TINY),
            "C": RmatGraphSpec(n_nodes=300, seed=13, **TINY),
        }
        requests = [
            InferenceRequest(
                graph=graphs[name], config=CFG, arrival_time=0.0,
                request_id=name,
            )
            for name in ("A", "B", "C")
        ]
        outcome = serve_requests(
            requests, n_workers=4, chip_capacity=256, **kwargs
        )
        return {r.request_id: r for r in outcome.results}, outcome.stats

    def test_backfill_starts_small_job_immediately(self):
        by_id, stats = self._scenario()
        assert by_id["C"].start_time == 0.0
        assert stats.n_backfilled == 1

    def test_backfill_does_not_delay_the_head(self):
        by_id, _ = self._scenario()
        # B starts the instant A's gang frees — exactly when it would
        # have with C waiting behind it.
        assert by_id["B"].start_time == by_id["A"].finish_time

    def test_backfill_fires_identically_under_coschedule(self):
        plain, stats_plain = self._scenario()
        co, stats_co = self._scenario(coschedule=True)
        assert stats_co.n_backfilled == stats_plain.n_backfilled == 1
        for name in ("A", "B", "C"):
            assert co[name].start_time == plain[name].start_time
            assert co[name].total_cycles == plain[name].total_cycles


class TestWaitingHeadPlan:
    """A waiting sharded head is planned once per tick: the dispatch
    policy reuses its last plan while the head, the resume claims and
    every instance's ``free_at`` are unchanged, and re-plans when one
    of them moves."""

    def test_a_waiting_head_is_planned_once_per_tick(self, monkeypatch):
        # 4 instances x 256 rows: A (400 rows, 2 chips) starts on
        # instances 0-1; B (700 rows, 3 chips) waits for a third.
        service = InferenceService(n_workers=4, chip_capacity=256)
        service.submit_many([
            InferenceRequest(graph=RmatGraphSpec(n_nodes=nodes, seed=seed,
                                                 **TINY),
                             config=CFG, arrival_time=0.0)
            for nodes, seed in ((400, 11), (700, 12))
        ])
        results = []
        sharding = _ShardedDispatch(service, results)
        for item in service.queue.drain():
            service._resolve(item, True)
            sharding.admit(item)
        real = _ShardedDispatch._planned_gang
        planned = []

        def counting(self, item, exclude):
            planned.append(item.seq)
            return real(self, item, exclude)

        monkeypatch.setattr(_ShardedDispatch, "_planned_gang", counting)
        sharding.dispatch(0.0)
        assert [seq for seq, _result in results] == [0]
        a_finish = results[0][1].finish_time
        horizon = []
        sharding.next_events(0.0, horizon)
        # One plan for the tick: next_events reused dispatch's.
        assert planned == [1]
        assert horizon == [a_finish]
        # A later tick that moved nothing plans nothing.
        assert sharding.dispatch(a_finish / 4) == set()
        sharding.next_events(a_finish / 4, [])
        assert planned == [1]
        # An instance's free_at moved: the head is planned again, and
        # the reused plan is what a fresh plan reads.
        service.workers[2].free_at = a_finish / 2
        horizon = []
        sharding.next_events(a_finish / 4, horizon)
        assert planned == [1, 1]
        assert horizon == [a_finish]
        head = sharding.queue[0][1]
        assert sharding._plan_head(head, set()) == real(sharding, head,
                                                        set())
        assert planned == [1, 1]
        # The resume claims moved: claiming two of the four instances
        # leaves no 3-chip gang to plan.
        assert sharding._plan_head(head, {2, 3}) is None
        assert planned == [1, 1, 1]


class TestPreemptedCount:
    """The sharded policy counts its preempted jobs, so a tick with none
    scans no running job; the count must always equal a scan."""

    @pytest.mark.parametrize("seed", [1, 3])
    def test_the_count_equals_the_preempted_jobs_at_every_tick(
            self, seed, monkeypatch):
        requests = mixed_traffic(
            80, arrival_rate=8000.0, chip_capacity=256, configs=(CFG,),
            sharded_nodes=1000, avg_degree=6, graph_kwargs=TINY_GK,
            critical_fraction=0.3, sharded_fraction=0.15,
            critical_slo_ms=1.0, seed=seed,
        )
        seen = []

        def check(policy):
            preempted = sum(1 for entry in policy.active if entry.preempted)
            assert policy.n_preempted == preempted
            seen.append(preempted)

        real_dispatch = _ShardedDispatch.dispatch
        real_next_events = _ShardedDispatch.next_events

        def dispatch(self, clock):
            check(self)
            return real_dispatch(self, clock)

        def next_events(self, clock, horizon):
            real_next_events(self, clock, horizon)
            check(self)

        monkeypatch.setattr(_ShardedDispatch, "dispatch", dispatch)
        monkeypatch.setattr(_ShardedDispatch, "next_events", next_events)
        outcome = serve_requests(
            requests, n_workers=4, chip_capacity=256, max_batch=4,
            coschedule=True, critical_slo_ms=1.0,
        )
        # The drain preempted and resumed: the count rose and fell.
        assert outcome.stats.n_preemptions > 0
        assert max(seen) > 0 and seen[-1] == 0


class TestClassDecidedOnce:
    """Admission decides each request's priority class once, onto
    ``QueuedRequest.priority``; batching, the sharded queue, preemption,
    results and trace args read it and derive nothing."""

    @staticmethod
    def _counted_drain(monkeypatch, **kwargs):
        """A ``mixed_sharded``-shaped drain (critical, batch and sharded
        traffic on a ring) with every ``priority_class`` call counted,
        recording the threshold each call passed; returns the outcome,
        the thresholds and each request's class at 1.0 ms."""
        requests = mixed_traffic(
            80, arrival_rate=8000.0, chip_capacity=256, configs=(CFG,),
            sharded_nodes=1000, avg_degree=6, graph_kwargs=TINY_GK,
            critical_fraction=0.3, sharded_fraction=0.15,
            critical_slo_ms=1.0, seed=1,
        )
        classes = [request.priority_class(1.0) for request in requests]
        real = InferenceRequest.priority_class
        thresholds = []

        def counting(self, critical_slo_ms=None):
            thresholds.append(critical_slo_ms)
            return real(self, critical_slo_ms)

        monkeypatch.setattr(InferenceRequest, "priority_class", counting)
        outcome = serve_requests(
            requests, n_workers=4, chip_capacity=256, max_batch=4,
            cluster_options={"topology": "ring"}, **kwargs,
        )
        # Every reader of the class ran: batches, sharded jobs, and
        # (under co-scheduling) a preemption.
        assert 0 < outcome.stats.n_sharded < len(requests)
        return outcome, thresholds, classes

    @pytest.mark.parametrize("traced", [False, True])
    def test_once_per_request_under_coscheduling(self, monkeypatch,
                                                 traced):
        outcome, thresholds, classes = self._counted_drain(
            monkeypatch, coschedule=True, critical_slo_ms=1.0,
            tracer=RecordingTracer() if traced else None,
        )
        assert outcome.stats.n_preemptions > 0
        assert thresholds == [1.0] * len(classes)
        assert [r.priority for r in outcome.results] == classes

    def test_never_without_coscheduling(self, monkeypatch):
        outcome, thresholds, _classes = self._counted_drain(
            monkeypatch, tracer=RecordingTracer(),
        )
        assert thresholds == []
        assert all(r.priority is None for r in outcome.results)


class TestFabricSharing:
    """The shared-fabric seam: background pricing and subtopologies."""

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["all-to-all", "ring", "mesh2d"]),
        seed=st.integers(0, 10_000),
    )
    def test_background_never_speeds_anything_up(self, kind, seed):
        topo = make_topology(kind, 4)
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 500, size=(4, 4)).astype(np.float64)
        np.fill_diagonal(words, 0.0)
        background = rng.integers(0, 300, size=max(topo.n_links, 1))
        alone = topo.comm_cycles(words)
        contended = topo.comm_cycles(
            words, background=background.astype(np.float64)
        )
        assert np.all(contended >= alone)

    def test_zero_background_is_exact_identity(self):
        topo = make_topology("ring", 5)
        words = np.full((5, 5), 64.0)
        np.fill_diagonal(words, 0.0)
        zeros = np.zeros(max(topo.n_links, 1))
        assert np.array_equal(
            topo.comm_cycles(words, background=zeros),
            topo.comm_cycles(words),
        )

    def test_background_validation(self):
        topo = make_topology("ring", 4)
        words = np.zeros((4, 4))
        with pytest.raises(ConfigError):
            topo.comm_cycles(words, background=np.zeros(3))
        with pytest.raises(ConfigError):
            topo.comm_cycles(
                words, background=np.full(max(topo.n_links, 1), -1.0)
            )
        with pytest.raises(ConfigError):
            topo.comm_cycles(
                words, background=np.full(max(topo.n_links, 1), math.nan)
            )

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["all-to-all", "ring", "mesh2d"]),
        data=st.data(),
    )
    def test_subtopology_preserves_pool_link_ids(self, kind, data):
        pool = make_topology(kind, 6)
        chips = data.draw(
            st.lists(
                st.integers(0, 5), min_size=2, max_size=4, unique=True
            )
        )
        sub = subtopology(pool, chips)
        assert sub.n_links == pool.n_links
        assert sub.n_chips == len(chips)
        for i, src in enumerate(chips):
            for j, dst in enumerate(chips):
                assert sub.routes[j][i] == pool.routes[dst][src]

    def test_subtopology_validation(self):
        pool = make_topology("ring", 4)
        with pytest.raises(ConfigError):
            subtopology(pool, [])
        with pytest.raises(ConfigError):
            subtopology(pool, [0, 0])
        with pytest.raises(ConfigError):
            subtopology(pool, [0, 4])
        with pytest.raises(ConfigError):
            subtopology("ring", [0, 1])

    def test_sum_of_gang_loads_is_pool_background(self):
        # Two gangs on one pool: each gang's link loads live in the
        # pool's link-id space, so summing them yields a well-formed
        # background for a third tenant.
        pool = make_topology("mesh2d", 6)
        sub_a, sub_b = subtopology(pool, [0, 1, 2]), subtopology(pool, [3, 5])
        words_a = np.full((3, 3), 32.0)
        np.fill_diagonal(words_a, 0.0)
        words_b = np.full((2, 2), 16.0)
        np.fill_diagonal(words_b, 0.0)
        total = sub_a.link_loads(words_a) + sub_b.link_loads(words_b)
        assert total.shape == (max(pool.n_links, 1),)
        assert np.all(np.isfinite(total)) and np.all(total >= 0)
        # ...and that background prices without error on the pool.
        pool_words = np.full((6, 6), 8.0)
        np.fill_diagonal(pool_words, 0.0)
        assert np.all(
            pool.comm_cycles(pool_words, background=total)
            >= pool.comm_cycles(pool_words)
        )


class TestMixedTraffic:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_deterministic_per_seed(self, seed):
        def trace():
            return [
                (r.graph, r.arrival_time, r.slo_ms, r.priority)
                for r in mixed_traffic(20, seed=seed, **MIXED_KW)
            ]

        assert trace() == trace()

    def test_composition_and_sizing(self):
        requests = mixed_traffic(
            60, arrival_rate=500.0, chip_capacity=256, seed=9,
            critical_fraction=0.3, sharded_fraction=0.2,
            critical_slo_ms=1.0, batch_slo_ms=20.0,
            avg_degree=6, graph_kwargs=TINY_GK,
        )
        assert len(requests) == 60
        critical = [r for r in requests if r.slo_ms == 1.0]
        sharded = [r for r in requests if r.graph.n_nodes > 256]
        batch = [r for r in requests if r.slo_ms == 20.0]
        assert critical and sharded and batch
        assert all(r.graph.n_nodes <= 256 for r in critical)
        assert all(
            r.priority_class(1.0) == 0 for r in critical
        )

    def test_arrivals_sorted_and_non_negative(self):
        requests = mixed_traffic(30, seed=2, **MIXED_KW)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)

    def test_fraction_validation(self):
        for bad in ({"critical_fraction": -0.1},
                    {"sharded_fraction": 1.5},
                    {"critical_fraction": 0.7, "sharded_fraction": 0.6}):
            kwargs = dict(MIXED_KW)
            kwargs.update(bad)
            with pytest.raises(ConfigError):
                mixed_traffic(10, **kwargs)

    def test_sharded_nodes_must_exceed_capacity(self):
        kwargs = dict(MIXED_KW)
        kwargs["sharded_nodes"] = 256
        with pytest.raises(ConfigError):
            mixed_traffic(10, **kwargs)


class TestPriorityClassification:
    @settings(max_examples=30, deadline=None)
    @given(slo=st.one_of(st.none(), st.floats(0.01, 100.0)))
    def test_derived_class(self, slo):
        request = _req(slo_ms=slo)
        if slo is None:
            assert request.priority_class(1.0) == 2
        elif slo <= 1.0:
            assert request.priority_class(1.0) == 0
        else:
            assert request.priority_class(1.0) == 1
        # Without a critical threshold there is no class 0.
        assert request.priority_class() == (2 if slo is None else 1)

    @settings(max_examples=20, deadline=None)
    @given(
        explicit=st.integers(0, 5),
        slo=st.one_of(st.none(), st.floats(0.01, 100.0)),
    )
    def test_explicit_priority_wins(self, explicit, slo):
        request = _req(slo_ms=slo, priority=explicit)
        assert request.priority_class(1.0) == explicit

    def test_priority_validation(self):
        for bad in (-1, 1.5, "high"):
            with pytest.raises(ConfigError):
                _req(priority=bad)


class TestServiceValidation:
    def test_critical_slo_ms_must_be_positive_finite(self):
        for bad in (0.0, -1.0, math.inf, math.nan, "fast", True, "1.0"):
            with pytest.raises(ConfigError):
                serve_requests([_req()], critical_slo_ms=bad)

    @pytest.mark.parametrize("coschedule", [True, False])
    def test_rejects_prebuilt_topology(self, coschedule):
        # The service sizes each gang's fabric itself, so a prebuilt
        # 4-chip ring cannot fit a 2-chip gang.
        topo = make_topology("ring", 4)
        with pytest.raises(ConfigError, match="topology"):
            InferenceService(
                n_workers=4, chip_capacity=256, coschedule=coschedule,
                cluster_options={"topology": topo},
            )

    @pytest.mark.parametrize("options, named", [
        ({"bogus": 1}, "'bogus'"),
        ({"topology": "torus"}, "'torus'"),
        ({"link_words_per_cycle": 0.0}, "link_words_per_cycle"),
        # Valid at pool size, but a 2-chip gang has no chip 3: chip ids
        # are gang positions, so the option is refused outright.
        ({"stragglers": (StragglerEvent(3, 0.0, 2.0),)}, "gang"),
        # Used only when a sharded job is first planned, mid-drain.
        ({"strategy": "bogus"}, "'bogus'"),
        # Truthy strings: each would switch its model on.
        ({"overlap": "false"}, "overlap must be a bool"),
        ({"rebalance": "no"}, "rebalance must be a bool"),
    ], ids=["unknown-key", "unknown-topology", "zero-link-bandwidth",
            "stragglers", "unknown-strategy", "overlap-string",
            "rebalance-string"])
    def test_bad_cluster_options_fail_at_construction(self, options,
                                                      named):
        # Rejected before any request is queued, not mid-drain.
        with pytest.raises(ConfigError, match=named):
            InferenceService(n_workers=4, chip_capacity=256,
                             cluster_options=options)

    def test_background_link_loads_is_reserved(self):
        with pytest.raises(ConfigError):
            serve_requests(
                [_req(graph=BIG)], n_workers=4, chip_capacity=256,
                cluster_options={"background_link_loads": (1.0,)},
            )
