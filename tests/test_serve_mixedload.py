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
  ``shared_comm_cycles``, ``subtopology`` link-id preservation), the
  :func:`mixed_traffic` generator, and the service's co-scheduling
  parameter validation.

Also pins the EASY-backfill stranding fix (satellite d): freeing
workers are no longer held idle behind a queue head that cannot fit
yet — a smaller sharded job behind the head starts immediately, and
the head still starts at the instant it would have anyway.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.accel import ArchConfig
from repro.cluster import Topology, make_topology, subtopology
from repro.errors import ConfigError
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
        # critical_slo_ms alone (coschedule off) must not change results.
        requests = streaming_traffic(
            10, arrival_rate=500.0, slo_ms=2.0, seed=4, **TRAFFIC_KW
        )
        base = serve_requests(requests, n_workers=2)
        scoped = serve_requests(requests, n_workers=2, critical_slo_ms=1.0)
        assert [_result_key(r) for r in scoped.results] == [
            _result_key(r) for r in base.results
        ]


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


class TestFabricSharing:
    """The shared-fabric seam: background pricing and subtopologies."""

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["all-to-all", "ring", "mesh2d"]),
        n=st.integers(2, 6),
        seed=st.integers(0, 10_000),
    )
    def test_shared_single_job_equals_exclusive(self, kind, n, seed):
        topo = make_topology(kind, n)
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 500, size=(n, n)).astype(np.float64)
        np.fill_diagonal(words, 0.0)
        (shared,) = topo.shared_comm_cycles([words])
        assert np.array_equal(shared, topo.comm_cycles(words))

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
        for bad in (0.0, -1.0, math.inf, math.nan, "fast"):
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
    ], ids=["unknown-key", "unknown-topology", "zero-link-bandwidth"])
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
