"""Event-driven streaming serving: admission, SLO scheduling, latency.

Covers the simulated-clock serving loop end to end: request arrival /
deadline semantics, the :class:`StreamingScheduler`'s batch-cutting
rules (size, deadline slack, flush) and EDF dispatch
order, per-request timeline accounting, seeded fairness property tests
(no time travel, within-batch FIFO, no config-group starvation), a
golden latency-percentile regression pinning one fixed trace (same
spirit as ``tests/test_golden_cycles.py``), and the cache-invariance
guarantee: enabling the autotune cache may only change wall-clock
simulation cost, never a cycle count or a simulated timestamp.
"""

import math
import struct
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel import ArchConfig
from repro.errors import ConfigError
from repro.serve import (
    AutotuneCache,
    InferenceRequest,
    InferenceService,
    LatencyStats,
    QueuedRequest,
    RequestQueue,
    StreamingScheduler,
    RmatGraphSpec,
    bursty_arrivals,
    poisson_arrivals,
    serve_requests,
    streaming_traffic,
)
from repro.serve.bench import DEFAULT_GRAPH_KWARGS, default_serving_config
from repro.serve.placement import FirstFree
from repro.serve.request import InferenceResult
from repro.serve.service import ServiceStats, _fold_results
from test_obs import percentile

CFG_A = ArchConfig(n_pes=16, hop=1, remote_switching=True)
CFG_B = ArchConfig(n_pes=32, hop=1, remote_switching=True)
SPEC = RmatGraphSpec(n_nodes=384, f1=24, f2=12, f3=4, seed=5)
SPEC2 = RmatGraphSpec(n_nodes=384, f1=24, f2=12, f3=4, seed=6)
TINY_GRAPH_KWARGS = {"f1": 24, "f2": 12, "f3": 4}

# One shared warm cache for the property tests: modeled cycles (and so
# every simulated timestamp) are cache-invariant, and reusing the frozen
# fast path keeps the randomized suite fast.
_SHARED_CACHE = AutotuneCache()


def _request(config=CFG_A, arrival=0.0, slo_ms=None, graph=SPEC):
    return InferenceRequest(
        graph=graph, config=config, arrival_time=arrival, slo_ms=slo_ms
    )


def _queued(requests):
    queue = RequestQueue()
    queue.submit_many(requests)
    return queue.drain()


class TestRequestStreamingFields:
    def test_arrival_must_be_finite_non_negative(self):
        for bad in (-1.0, math.inf, math.nan, "later"):
            with pytest.raises(ConfigError):
                _request(arrival=bad)

    def test_slo_must_be_positive_finite(self):
        for bad in (0.0, -5.0, math.inf, "fast"):
            with pytest.raises(ConfigError):
                _request(slo_ms=bad)

    @pytest.mark.parametrize("graph", [object(), "cora", None],
                             ids=["object", "name", "none"])
    def test_graph_must_be_a_dataset_or_spec(self, graph):
        # Rejected at construction: a drain resolves graphs only after
        # emptying its queue, so a non-graph there would abort the
        # drain and lose every other queued request.
        with pytest.raises(ConfigError, match="graph must be"):
            _request(graph=graph)

    def test_deadline_derives_from_slo(self):
        assert _request(arrival=2.0, slo_ms=500.0).deadline == 2.5
        assert _request(arrival=2.0).deadline == math.inf


class TestPercentile:
    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 75) == 30.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 1) == 10.0

    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_rejects_bad_q(self):
        for bad in (0, -5, 101):
            with pytest.raises(ConfigError):
                percentile([1.0], bad)


def _result(shed, n_shards, cache_hit, slo_ms, total_cycles, utilization,
            arrival, queue_s, service_s):
    """A result shaped as the service records one: a shed request
    carries zeroed fields and finishes at its shed instant."""
    start = arrival + queue_s
    if shed:
        return InferenceResult(
            "r", "g", "", 0, 0.0, 0.0, False, -1, -1, 0.0, arrival, start,
            start, slo_ms, True,
        )
    return InferenceResult(
        "r", "g", "fp", total_cycles, service_s * 1e3, utilization,
        cache_hit, 0, 0, 0.0, arrival, start, start + service_s, slo_ms,
        False, n_shards,
    )


_SECONDS = st.floats(0.0, 10.0, allow_nan=False)
_RESULTS = st.lists(st.builds(
    _result,
    shed=st.booleans(),
    n_shards=st.sampled_from([1, 1, 2, 4]),
    cache_hit=st.booleans(),
    slo_ms=st.none() | st.floats(0.01, 1e4),
    total_cycles=st.integers(0, 10**9),
    utilization=st.floats(0.0, 1.0),
    arrival=_SECONDS,
    queue_s=_SECONDS,
    service_s=_SECONDS,
), max_size=40)
# The ServiceStats fields no result carries: the drain passes them in.
_COUNT_FIELDS = ("n_batches", "n_backfilled", "n_preemptions",
                 "n_evictions", "n_routed", "n_placement_hits",
                 "n_replications")
_COUNTS = st.fixed_dictionaries({
    **{name: st.integers(0, 50) for name in _COUNT_FIELDS},
    "wall_seconds": st.floats(0.0, 5.0),
})


def _two_pass(results, **counts):
    """The reference folds: each aggregate in a pass of its own over
    the served results, and :meth:`LatencyStats.from_results`."""
    served = [r for r in results if not r.shed]
    utils = [r.utilization for r in served]
    hits = sum(1 for r in served if r.cache_hit)
    stats = ServiceStats(
        n_requests=len(results),
        cache_hits=hits,
        cache_misses=len(served) - hits,
        total_cycles=sum(r.total_cycles for r in served),
        mean_utilization=sum(utils) / len(utils) if utils else 0.0,
        makespan_seconds=max((r.finish_time for r in served), default=0.0),
        n_shed=len(results) - len(served),
        n_sharded=sum(1 for r in served if r.n_shards > 1),
        **counts,
    )
    return stats, LatencyStats.from_results(results)


def _bits(record):
    """Every field of a stats record, floats as their IEEE bytes."""
    return [
        (f.name, type(value),
         struct.pack("<d", value) if isinstance(value, float) else value)
        for f in fields(record) for value in [getattr(record, f.name)]
    ]


class TestOnePassFold:
    """A drain folds its stats in one pass over its results; the
    figures must equal the per-field folds bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(results=_RESULTS, counts=_COUNTS)
    @example(results=[], counts={**dict.fromkeys(_COUNT_FIELDS, 0),
                                 "wall_seconds": 0.0})
    def test_one_pass_equals_the_two_pass_reference(self, results, counts):
        stats, latency = _fold_results(results, **counts)
        want_stats, want_latency = _two_pass(results, **counts)
        assert _bits(stats) == _bits(want_stats)
        assert _bits(latency) == _bits(want_latency)

    def test_a_drain_reports_the_fold_of_its_results(self):
        outcome = serve_requests(
            [_request(CFG_A, slo_ms=10000.0), _request(CFG_B),
             _request(CFG_A, arrival=1e-4, slo_ms=1e-3)],
            n_workers=2, cache=_SHARED_CACHE,
        )
        want_stats, want_latency = _two_pass(
            outcome.results, n_batches=outcome.stats.n_batches,
            wall_seconds=outcome.stats.wall_seconds,
        )
        assert _bits(outcome.stats) == _bits(want_stats)
        assert _bits(outcome.latency) == _bits(want_latency)


class TestStreamingSchedulerCuts:
    def test_size_cut_seals_at_max_batch(self):
        stream = StreamingScheduler(max_batch=2)
        items = _queued([_request(), _request(), _request()])
        for item in items:
            stream.admit(item)
        assert len(stream._ready) == 1
        assert stream._pending == 1

    def test_deadline_cut_without_estimate_fires_at_deadline(self):
        stream = StreamingScheduler()
        item = _queued([_request(arrival=1.0, slo_ms=500.0)])[0]
        stream.admit(item)
        assert stream.next_cut_time() == pytest.approx(1.5)
        assert stream.cut_due(1.4) == 0
        assert stream.cut_due(1.5) == 1
        assert len(stream._ready) == 1

    def test_estimate_pulls_the_cut_earlier(self):
        stream = StreamingScheduler()
        stream.observe(CFG_A, 1, 0.2)
        item = _queued([_request(arrival=1.0, slo_ms=500.0)])[0]
        stream.admit(item)
        # deadline 1.5s minus one estimated 0.2s service = cut at 1.3s.
        assert stream.next_cut_time() == pytest.approx(1.3)

    def test_estimate_scales_with_group_size(self):
        stream = StreamingScheduler()
        stream.observe(CFG_A, 1, 0.1)
        for item in _queued([
            _request(arrival=0.0, slo_ms=1000.0),
            _request(arrival=0.0, slo_ms=1000.0),
        ]):
            stream.admit(item)
        # Two queued members need two estimated services before the
        # tightest deadline: 1.0s - 2 * 0.1s.
        assert stream.next_cut_time() == pytest.approx(0.8)

    def test_observing_a_batch_equals_observing_each_member(self):
        # The service folds a whole batch's times in one call; the EWMA
        # must take them in order, exactly as one call per member.
        seconds = (0.0, 3e-4, 1e-4, 7e-4)
        batched = StreamingScheduler()
        batched.observe(CFG_A, 1, *seconds)
        single = StreamingScheduler()
        for value in seconds:
            single.observe(CFG_A, 1, value)
        assert batched.estimate(CFG_A, 1) == single.estimate(CFG_A, 1)
        assert batched.estimate(CFG_B, 1) == 0.0

    def test_no_deadline_no_timeout_never_cuts(self):
        stream = StreamingScheduler()
        stream.admit(_queued([_request(arrival=0.0)])[0])
        assert stream.next_cut_time() == math.inf
        assert stream.cut_due(1e9) == 0

    def test_flush_seals_everything(self):
        stream = StreamingScheduler()
        for item in _queued([_request(CFG_A), _request(CFG_B)]):
            stream.admit(item)
        stream.flush()
        assert stream._pending == 0
        assert len(stream._ready) == 2

    def test_pop_is_edf_ordered(self):
        stream = StreamingScheduler()
        items = _queued([
            _request(CFG_A, arrival=0.0, slo_ms=900.0),
            _request(CFG_B, arrival=0.0, slo_ms=200.0),
        ])
        for item in items:
            stream.admit(item)
        stream.flush()
        first, second = stream.pop_ready(), stream.pop_ready()
        assert first.config == CFG_B  # tighter deadline wins
        assert second.config == CFG_A
        assert (first.index, second.index) == (0, 1)

    def test_pop_ties_break_by_oldest_arrival(self):
        stream = StreamingScheduler()
        for item in _queued([_request(CFG_A), _request(CFG_B)]):
            stream.admit(item)
        stream.flush()
        assert stream.pop_ready().config == CFG_A

    def test_pop_empty_raises(self):
        with pytest.raises(ConfigError):
            StreamingScheduler().pop_ready()

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            StreamingScheduler(max_batch=0)
        with pytest.raises(ConfigError):
            StreamingScheduler().admit("not queued")


class TestArrivalProcesses:
    def test_poisson_is_seeded_and_monotone(self):
        a = poisson_arrivals(50, rate=100.0, seed=3)
        b = poisson_arrivals(50, rate=100.0, seed=3)
        assert a.tolist() == b.tolist()
        assert all(x <= y for x, y in zip(a, a[1:]))
        assert a[0] > 0.0

    def test_poisson_mean_rate_roughly_holds(self):
        times = poisson_arrivals(2000, rate=100.0, seed=1)
        assert times[-1] == pytest.approx(20.0, rel=0.2)

    def test_bursty_shares_timestamps(self):
        times = bursty_arrivals(16, rate=100.0, burst_size=4, seed=3)
        assert len(set(times.tolist())) == 4
        assert all(x <= y for x, y in zip(times, times[1:]))

    def test_bursty_matches_mean_rate(self):
        fluid = poisson_arrivals(4000, rate=200.0, seed=5)
        spiky = bursty_arrivals(4000, rate=200.0, burst_size=8, seed=5)
        assert spiky[-1] == pytest.approx(fluid[-1], rel=0.3)

    def test_rate_validated(self):
        with pytest.raises(ConfigError):
            poisson_arrivals(5, rate=0.0)
        with pytest.raises(ConfigError):
            bursty_arrivals(5, rate=-2.0)

    def test_streaming_traffic_stamps_requests(self):
        requests = streaming_traffic(
            6, arrival_rate=1000.0, slo_ms=4.0, family_size=2, n_nodes=384,
            seed=11, configs=(CFG_A,), graph_kwargs=TINY_GRAPH_KWARGS,
        )
        assert len(requests) == 6
        assert all(r.slo_ms == 4.0 for r in requests)
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0.0

    def test_streaming_traffic_rejects_unknown_process(self):
        with pytest.raises(ConfigError):
            streaming_traffic(4, arrival_rate=10.0, arrival="psychic")


class TestStreamingService:
    def _serve(self, requests, **kwargs):
        kwargs.setdefault("cache", _SHARED_CACHE)
        return serve_requests(requests, **kwargs)

    def test_no_request_starts_before_arrival(self):
        requests = streaming_traffic(
            12, arrival_rate=3000.0, slo_ms=2.0, family_size=2, n_nodes=384,
            seed=3, configs=(CFG_A, CFG_B), graph_kwargs=TINY_GRAPH_KWARGS,
        )
        outcome = self._serve(requests, n_workers=2, max_batch=3)
        for result in outcome.results:
            assert result.start_time >= result.arrival_time
            assert result.finish_time > result.start_time

    def test_results_in_arrival_order(self):
        requests = streaming_traffic(
            10, arrival_rate=2000.0, family_size=2, n_nodes=384, seed=9,
            configs=(CFG_A,), graph_kwargs=TINY_GRAPH_KWARGS,
        )
        outcome = self._serve(requests, n_workers=2, max_batch=4)
        assert [r.request_id for r in outcome.results] == list(range(10))

    def test_workers_never_overlap_in_simulated_time(self):
        requests = streaming_traffic(
            16, arrival_rate=4000.0, slo_ms=1.0, family_size=2, n_nodes=384,
            seed=5, configs=(CFG_A, CFG_B), graph_kwargs=TINY_GRAPH_KWARGS,
        )
        outcome = self._serve(requests, n_workers=2, max_batch=4)
        for worker in outcome.workers:
            spans = sorted(
                (r.start_time, r.finish_time)
                for r in outcome.results if r.worker == worker.index
            )
            for (_, fin), (start, _) in zip(spans, spans[1:]):
                assert start >= fin

    def test_run_is_deterministic(self):
        requests = streaming_traffic(
            12, arrival_rate=2500.0, slo_ms=1.5, family_size=2, n_nodes=384,
            seed=21, configs=(CFG_A,), graph_kwargs=TINY_GRAPH_KWARGS,
        )
        first = self._serve(requests, n_workers=2, max_batch=3)
        second = self._serve(requests, n_workers=2, max_batch=3)
        for a, b in zip(first.results, second.results):
            assert a.total_cycles == b.total_cycles
            assert a.start_time == b.start_time
            assert a.finish_time == b.finish_time
            assert a.batch == b.batch and a.worker == b.worker

    def test_cache_changes_nothing_but_wall_cost(self):
        # The invariance guarantee: cached vs uncached runs report
        # identical cycle counts AND identical simulated timelines, on
        # a tiny two-config trace and on the full-size serving mix (96
        # requests over four 4,096-node graphs, about a second).
        tiny = streaming_traffic(
            12, arrival_rate=2500.0, slo_ms=1.5, family_size=2, n_nodes=384,
            seed=13, configs=(CFG_A, CFG_B), graph_kwargs=TINY_GRAPH_KWARGS,
        )
        full = streaming_traffic(
            96, arrival_rate=400.0, slo_ms=20.0, family_size=4, n_nodes=4096,
            seed=7, configs=(default_serving_config(96),),
            graph_kwargs=DEFAULT_GRAPH_KWARGS,
        )
        for requests, max_batch in ((tiny, 3), (full, 8)):
            cold = serve_requests(requests, n_workers=2, cache=None,
                                  max_batch=max_batch)
            warm = serve_requests(requests, n_workers=2, cache=True,
                                  max_batch=max_batch)
            assert cold.stats.cache_hits == 0
            assert warm.stats.cache_hits > 0
            assert len(cold.results) == len(warm.results) == len(requests)
            for a, b in zip(cold.results, warm.results):
                assert a.total_cycles == b.total_cycles
                assert a.utilization == b.utilization
                assert a.start_time == b.start_time
                assert a.finish_time == b.finish_time
                assert a.batch == b.batch and a.worker == b.worker
            assert cold.latency == warm.latency
            assert cold.stats.n_batches == warm.stats.n_batches

    def test_tight_slo_is_reported_missed(self):
        # An SLO shorter than one service time cannot be met; the
        # service must serve the request anyway and report the miss.
        base = self._serve([_request(CFG_A)], n_workers=1)
        served = base.results[0]
        service_ms = (served.finish_time - served.start_time) * 1e3
        outcome = self._serve(
            [_request(CFG_A, slo_ms=service_ms / 10.0)], n_workers=1
        )
        assert outcome.results[0].slo_met is False
        assert outcome.latency.slo_requests == 1
        assert outcome.latency.slo_met == 0
        assert outcome.latency.slo_attainment == 0.0

    def test_latency_stats_fold(self):
        outcome = self._serve(
            [_request(CFG_A, slo_ms=10000.0), _request(CFG_A)],
            n_workers=1,
        )
        latency = outcome.latency
        assert isinstance(latency, LatencyStats)
        assert latency.n == 2
        assert latency.slo_requests == 1
        assert latency.slo_attainment == 1.0
        assert latency.p50_ms <= latency.p95_ms <= latency.p99_ms
        assert latency.max_ms >= latency.p99_ms
        assert latency.mean_queue_ms >= 0.0

    def test_each_drain_is_a_fresh_simulation_epoch(self):
        # Instance free_at must not leak across drains: a second drain
        # of instant traffic starts with idle instances, so its
        # queueing delay and makespan match the first drain's exactly.
        from repro.serve import InferenceService

        service = InferenceService(n_workers=1, cache=_SHARED_CACHE)
        outcomes = []
        for _ in range(2):
            service.submit_many([_request(CFG_A), _request(CFG_A)])
            outcomes.append(service.drain())
        first, second = outcomes
        for a, b in zip(first.results, second.results):
            assert b.start_time == a.start_time
            assert b.finish_time == a.finish_time
        assert second.stats.makespan_seconds == (
            first.stats.makespan_seconds
        )

    def test_new_stream_can_start_at_zero_after_drain(self):
        # The queue's monotonicity watermark resets per drain, so a
        # fresh trace whose first arrival predates the previous
        # stream's last one is accepted.
        from repro.serve import InferenceService

        service = InferenceService(n_workers=1, cache=_SHARED_CACHE)
        service.submit(_request(CFG_A, arrival=5.0))
        service.drain()
        service.submit(_request(CFG_A, arrival=0.5))
        outcome = service.drain()
        assert outcome.results[0].start_time >= 0.5

    def test_offline_drain_still_works_through_the_event_loop(self):
        # arrival_time=0 everywhere degenerates to the batch regime.
        outcome = self._serve(
            [_request(CFG_A) for _ in range(4)], n_workers=2
        )
        assert outcome.stats.n_requests == 4
        assert outcome.stats.makespan_seconds > 0.0
        assert outcome.stats.modeled_requests_per_second > 0.0


class _NeverPlaces(FirstFree):
    """A placement policy that never hands a sealed batch to any
    instance: once the arrivals are in, no event can fire again."""

    MAX_TICKS = 1_000

    def __init__(self):
        self.ticks = 0

    def place(self, items, candidates, clock, stream):
        return None

    def tick(self, clock):
        # Fail fast, without a test timeout, if the backstop is broken.
        self.ticks += 1
        if self.ticks > self.MAX_TICKS:
            pytest.fail(f"the drain spun {self.ticks} ticks without "
                        "raising the livelock backstop")


class TestLivelockBackstop:
    def test_a_loop_that_cannot_progress_raises(self):
        # The arrivals advance the clock first; then every tick leaves
        # the loop state unchanged, and the check raises at the second.
        service = InferenceService(n_workers=2, cache=None, max_batch=2)
        policy = service.placement = _NeverPlaces()
        service.submit_many([
            _request(arrival=at, slo_ms=1.0) for at in (0.0, 1e-4, 2e-4)
        ])
        with pytest.raises(RuntimeError,
                           match="serving event loop stalled"):
            service.drain()
        assert policy.ticks < 10


class TestGoldenLatency:
    """Pinned latency percentiles for one fixed-seed streaming trace.

    Same spirit as ``tests/test_golden_cycles.py``: the trace is fully
    seeded and every scheduling decision runs on the simulated clock,
    so exact (float-deterministic) equality is the right assertion.
    Any legitimate change to admission, batch cutting or dispatch order
    must update these numbers consciously, in the same commit.
    """

    GOLDEN = {
        "p50_ms": 0.20591511947571933,
        "p95_ms": 0.5,
        "p99_ms": 0.5001045472301135,
        "mean_queue_ms": 0.23718951832800925,
        "slo_requests": 24,
        "slo_met": 23,
        "total_cycles": 117315,
        "n_batches": 10,
        "makespan_seconds": 0.004741903713308145,
    }

    def _trace(self):
        return streaming_traffic(
            24, arrival_rate=5000.0, slo_ms=0.5, family_size=2, n_nodes=384,
            seed=11, configs=(CFG_A,), graph_kwargs=TINY_GRAPH_KWARGS,
        )

    def _outcome(self, cache):
        return serve_requests(
            self._trace(), n_workers=2, cache=cache, max_batch=4
        )

    @pytest.mark.parametrize("cache", [None, True], ids=["cold", "warm"])
    def test_latency_percentiles_pinned(self, cache):
        latency = self._outcome(cache).latency
        for name in ("p50_ms", "p95_ms", "p99_ms", "mean_queue_ms"):
            assert getattr(latency, name) == pytest.approx(
                self.GOLDEN[name], abs=1e-12
            ), name

    @pytest.mark.parametrize("cache", [None, True], ids=["cold", "warm"])
    def test_slo_attainment_pinned(self, cache):
        latency = self._outcome(cache).latency
        assert latency.slo_requests == self.GOLDEN["slo_requests"]
        assert latency.slo_met == self.GOLDEN["slo_met"]
        assert latency.slo_attainment == pytest.approx(23 / 24, abs=1e-12)

    @pytest.mark.parametrize("cache", [None, True], ids=["cold", "warm"])
    def test_cycles_and_schedule_pinned(self, cache):
        stats = self._outcome(cache).stats
        assert stats.total_cycles == self.GOLDEN["total_cycles"]
        assert stats.n_batches == self.GOLDEN["n_batches"]
        assert stats.makespan_seconds == pytest.approx(
            self.GOLDEN["makespan_seconds"], abs=1e-12
        )


CONFIG_POOL = (CFG_A, CFG_B)
GRAPH_POOL = (SPEC, SPEC2)
SLO_POOL = (None, 0.5, 2.0, 50.0)


@st.composite
def traffic_cases(draw):
    """A randomized streaming scenario with uniform per-config SLOs."""
    n = draw(st.integers(1, 18))
    gaps = draw(st.lists(
        st.floats(0.0, 2e-3, allow_nan=False), min_size=n, max_size=n,
    ))
    config_picks = draw(st.lists(
        st.integers(0, len(CONFIG_POOL) - 1), min_size=n, max_size=n,
    ))
    graph_picks = draw(st.lists(
        st.integers(0, len(GRAPH_POOL) - 1), min_size=n, max_size=n,
    ))
    slo_by_config = [
        draw(st.sampled_from(SLO_POOL)) for _ in CONFIG_POOL
    ]
    requests = []
    now = 0.0
    for gap, c, g in zip(gaps, config_picks, graph_picks):
        now += gap
        requests.append(InferenceRequest(
            graph=GRAPH_POOL[g], config=CONFIG_POOL[c],
            arrival_time=now, slo_ms=slo_by_config[c],
        ))
    max_batch = draw(st.one_of(st.none(), st.integers(1, 4)))
    n_workers = draw(st.integers(1, 3))
    return requests, max_batch, n_workers


class TestFairnessProperties:
    @settings(max_examples=25, deadline=None)
    @given(traffic_cases())
    def test_no_time_travel_and_no_starvation(self, case):
        requests, max_batch, n_workers = case
        outcome = serve_requests(
            list(requests), n_workers=n_workers, cache=_SHARED_CACHE,
            max_batch=max_batch,
        )
        # (c) every request is served — EDF plus end-of-stream flush
        # never starves a config group, even under bursts.
        assert len(outcome.results) == len(requests)
        assert (
            [r.request_id for r in outcome.results]
            == sorted(r.request_id for r in outcome.results)
        )
        for result in outcome.results:
            # (a) no request is served before it arrives.
            assert result.start_time >= result.arrival_time
            assert math.isfinite(result.finish_time)

    @settings(max_examples=25, deadline=None)
    @given(traffic_cases())
    def test_within_batch_arrival_order_preserved(self, case):
        requests, max_batch, n_workers = case
        outcome = serve_requests(
            list(requests), n_workers=n_workers, cache=_SHARED_CACHE,
            max_batch=max_batch,
        )
        by_batch = {}
        for result in outcome.results:
            by_batch.setdefault(result.batch, []).append(result)
        for members in by_batch.values():
            ids = [r.request_id for r in members]
            # (b) members keep arrival order and run back-to-back.
            assert ids == sorted(ids)
            members.sort(key=lambda r: r.request_id)
            for earlier, later in zip(members, members[1:]):
                assert later.start_time == pytest.approx(
                    earlier.finish_time
                )

    @settings(max_examples=25, deadline=None)
    @given(traffic_cases())
    def test_uniform_slo_keeps_config_groups_fifo(self, case):
        # With one SLO per config, deadlines are monotone in arrival,
        # so EDF must *dispatch* each config group in arrival order:
        # batch indices (assigned in dispatch order) never decrease
        # along the group, and members sharing a batch start in arrival
        # order. Start times alone may still interleave across batches
        # — two batches of one config can legitimately run concurrently
        # on different instances of the pool — so only the
        # single-instance pool pins the full start-time ordering.
        requests, max_batch, n_workers = case
        outcome = serve_requests(
            list(requests), n_workers=n_workers, cache=_SHARED_CACHE,
            max_batch=max_batch,
        )
        by_config = {}
        for result, request in zip(outcome.results, requests):
            by_config.setdefault(request.config, []).append(result)
        for members in by_config.values():
            batches = [r.batch for r in members]
            assert batches == sorted(batches)
            for earlier, later in zip(members, members[1:]):
                if earlier.batch == later.batch:
                    assert earlier.start_time <= later.start_time
            if n_workers == 1:
                starts = [r.start_time for r in members]
                assert starts == sorted(starts)


class _RescanningScheduler(StreamingScheduler):
    """The oracle for the scheduler's O(1) bookkeeping: every cut time
    that ``cut_due`` and ``next_cut_time`` decide by rescans its
    group's member deadlines and reads the estimate through the public
    :meth:`estimate`, and ``pending`` sums the groups (the running
    count the drain loop reads as ``_pending``)."""

    @property
    def pending(self):
        return sum(len(group.items) for group in self._groups.values())

    def _rescanned_cut_time(self, group):
        tightest = min(item.request.deadline for item in group.items)
        estimate = self.estimate(*group.key[:2]) * len(group.items)
        return tightest - estimate

    def next_cut_time(self):
        return min(
            (self._rescanned_cut_time(group)
             for group in self._groups.values() if group.items),
            default=math.inf,
        )

    def cut_due(self, now):
        cut = 0
        for group in self._groups.values():
            if group.items and self._rescanned_cut_time(group) <= now:
                self._cut(group, now, reason="deadline")
                cut += 1
        return cut


STREAM_CONFIGS = (CFG_A, CFG_B, ArchConfig(n_pes=64, hop=1,
                                           remote_switching=True))
# At a critical threshold of 1.0 ms these cover priority classes 0, 1
# and 2.
STREAM_SLOS = (None, 0.5, 1.0, 2.0, 50.0)


@st.composite
def scheduler_runs(draw):
    """Scheduler knobs, whether admitted items carry a priority class,
    and a random call sequence on one clock."""
    n_configs = draw(st.integers(1, 3))
    knobs = {
        "max_batch": draw(st.one_of(st.none(), st.integers(1, 4))),
        "shed_expired": draw(st.booleans()),
    }
    gap = st.floats(0.0, 3e-3, allow_nan=False)
    group = st.integers(0, n_configs - 1)
    op = st.one_of(
        st.tuples(st.just("admit"), gap, group,
                  st.sampled_from(STREAM_SLOS)),
        st.tuples(st.just("cut_due"), gap),
        st.tuples(st.just("observe"), group,
                  st.floats(0.0, 2e-3, allow_nan=False)),
        st.tuples(st.just("flush"), gap),
        st.tuples(st.just("pop_ready")),
    )
    return knobs, draw(st.booleans()), draw(st.lists(op, max_size=40))


def _scheduler_state(stream):
    return (
        len(stream._ready), stream.next_cut_time(),
        [(item.seq, when) for item, when in stream.shed_log],
    )


def _popped(stream):
    batch = stream.pop_ready()
    return batch.index, batch.config, [item.seq for item in batch.items]


class TestRunningDeadlineMinimum:
    @settings(max_examples=200, deadline=None)
    @given(scheduler_runs())
    # A first observation of 0.0 seconds is an observation: the next
    # one averages with it.
    @example(({"max_batch": None, "shed_expired": False}, False,
              [("observe", 0, 0.0), ("observe", 0, 1e-3)]))
    # A cut forgets its members' deadlines: the next member's own
    # deadline sets the group's cut time.
    @example(({"max_batch": None, "shed_expired": False}, False,
              [("admit", 0.0, 0, 0.5), ("flush", 0.0),
               ("admit", 0.0, 0, 50.0)]))
    def test_running_minimum_equals_a_rescan(self, run):
        knobs, classes, ops = run
        fast = StreamingScheduler(**knobs)
        oracle = _RescanningScheduler(**knobs)
        both = (fast, oracle)
        # The EWMA folded by hand, per config index: the first
        # observation sets it, each later one averages half-and-half.
        ewma = {}
        clock = 0.0
        for seq, op in enumerate(ops):
            kind = op[0]
            if kind == "admit":
                _kind, gap, config, slo_ms = op
                clock += gap
                item = QueuedRequest(seq=seq, request=InferenceRequest(
                    graph=SPEC, config=STREAM_CONFIGS[config],
                    arrival_time=clock, slo_ms=slo_ms,
                ))
                if classes:
                    # As a co-scheduling service's admission does.
                    item.priority = item.request.priority_class(1.0)
                for stream in both:
                    stream.admit(item, now=clock)
            elif kind == "cut_due":
                clock += op[1]
                assert fast.cut_due(clock) == oracle.cut_due(clock)
            elif kind == "observe":
                _kind, config, seconds = op
                for stream in both:
                    stream.observe(STREAM_CONFIGS[config], 1, seconds)
                ewma[config] = (0.5 * ewma[config] + 0.5 * seconds
                                if config in ewma else seconds)
            elif kind == "flush":
                clock += op[1]
                for stream in both:
                    stream.flush(now=clock)
            elif len(fast._ready):
                assert _popped(fast) == _popped(oracle)
            assert fast._pending == oracle.pending
            assert _scheduler_state(fast) == _scheduler_state(oracle)
            assert [fast.estimate(config, 1) for config in STREAM_CONFIGS] == [
                ewma.get(index, 0.0) for index in range(len(STREAM_CONFIGS))
            ]
        for stream in both:
            stream.flush(now=clock)
        while len(fast._ready):
            assert _popped(fast) == _popped(oracle)
        assert fast._pending == oracle.pending
        assert _scheduler_state(fast) == _scheduler_state(oracle)
