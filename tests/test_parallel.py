"""The multiprocessing backend and its bit-identity contract.

``ClusterConfig(workers=N)`` is a host-execution knob: it may only
change how long a sharded simulation takes on the wall clock, never a
modeled number. These tests pin that contract end to end — cycles,
cache contents, cache *stats*, LRU order and the traced event stream
all bit-identical to the sequential oracle — plus the
accounting/persistence bugfixes that shipped with the backend (gang
attribution, atomic cache saves, reconfiguration busy time). The
serving service has no pool of its own.
"""

import os

import numpy as np
import pytest

import repro.accel.gcnaccel as gcnaccel
from repro import parallel
from repro.accel.config import ArchConfig
from repro.accel.gcnaccel import GcnAccelerator
from repro.cluster.multichip import ClusterConfig, simulate_multichip_gcn
from repro.errors import ConfigError
from repro.obs import RecordingTracer, stream_fingerprint
from repro.serve.cache import AutotuneCache
from repro.serve.service import InferenceService, serve_requests
from repro.serve.traffic import RmatGraphSpec, synthetic_traffic

CFG = ArchConfig(n_pes=32, hop=1, remote_switching=True)
CFG_BIG = ArchConfig(n_pes=64, hop=1, remote_switching=True)


def _graph(seed, n_nodes=256):
    return RmatGraphSpec(
        n_nodes=n_nodes, avg_degree=6, f1=16, f2=8, f3=4, seed=seed
    ).build()


def _accel(seed, config=CFG, n_nodes=256):
    return GcnAccelerator(_graph(seed, n_nodes), config)


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


def _reports_equal(a, b):
    if a.total_cycles != b.total_cycles or a.cache_hit != b.cache_hit:
        return False
    if a.dataset != b.dataset or a.config != b.config:
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.pipelined_cycles != lb.pipelined_cycles:
            return False
        for sa, sb in zip(la.stages, lb.stages):
            if sa.total_cycles != sb.total_cycles:
                return False
            if not np.array_equal(sa.final_owner, sb.final_owner):
                return False
    return True


class TestWorkersKnob:
    def test_workers_validated(self):
        with pytest.raises(ConfigError):
            parallel.check_workers(0)
        with pytest.raises(ConfigError):
            parallel.check_workers(-1)
        with pytest.raises(ConfigError):
            ClusterConfig(n_chips=2, workers=0)

    def test_disable_switch_forces_sequential(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_DISABLE", "1")
        assert parallel.effective_workers(8) == 1
        monkeypatch.delenv("REPRO_PARALLEL_DISABLE")
        assert parallel.effective_workers(8) == 8

    def test_service_reserves_workers_cluster_option(self):
        with pytest.raises(ConfigError):
            InferenceService(cluster_options={"workers": 2})

    def test_service_has_no_workers_knob(self):
        # The service serves in one process: the pool is chip-level only.
        with pytest.raises(TypeError):
            InferenceService(workers=2)
        with pytest.raises(TypeError):
            serve_requests([], workers=2)


class TestSimulateAccels:
    def test_matches_sequential_reports_and_cache(self):
        accels = [_accel(s) for s in (1, 2, 3, 1)]  # seed 1 repeats
        seq_cache, par_cache = AutotuneCache(), AutotuneCache()
        seq = [a.run(cache=seq_cache) for a in accels]
        par = parallel.simulate_accels(
            [_accel(s) for s in (1, 2, 3, 1)],
            cache=par_cache, workers=2,
        )
        assert all(_reports_equal(a, b) for a, b in zip(seq, par))
        assert seq_cache.stats == par_cache.stats
        assert _entries_equal(seq_cache, par_cache)
        # The repeated workload is a hit in both backends.
        assert not seq[0].cache_hit and seq[3].cache_hit
        assert not par[0].cache_hit and par[3].cache_hit

    def test_matches_sequential_without_cache(self):
        seq = [a.run() for a in [_accel(4), _accel(5)]]
        par = parallel.simulate_accels(
            [_accel(4), _accel(5)], workers=2
        )
        assert all(_reports_equal(a, b) for a, b in zip(seq, par))

    def test_bounded_cache_evictions_identical(self):
        # Three distinct workloads through a 2-entry cache: the third
        # store evicts, and the parallel replay must evict the same key.
        seq_cache = AutotuneCache(max_entries=2)
        par_cache = AutotuneCache(max_entries=2)
        accels = [_accel(s) for s in (11, 12, 13)]
        seq = [a.run(cache=seq_cache) for a in accels]
        par = parallel.simulate_accels(
            [_accel(s) for s in (11, 12, 13)],
            cache=par_cache, workers=2,
        )
        assert all(_reports_equal(a, b) for a, b in zip(seq, par))
        assert seq_cache.stats == par_cache.stats
        assert seq_cache.stats.evictions == 1
        assert _entries_equal(seq_cache, par_cache)

    def test_replay_falls_back_when_presim_missing(self):
        # Seed 21 is warm when the pool scans the batch, so only seeds
        # 22 and 23 are presimulated; storing them evicts 21 from the
        # one-entry cache, and 21's replay must tune inline like the
        # oracle.
        seeds = (22, 23, 21)
        seq_cache = AutotuneCache(max_entries=1)
        par_cache = AutotuneCache(max_entries=1)
        _accel(21).run(cache=seq_cache)
        _accel(21).run(cache=par_cache)
        seq = [_accel(s).run(cache=seq_cache) for s in seeds]
        par = parallel.simulate_accels(
            [_accel(s) for s in seeds], cache=par_cache, workers=2,
        )
        assert all(_reports_equal(a, b) for a, b in zip(seq, par))
        assert [r.cache_hit for r in par] == [False, False, False]
        assert seq_cache.stats == par_cache.stats
        assert par_cache.stats.evictions == 3
        assert _entries_equal(seq_cache, par_cache)

    def test_presimulation_seeds_each_accelerators_cold_run(self,
                                                            monkeypatch):
        # Seeds 41 and 41 are two accelerators on one key: the pool runs
        # it once and both keep the result, so replay never tunes here.
        accels = [_accel(s) for s in (41, 42, 41)]
        cache = AutotuneCache()
        presim = parallel.presimulate(accels, cache=cache, workers=2)
        assert len(presim) == 2
        assert all(accel.remembers_cold_run() for accel in accels)
        tuned = []
        real = gcnaccel.simulate_spmm

        def counting(job, *args, **kwargs):
            tuned.append(job.name)
            return real(job, *args, **kwargs)

        monkeypatch.setattr(gcnaccel, "simulate_spmm", counting)
        reports = [accel.run(cache=cache) for accel in accels]
        assert tuned == []
        assert [r.cache_hit for r in reports] == [False, False, True]
        # An accelerator that keeps its cold run needs no pool run.
        cache.clear()
        assert parallel.presimulate(accels, cache=cache, workers=2) == {}

    def test_warm_cache_skips_presimulation(self):
        cache = AutotuneCache()
        _accel(31).run(cache=cache)
        presim = parallel.presimulate(
            [_accel(31)], cache=cache, workers=2
        )
        assert presim == {}
        # Probing for the warm entry must not have touched the stats.
        assert cache.stats.lookups == 1


class TestClusterParallel:
    def test_multichip_bit_identical(self):
        ds = _graph(7, n_nodes=1024)
        seq_cache, par_cache = AutotuneCache(), AutotuneCache()
        seq = simulate_multichip_gcn(
            ds, ClusterConfig(n_chips=4, workers=1), cache=seq_cache
        )
        par = simulate_multichip_gcn(
            ds, ClusterConfig(n_chips=4, workers=2), cache=par_cache
        )
        assert seq.total_cycles == par.total_cycles
        assert seq.comm_cycles == par.comm_cycles
        assert seq_cache.stats == par_cache.stats
        assert _entries_equal(seq_cache, par_cache)

    def test_feedback_rebalance_bit_identical(self):
        ds = _graph(9, n_nodes=1024)
        cluster = dict(n_chips=4, rebalance_signal="cycles",
                       feedback_rounds=2)
        seq = simulate_multichip_gcn(
            ds, ClusterConfig(workers=1, **cluster)
        )
        par = simulate_multichip_gcn(
            ds, ClusterConfig(workers=4, **cluster)
        )
        assert seq.total_cycles == par.total_cycles
        assert (seq.rebalance.migrated_blocks
                == par.rebalance.migrated_blocks)

    def test_straggler_ceiling_cluster_bit_identical(self):
        # Stragglers and hard row ceilings both perturb the feedback
        # rebalancer — the seam the parallel presimulation cuts across.
        # The multiprocessing backend must replay that config exactly.
        ds = _graph(8, n_nodes=1024)
        cluster = dict(
            n_chips=4, rebalance_signal="cycles", feedback_rounds=3,
            stragglers=((1, 1.0, 2.0),),
            row_ceilings=(384, 384, 384, 384),
        )
        seq_cache, par_cache = AutotuneCache(), AutotuneCache()
        seq = simulate_multichip_gcn(
            ds, ClusterConfig(workers=1, **cluster), cache=seq_cache
        )
        par = simulate_multichip_gcn(
            ds, ClusterConfig(workers=4, **cluster), cache=par_cache
        )
        assert seq.total_cycles == par.total_cycles
        assert seq.layer_cycles == par.layer_cycles
        assert seq.comm_cycles == par.comm_cycles
        assert [r.total_cycles for r in seq.chip_reports] == [
            r.total_cycles for r in par.chip_reports
        ]
        assert (seq.rebalance.migrated_blocks
                == par.rebalance.migrated_blocks)
        assert seq_cache.stats == par_cache.stats
        assert _entries_equal(seq_cache, par_cache)

    @pytest.mark.parametrize("signal", ["cycles", "load"])
    @pytest.mark.parametrize("cached", [True, False])
    def test_traced_stream_bit_identical(self, cached, signal):
        # The pool's traced splice: chips run traced in the workers, and
        # their tuner events must land where the sequential run emits
        # them — with a cache between lookup and store, without one in
        # chip order. The cache-less feedback controller keeps its
        # untraced exploration reports, so its stream has no tuner
        # events to splice.
        ds = _graph(9, n_nodes=1024)
        cluster = dict(n_chips=4, chip=CFG, rebalance_signal=signal,
                       feedback_rounds=2)

        def run(workers):
            tracer = RecordingTracer()
            cache = AutotuneCache() if cached else None
            if cached:
                cache.tracer = tracer
            report = simulate_multichip_gcn(
                ds, ClusterConfig(workers=workers, **cluster),
                cache=cache, tracer=tracer,
            )
            return report, tracer, cache

        seq, seq_trace, seq_cache = run(1)
        par, par_trace, par_cache = run(2)
        spliced = any(e.name == "tuner.round" for e in seq_trace.events)
        assert spliced == (cached or signal == "load")
        assert stream_fingerprint(par_trace.events) == stream_fingerprint(
            seq_trace.events
        )
        assert seq.total_cycles == par.total_cycles
        assert seq.layer_cycles == par.layer_cycles
        assert (seq.rebalance.migrated_blocks
                == par.rebalance.migrated_blocks)
        assert all(_reports_equal(a, b) for a, b in zip(
            seq.chip_reports, par.chip_reports, strict=True,
        ))
        if cached:
            assert seq_cache.stats == par_cache.stats
            assert _entries_equal(seq_cache, par_cache)


class TestGangAccounting:
    def test_gang_members_accounted_identically(self):
        # Every request needs 2 shards, so each batch gangs up the
        # whole 2-instance pool — both members see identical traffic.
        outcome = serve_requests(
            synthetic_traffic(3, n_graphs=1, n_nodes=1024, seed=3,
                              configs=(CFG,)),
            n_workers=2, chip_capacity=512,
        )
        assert outcome.stats.n_sharded == 3
        gang = [w for w in outcome.workers if w.batches_served]
        assert len(gang) == 2
        # The invariant the skew bug violated: every gang member
        # records the same requests, batches and modeled busy time, and
        # the wall-clock cost splits evenly instead of piling onto
        # workers[0].
        assert len({w.requests_served for w in gang}) == 1
        assert len({w.batches_served for w in gang}) == 1
        assert gang[0].requests_served == gang[0].batches_served == 3
        modeled = {round(w.modeled_busy_seconds, 12) for w in gang}
        assert len(modeled) == 1
        busy = [w.busy_seconds for w in gang]
        assert max(busy) == pytest.approx(min(busy))

    def test_reconfig_interval_counts_as_busy(self):
        # Two back-to-back batches under different configs on one
        # instance: the config switch charges reconfig_cycles, and the
        # instance is occupied for that interval too — modeled busy
        # time must equal its continuous span from first claim to last
        # finish, reconfiguration included.
        requests = synthetic_traffic(
            2, n_graphs=1, n_nodes=256, seed=5, configs=(CFG, CFG_BIG),
        )
        outcome = serve_requests(
            requests, n_workers=1, reconfig_cycles=50_000,
        )
        worker = outcome.workers[0]
        assert worker.reconfigs == 1
        last_finish = max(r.finish_time for r in outcome.results)
        assert worker.modeled_busy_seconds == pytest.approx(last_finish)


class TestCachePeekAndMerge:
    def test_peek_has_no_side_effects(self):
        cache = AutotuneCache()
        a, b = _accel(41), _accel(42)
        a.run(cache=cache)
        b.run(cache=cache)
        before = cache.stats
        order = list(cache._entries.keys())
        assert cache.peek(a.fingerprint(), a.config) is not None
        assert cache.peek("missing", CFG) is None
        assert cache.stats == before
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


class TestParallelBenchHarness:
    def test_compare_parallel_scaling_smoke(self):
        from repro.analysis import compare_parallel_scaling

        rows, text = compare_parallel_scaling(
            worker_counts=(1, 2), chip_counts=(2,), n_nodes=512,
            weak_nodes_per_chip=256, pes_per_chip=32, seed=3,
        )
        assert [r["workers"] for r in rows] == [1, 2]
        assert all(r["identical"] in ("oracle", "yes") for r in rows)
        assert "bit-identical" in text

    def test_cli_parallel_bench(self, capsys, tmp_path):
        from repro.cli import main

        code = main([
            "parallel-bench", "--worker-counts", "1,2", "--chips", "2",
            "--nodes", "512", "--weak-nodes-per-chip", "256",
            "--pes-per-chip", "32", "--seed", "3",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        assert (tmp_path / "parallel_scaling.csv").exists()

    def test_cli_shard_bench_workers_flag(self, capsys):
        from repro.cli import main

        code = main([
            "shard-bench", "--chips", "1,2", "--nodes", "512",
            "--weak-nodes-per-chip", "256", "--pes-per-chip", "32",
            "--workers", "2",
        ])
        assert code == 0
        assert "Sharded scaling" in capsys.readouterr().out
