"""The per-SPMM cycle model."""

import numpy as np
import pytest

from repro.accel import ArchConfig, SpmmJob, cyclemodel, simulate_spmm
from repro.errors import ConfigError


@pytest.fixture
def skewed_job(rng):
    row_nnz = rng.integers(1, 6, size=256)
    row_nnz[10] = 400
    return SpmmJob(name="test", row_nnz=row_nnz, n_rounds=12)


class TestSpmmJob:
    def test_work_accounting(self):
        job = SpmmJob(name="j", row_nnz=[1, 2, 3], n_rounds=4)
        assert job.work_per_round == 6
        assert job.total_work == 24

    def test_bad_tdq_raises(self):
        with pytest.raises(ConfigError):
            SpmmJob(name="j", row_nnz=[1], n_rounds=1, tdq="tdq9")

    def test_empty_rows_raises(self):
        with pytest.raises(ConfigError):
            SpmmJob(name="j", row_nnz=[], n_rounds=1)

    def test_negative_nnz_raises(self):
        with pytest.raises(ConfigError):
            SpmmJob(name="j", row_nnz=[-1], n_rounds=1)

    def test_zero_rounds_raises(self):
        with pytest.raises(ConfigError):
            SpmmJob(name="j", row_nnz=[1], n_rounds=0)


class TestStaticSimulation:
    def test_baseline_cycles_bounded_below_by_max_load(self, skewed_job):
        cfg = ArchConfig(n_pes=16, hop=0)
        result = simulate_spmm(skewed_job, cfg)
        # The PE owning the 400-nnz row needs >= 400 cycles per round.
        per_round = result.cycles_per_round[0] - cfg.drain_cycles
        assert per_round >= 400

    def test_rounds_identical_without_tuning(self, skewed_job):
        result = simulate_spmm(skewed_job, ArchConfig(n_pes=16, hop=1))
        assert len(set(result.cycles_per_round.tolist())) == 1

    def test_utilization_in_unit_range(self, skewed_job):
        for hop in (0, 1, 2):
            result = simulate_spmm(skewed_job, ArchConfig(n_pes=16, hop=hop))
            assert 0.0 < result.utilization <= 1.0

    def test_sharing_reduces_cycles(self, skewed_job):
        base = simulate_spmm(skewed_job, ArchConfig(n_pes=16, hop=0))
        shared = simulate_spmm(skewed_job, ArchConfig(n_pes=16, hop=2))
        assert shared.total_cycles < base.total_cycles

    def test_ideal_cycles(self, skewed_job):
        result = simulate_spmm(skewed_job, ArchConfig(n_pes=16))
        expected = -(-skewed_job.work_per_round // 16) * 12
        assert result.ideal_total_cycles == expected

    def test_sync_cycles_non_negative(self, skewed_job):
        result = simulate_spmm(skewed_job, ArchConfig(n_pes=16, hop=2))
        assert result.sync_cycles >= 0

    def test_initial_owner_respected(self, skewed_job):
        owner = np.zeros(256, dtype=np.int64)  # everything on PE 0
        result = simulate_spmm(
            skewed_job, ArchConfig(n_pes=16, hop=0), initial_owner=owner
        )
        per_round = result.cycles_per_round[0] - ArchConfig(n_pes=16).drain_cycles
        assert per_round >= skewed_job.work_per_round

    def test_backlog_measured(self, skewed_job):
        result = simulate_spmm(skewed_job, ArchConfig(n_pes=16, hop=0))
        assert result.final_backlog > 0
        assert result.total_backlog >= result.final_backlog

    def test_bad_job_type_raises(self):
        with pytest.raises(ConfigError):
            simulate_spmm("job", ArchConfig())

    def test_bad_config_type_raises(self, skewed_job):
        with pytest.raises(ConfigError):
            simulate_spmm(skewed_job, "config")


class TestTunedSimulation:
    def test_remote_improves_skewed_job(self, skewed_job):
        static = simulate_spmm(skewed_job, ArchConfig(n_pes=16, hop=0))
        tuned = simulate_spmm(
            skewed_job, ArchConfig(n_pes=16, hop=0, remote_switching=True)
        )
        assert tuned.total_cycles < static.total_cycles
        assert tuned.converged_round is not None

    def test_final_owner_differs_after_tuning(self, skewed_job):
        tuned = simulate_spmm(
            skewed_job, ArchConfig(n_pes=16, hop=0, remote_switching=True)
        )
        static = simulate_spmm(skewed_job, ArchConfig(n_pes=16, hop=0))
        assert not np.array_equal(tuned.final_owner, static.final_owner)

    def test_warm_start_skips_tuning_cost(self, skewed_job):
        cfg = ArchConfig(n_pes=16, hop=0, remote_switching=True)
        cold = simulate_spmm(skewed_job, cfg)
        warm = simulate_spmm(skewed_job, cfg, initial_owner=cold.final_owner)
        # Warm-started run begins at (or near) the converged makespan.
        assert warm.cycles_per_round[0] <= cold.cycles_per_round[0]
        assert warm.total_cycles <= cold.total_cycles

    def test_balanced_job_unaffected_by_tuning(self):
        job = SpmmJob(name="flat", row_nnz=np.full(64, 4), n_rounds=8)
        static = simulate_spmm(job, ArchConfig(n_pes=8, hop=0))
        tuned = simulate_spmm(
            job, ArchConfig(n_pes=8, hop=0, remote_switching=True)
        )
        assert tuned.total_cycles == static.total_cycles


class TestRawHazardBound:
    def test_deep_mac_binds_on_heavy_row(self):
        row_nnz = np.full(32, 2)
        row_nnz[0] = 100
        job = SpmmJob(name="raw", row_nnz=row_nnz, n_rounds=2)
        shallow = simulate_spmm(
            job, ArchConfig(n_pes=32, hop=2, mac_latency=5)
        )
        deep = simulate_spmm(
            job, ArchConfig(n_pes=32, hop=2, mac_latency=20)
        )
        # cooldown = 20 - 4 = 16 -> bound (100-1)*16 + 1 cycles/round.
        assert deep.total_cycles > shallow.total_cycles
        assert deep.cycles_per_round[0] >= (100 - 1) * 16 + 1

    def test_default_config_hides_hazards(self):
        row_nnz = np.full(32, 2)
        row_nnz[0] = 100
        job = SpmmJob(name="raw", row_nnz=row_nnz, n_rounds=2)
        result = simulate_spmm(job, ArchConfig(n_pes=32, hop=0))
        # At default T=5 / 4 queues the bound never exceeds the max load.
        assert result.cycles_per_round[0] - ArchConfig(n_pes=32).drain_cycles \
            == pytest.approx(104, abs=6)


def _drive_tuner(tuner, assignment, config, cycles, n_rounds, ideal):
    """Sequential reference tuning driver (one Hall bound per round).

    The original pre-vectorization control loop, kept bit-identical as
    the regression oracle for ``cyclemodel._drive_tuner_batched``, whose
    signature it shares. Fills ``cycles`` for every observed round;
    returns ``(rounds_consumed, max_backlog)``.
    """
    round_idx = 0
    max_backlog = 0
    while round_idx < n_rounds and not tuner.converged:
        makespan, _hall = cyclemodel._round_makespan_parts(assignment, config)
        max_backlog = max(max_backlog, max(0, makespan - ideal))
        cycles[round_idx] = makespan + config.drain_cycles
        tuner.observe_round(makespan)
        round_idx += 1
    return round_idx, max_backlog


class TestBatchedTuningDriver:
    """The chunked tuning driver is bit-identical to the sequential loop.

    ``simulate_spmm`` speculates the switch-only load trajectory and
    prices whole round batches in one Hall-bound kernel call; the
    oracle run swaps in :func:`_drive_tuner`, the original
    one-bound-per-round loop. Every :class:`SpmmResult` field the model
    exposes must agree between the two.
    """

    def _assert_identical(self, job, config):
        batched = simulate_spmm(job, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cyclemodel, "_drive_tuner_batched", _drive_tuner)
            sequential = simulate_spmm(job, config)
        assert np.array_equal(
            batched.cycles_per_round, sequential.cycles_per_round
        )
        assert batched.converged_round == sequential.converged_round
        assert np.array_equal(batched.final_owner, sequential.final_owner)
        assert batched.max_queue_backlog == sequential.max_queue_backlog
        assert batched.final_backlog == sequential.final_backlog
        assert batched.total_backlog == sequential.total_backlog
        return batched

    def test_identical_on_skewed_job(self, skewed_job):
        config = ArchConfig(n_pes=16, hop=1, remote_switching=True)
        result = self._assert_identical(skewed_job, config)
        assert result.tuned

    def test_identical_when_rounds_run_out_mid_tuning(self, rng):
        # Patient tuner, few rounds: convergence never happens, so the
        # chunk loop must consume exactly n_rounds and keep the final
        # (still-mutating) owner map.
        row_nnz = rng.integers(0, 12, size=96)
        row_nnz[3] = 300
        job = SpmmJob(name="short", row_nnz=row_nnz, n_rounds=3)
        config = ArchConfig(
            n_pes=12, hop=1, remote_switching=True,
            convergence_patience=50,
        )
        result = self._assert_identical(job, config)
        assert result.converged_round is None

    def test_identical_across_random_configs(self, rng):
        for _ in range(25):
            n_rows = int(rng.integers(8, 200))
            row_nnz = rng.integers(0, 25, size=n_rows)
            if rng.random() < 0.5:
                row_nnz[rng.integers(0, n_rows)] += int(
                    rng.integers(50, 400)
                )
            job = SpmmJob(
                name="rand", row_nnz=row_nnz,
                n_rounds=int(rng.integers(1, 24)),
            )
            config = ArchConfig(
                n_pes=int(rng.integers(2, 48)),
                hop=int(rng.integers(0, 3)),
                remote_switching=True,
                convergence_patience=int(rng.integers(1, 5)),
                switch_damping=float(rng.uniform(0.3, 1.0)),
                tracking_window=int(rng.integers(1, 4)),
                eq5_approximate=bool(rng.random() < 0.3),
            )
            self._assert_identical(job, config)

    def test_static_map_never_calls_the_tuning_driver(self, skewed_job,
                                                      monkeypatch):
        def no_tuning(*_args):
            raise AssertionError("a static map drove the tuner")

        monkeypatch.setattr(cyclemodel, "_drive_tuner_batched", no_tuning)
        config = ArchConfig(n_pes=16, hop=1, remote_switching=False)
        result = simulate_spmm(skewed_job, config)
        assert len(set(result.cycles_per_round.tolist())) == 1
        assert not result.tuned
