"""Straggler-event tests: mid-run slowdowns and feedback recovery.

A :class:`StragglerEvent` slows one chip's simulated compute by a
factor from a (possibly fractional) feedback round onward. These tests
pin the multiplier model (pre-onset clean, post-onset full factor,
onset-round coverage blend), the config validation, the bit-identity
of ``stragglers=None`` with the pre-straggler code path, and the
headline behavior: cycle-feedback rebalancing observes the slowdown
and beats the frozen load-signal plan.
"""

import numpy as np
import pytest

from repro.accel import ArchConfig
from repro.cluster import (
    ClusterConfig,
    StragglerEvent,
    simulate_multichip_gcn,
)
from repro.cluster.multichip import _straggler_multipliers
from repro.errors import ConfigError
from repro.serve import RmatGraphSpec

CHIP = ArchConfig(n_pes=32, hop=1, remote_switching=True)


def _cluster(signal="load", stragglers=None, **kwargs):
    return ClusterConfig(
        n_chips=4, chip=CHIP, strategy="nnz", rebalance_signal=signal,
        feedback_rounds=6, stragglers=stragglers, **kwargs
    )


def _dataset(n_nodes=1024, seed=7):
    return RmatGraphSpec(
        n_nodes=n_nodes, avg_degree=6, f1=16, f2=8, f3=4, seed=seed
    ).build()


class TestStragglerEvent:
    def test_defaults(self):
        ev = StragglerEvent(chip=1)
        assert ev.onset_round == 0.0
        assert ev.factor == 2.0

    def test_negative_chip_rejected(self):
        with pytest.raises(ConfigError):
            StragglerEvent(chip=-1)

    def test_factor_below_one_rejected(self):
        with pytest.raises(ConfigError):
            StragglerEvent(chip=0, factor=0.5)

    def test_negative_onset_rejected(self):
        with pytest.raises(ConfigError):
            StragglerEvent(chip=0, onset_round=-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError):
            StragglerEvent(chip=0, factor=float("inf"))
        with pytest.raises(ConfigError):
            StragglerEvent(chip=0, onset_round=float("nan"))

    def test_cluster_refuses_tuple_entries(self):
        # Every entry must be a StragglerEvent.
        with pytest.raises(ConfigError, match="stragglers entries"):
            _cluster(stragglers=((2, 1.5, 3.0),))

    def test_cluster_rejects_out_of_range_chip(self):
        with pytest.raises(ConfigError):
            _cluster(stragglers=(StragglerEvent(chip=4),))


class TestMultiplierModel:
    def test_none_when_no_stragglers(self):
        assert _straggler_multipliers(_cluster()) is None

    def test_none_before_onset(self):
        cluster = _cluster(
            stragglers=(StragglerEvent(chip=1, onset_round=1.5, factor=3.0),)
        )
        # Round 0 covers [0, 1): entirely before the onset.
        assert _straggler_multipliers(cluster, 0) is None

    def test_blend_in_onset_round(self):
        cluster = _cluster(
            stragglers=(StragglerEvent(chip=1, onset_round=1.5, factor=3.0),)
        )
        # Round 1 covers [1, 2); the last half runs 3x slow, so the
        # measured rate is 0.5 + 0.5 * 3 = 2.0.
        mult = _straggler_multipliers(cluster, 1)
        assert mult is not None
        assert mult[1] == pytest.approx(2.0)
        assert np.all(mult[[0, 2, 3]] == 1.0)

    def test_full_factor_after_onset(self):
        cluster = _cluster(
            stragglers=(StragglerEvent(chip=1, onset_round=1.5, factor=3.0),)
        )
        mult = _straggler_multipliers(cluster, 2)
        assert mult[1] == pytest.approx(3.0)

    def test_steady_state_applies_full_factor(self):
        cluster = _cluster(
            stragglers=(StragglerEvent(chip=1, onset_round=99.0, factor=3.0),)
        )
        mult = _straggler_multipliers(cluster)
        assert mult[1] == pytest.approx(3.0)

    def test_factor_one_collapses_to_none(self):
        cluster = _cluster(
            stragglers=(StragglerEvent(chip=1, factor=1.0),)
        )
        assert _straggler_multipliers(cluster) is None


class TestStragglerSimulation:
    def test_none_is_bit_identical_to_default(self):
        dataset = _dataset()
        for signal in ("load", "cycles"):
            base = simulate_multichip_gcn(dataset, _cluster(signal))
            explicit = simulate_multichip_gcn(
                dataset, _cluster(signal, stragglers=None)
            )
            assert base.total_cycles == explicit.total_cycles
            assert np.array_equal(base.plan.owner, explicit.plan.owner)

    def test_straggler_slows_frozen_plan(self):
        dataset = _dataset()
        clean = simulate_multichip_gcn(dataset, _cluster("load"))
        ev = (StragglerEvent(chip=0, onset_round=1.5, factor=3.0),)
        frozen = simulate_multichip_gcn(dataset, _cluster("load", ev))
        assert frozen.total_cycles > clean.total_cycles
        # The load signal never observes measured cycles: same plan.
        assert np.array_equal(frozen.plan.owner, clean.plan.owner)

    def test_feedback_recovers_part_of_the_slowdown(self):
        dataset = _dataset()
        clean = simulate_multichip_gcn(dataset, _cluster("load"))
        ev = (StragglerEvent(chip=0, onset_round=1.5, factor=3.0),)
        frozen = simulate_multichip_gcn(dataset, _cluster("load", ev))
        feedback = simulate_multichip_gcn(dataset, _cluster("cycles", ev))
        assert feedback.total_cycles < frozen.total_cycles
        assert feedback.rebalance.migrated_blocks > 0
        gap = frozen.total_cycles - clean.total_cycles
        recovered = (frozen.total_cycles - feedback.total_cycles) / gap
        assert recovered > 0.10

    def test_mid_round_onset_observed(self):
        # An onset past the last feedback round is invisible to the
        # measurements; the same event landing mid-loop must produce a
        # different (migrated) plan than the frozen one.
        dataset = _dataset()
        late = simulate_multichip_gcn(
            dataset,
            _cluster(
                "cycles",
                (StragglerEvent(chip=0, onset_round=99.0, factor=3.0),),
            ),
        )
        mid = simulate_multichip_gcn(
            dataset,
            _cluster(
                "cycles",
                (StragglerEvent(chip=0, onset_round=1.5, factor=3.0),),
            ),
        )
        assert mid.total_cycles < late.total_cycles
        assert not np.array_equal(mid.plan.owner, late.plan.owner)

    def test_steady_multipliers_charged_in_total(self):
        # Non-feedback composition charges the full steady factor.
        dataset = _dataset()
        ev = (StragglerEvent(chip=0, onset_round=0.0, factor=2.0),)
        clean = simulate_multichip_gcn(
            dataset, _cluster("load", rebalance=False)
        )
        slowed = simulate_multichip_gcn(
            dataset, _cluster("load", ev, rebalance=False)
        )
        slow_chip0 = slowed.chip_compute_per_layer[:, 0]
        clean_chip0 = clean.chip_compute_per_layer[:, 0]
        assert np.all(slow_chip0 >= 2 * clean_chip0)
        assert np.all(slow_chip0 <= 2 * clean_chip0 + 1)
