"""Hard per-chip row-ceiling tests for planning and rebalancing.

The ceiling contract: a chip's row count never exceeds its ceiling —
not in the initial plan (the constrained sweep spills to later chips),
not after any number of migration sweeps (transfers are clamped at the
receiver), under both partition strategies and both rebalancing
signals. Infeasible ceilings raise :class:`CeilingError` (a
:class:`ConfigError`) instead of silently overfilling, and with
``row_ceilings=None`` the unconstrained code path is bit-identical to
an inline reimplementation of the pre-ceiling sweep.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import ArchConfig
from repro.cluster import (
    PARTITION_STRATEGIES,
    ClusterConfig,
    StragglerEvent,
    check_row_ceilings,
    make_plan,
    rebalance_plan,
    simulate_multichip_gcn,
)
from repro.errors import CeilingError, ConfigError
from repro.serve import RmatGraphSpec

CHIP = ArchConfig(n_pes=16, hop=1, remote_switching=True)


def _skewed_row_nnz(rng, n):
    """A hub-skewed per-row work profile (the overfill trigger)."""
    row_nnz = rng.integers(0, 8, size=n)
    hubs = rng.integers(0, n, size=max(1, n // 16))
    row_nnz[hubs] += rng.integers(32, 256, size=hubs.size)
    return row_nnz.astype(np.int64)


@st.composite
def ceiling_cases(draw):
    n = draw(st.integers(16, 160))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    row_nnz = _skewed_row_nnz(rng, n)
    n_chips = draw(st.integers(2, 6))
    blocks_per_chip = draw(st.integers(1, 6))
    strategy = draw(st.sampled_from(PARTITION_STRATEGIES))
    # Ceilings from near the equal share (tight, often infeasible with
    # coarse blocks) up to the whole graph (slack).
    share = -(-n // n_chips)
    ceilings = tuple(
        draw(st.integers(max(1, share // 2), n)) for _ in range(n_chips)
    )
    return row_nnz, n_chips, blocks_per_chip, strategy, ceilings


@settings(max_examples=60, deadline=None)
@given(ceiling_cases())
def test_make_plan_never_exceeds_ceilings(case):
    row_nnz, n_chips, blocks_per_chip, strategy, ceilings = case
    try:
        plan = make_plan(
            row_nnz, n_chips, strategy=strategy,
            blocks_per_chip=blocks_per_chip, row_ceilings=ceilings,
        )
    except CeilingError:
        return
    counts = plan.chip_row_counts()
    assert np.all(counts <= np.asarray(ceilings)), (counts, ceilings)
    assert np.all(counts >= 1)


@settings(max_examples=60, deadline=None)
@given(ceiling_cases())
def test_rebalance_plan_never_exceeds_ceilings(case):
    row_nnz, n_chips, blocks_per_chip, strategy, ceilings = case
    try:
        plan = make_plan(
            row_nnz, n_chips, strategy=strategy,
            blocks_per_chip=blocks_per_chip, row_ceilings=ceilings,
        )
    except CeilingError:
        return
    cluster = ClusterConfig(
        n_chips=n_chips, chip=CHIP, strategy=strategy,
        blocks_per_chip=blocks_per_chip, row_ceilings=ceilings,
    )
    rebalanced, info = rebalance_plan(plan, row_nnz, cluster)
    counts = rebalanced.chip_row_counts()
    assert np.all(counts <= np.asarray(ceilings)), (counts, ceilings)
    assert info.migrated_blocks >= 0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 10), st.sampled_from(PARTITION_STRATEGIES))
def test_cycles_signal_respects_ceilings_end_to_end(seed, strategy):
    # The feedback controller migrates on measured cycles — with a
    # straggler pushing work off one chip, the clamp is what keeps the
    # receivers under their ceilings.
    dataset = RmatGraphSpec(
        n_nodes=256, avg_degree=6, f1=16, f2=8, f3=4, seed=seed
    ).build()
    ceilings = (96, 96, 96)
    cluster = ClusterConfig(
        n_chips=3, chip=CHIP, strategy=strategy,
        rebalance_signal="cycles", feedback_rounds=4,
        row_ceilings=ceilings,
        stragglers=(StragglerEvent(chip=0, onset_round=0.5, factor=3.0),),
    )
    report = simulate_multichip_gcn(dataset, cluster)
    counts = report.plan.chip_row_counts()
    assert np.all(counts <= np.asarray(ceilings)), counts


def _legacy_owner(row_nnz, n_chips, strategy, blocks_per_chip):
    """Inline reimplementation of the pre-ceiling unconstrained sweep."""
    n_rows = row_nnz.size
    n_blocks = min(n_chips * blocks_per_chip, n_rows)
    bounds = np.floor(
        np.arange(n_blocks + 1) * (n_rows / n_blocks)
    ).astype(np.int64)
    bounds[-1] = n_rows
    if strategy == "rows":
        owner = np.arange(n_blocks, dtype=np.int64) * n_chips // n_blocks
        return bounds, owner
    weights = np.add.reduceat(row_nnz, bounds[:-1]).astype(np.float64)
    total = float(weights.sum())
    owner = np.empty(n_blocks, dtype=np.int64)
    cum = 0.0
    block = 0
    for chip in range(n_chips):
        target = total * (chip + 1) / n_chips
        start = block
        ceiling = n_blocks - (n_chips - chip - 1)
        while block < ceiling and (block == start or cum < target):
            cum += weights[block]
            block += 1
        owner[start:block] = chip
    owner[block:] = n_chips - 1
    return bounds, owner


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2 ** 16),
    st.integers(8, 160),
    st.integers(2, 6),
    st.integers(1, 6),
    st.sampled_from(PARTITION_STRATEGIES),
)
def test_unconstrained_path_bit_identical(seed, n, n_chips, bpc, strategy):
    if n < n_chips:
        n = n_chips
    rng = np.random.default_rng(seed)
    row_nnz = _skewed_row_nnz(rng, n)
    bounds, owner = _legacy_owner(row_nnz, n_chips, strategy, bpc)
    plan = make_plan(
        row_nnz, n_chips, strategy=strategy, blocks_per_chip=bpc
    )
    assert np.array_equal(plan.block_bounds, bounds)
    assert np.array_equal(plan.owner, owner)
    # Fully slack ceilings must reproduce the unconstrained plan
    # exactly: the constrained sweep's stopping rule is the same.
    slack = make_plan(
        row_nnz, n_chips, strategy=strategy, blocks_per_chip=bpc,
        row_ceilings=(n,) * n_chips,
    )
    assert np.array_equal(slack.owner, owner)


class TestCeilingValidation:
    def test_infeasible_sum_raises(self):
        row_nnz = np.ones(100, dtype=np.int64)
        with pytest.raises(CeilingError):
            make_plan(row_nnz, 4, row_ceilings=(20, 20, 20, 20))

    def test_granularity_infeasible_raises(self):
        # 4 blocks of 25 rows: a 10-row ceiling cannot hold any block.
        row_nnz = np.ones(100, dtype=np.int64)
        with pytest.raises(CeilingError):
            make_plan(
                row_nnz, 4, blocks_per_chip=1,
                row_ceilings=(10, 100, 100, 100),
            )

    def test_ceiling_error_is_config_error(self):
        assert issubclass(CeilingError, ConfigError)

    def test_non_positive_ceiling_rejected(self):
        with pytest.raises(ConfigError):
            check_row_ceilings((0, 10), 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError):
            check_row_ceilings((10, 10, 10), 2)

    def test_none_passes_through(self):
        assert check_row_ceilings(None, 4) is None

    def test_rebalance_rejects_overfull_input_plan(self):
        row_nnz = np.ones(96, dtype=np.int64)
        plan = make_plan(row_nnz, 2, strategy="rows")
        cluster = ClusterConfig(
            n_chips=2, chip=CHIP, row_ceilings=(40, 96)
        )
        with pytest.raises(CeilingError):
            rebalance_plan(plan, row_nnz, cluster)


class TestCeilingSpill:
    def test_sweep_spills_across_chips(self):
        # All the weight is at the head: the unconstrained nnz sweep
        # gives the early chips tiny row counts and dumps the
        # weightless tail on the last chip — the overfill the ceilings
        # exist to stop.
        row_nnz = np.zeros(128, dtype=np.int64)
        row_nnz[:16] = 1000
        unconstrained = make_plan(row_nnz, 4, strategy="nnz")
        assert unconstrained.chip_row_counts().max() > 40
        plan = make_plan(
            row_nnz, 4, strategy="nnz", row_ceilings=(40, 40, 40, 40)
        )
        counts = plan.chip_row_counts()
        assert np.all(counts <= 40)
        assert int(counts.sum()) == 128

    def test_defaults_unchanged_without_ceilings(self):
        row_nnz = np.arange(128, dtype=np.int64)
        a = make_plan(row_nnz, 4)
        b = make_plan(row_nnz, 4, row_ceilings=None)
        assert np.array_equal(a.owner, b.owner)
        assert np.array_equal(a.block_bounds, b.block_bounds)
