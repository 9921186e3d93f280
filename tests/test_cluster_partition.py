"""Unit tests for the graph partitioner and halo-exchange sets."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    PARTITION_STRATEGIES,
    ShardPlan,
    check_capacities,
    halo_exchange,
    make_plan,
)
from repro.cluster.partition import _ceiling_reach, _suffix_need
from repro.errors import CeilingError, ConfigError, ShapeError
from repro.sparse import CooMatrix, coo_to_csr
from sharded_oracle import halo_rows, take_rows
from sparse_helpers import csr_to_dense


def chip_loads(plan, row_nnz):
    """Per-chip total weight of ``row_nnz`` under ``plan``."""
    return np.bincount(
        plan.owner, weights=plan.block_weights(row_nnz),
        minlength=plan.n_chips,
    ).astype(np.int64)


def _rng_row_nnz(n, seed=0, hub=None):
    rng = np.random.default_rng(seed)
    row_nnz = rng.integers(0, 9, size=n).astype(np.int64)
    if hub is not None:
        row_nnz[hub] += 300
    return row_nnz


class TestMakePlan:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("n_chips", [1, 2, 3, 7])
    def test_plan_covers_every_row_once(self, strategy, n_chips):
        row_nnz = _rng_row_nnz(97)
        plan = make_plan(row_nnz, n_chips, strategy=strategy)
        counted = np.zeros(97, dtype=np.int64)
        for chip in range(n_chips):
            counted[plan.chip_rows(chip)] += 1
        assert np.all(counted == 1)
        assert plan.chip_row_counts().sum() == 97

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_blocks_identical_across_strategies(self, strategy):
        # Both strategies share one block structure; only the
        # assignment differs — that isolates the comparison.
        row_nnz = _rng_row_nnz(64, hub=0)
        reference = make_plan(row_nnz, 4, strategy="rows")
        plan = make_plan(row_nnz, 4, strategy=strategy)
        assert np.array_equal(plan.block_bounds, reference.block_bounds)

    def test_nnz_strategy_balances_hub_graph(self):
        row_nnz = _rng_row_nnz(256, hub=3)
        rows = chip_loads(make_plan(row_nnz, 4, strategy="rows"), row_nnz)
        nnz = chip_loads(make_plan(row_nnz, 4, strategy="nnz"), row_nnz)
        assert nnz.max() < rows.max()

    def test_owner_is_contiguous_runs(self):
        row_nnz = _rng_row_nnz(128, hub=10)
        for strategy in PARTITION_STRATEGIES:
            plan = make_plan(row_nnz, 4, strategy=strategy)
            assert np.all(np.diff(plan.owner) >= 0)

    def test_chip_loads_match_row_sums(self):
        row_nnz = _rng_row_nnz(77)
        plan = make_plan(row_nnz, 3, strategy="nnz")
        for chip in range(3):
            assert chip_loads(plan, row_nnz)[chip] == (
                row_nnz[plan.chip_rows(chip)].sum()
            )

    def test_more_chips_than_rows_rejected(self):
        with pytest.raises(ConfigError):
            make_plan(np.ones(3, dtype=np.int64), 4)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            make_plan(np.ones(16, dtype=np.int64), 2, strategy="magic")

    def test_every_chip_owns_a_block(self):
        # Extremely skewed profile: the greedy sweep must still leave
        # one block for every chip.
        row_nnz = np.zeros(32, dtype=np.int64)
        row_nnz[0] = 10_000
        plan = make_plan(row_nnz, 8, strategy="nnz")
        assert np.unique(plan.owner).size == 8


def _unconstrained_plan_reference(row_nnz, n_chips, strategy,
                                  blocks_per_chip, capacities):
    """``(block_bounds, owner)`` of the unconstrained assignment sweep
    ``make_plan`` ran beside the ceiling-clamped one: the oracle for a
    plan without ``row_ceilings``."""
    capacities = check_capacities(capacities, n_chips)
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
    cum_cap = np.cumsum(capacities)
    cap_total = float(cum_cap[-1])
    owner = np.empty(n_blocks, dtype=np.int64)
    cum = 0.0
    block = 0
    for chip in range(n_chips):
        target = total * float(cum_cap[chip]) / cap_total
        start = block
        # Leave one block per remaining chip; take at least one.
        ceiling = n_blocks - (n_chips - chip - 1)
        while block < ceiling and (block == start or cum < target):
            cum += weights[block]
            block += 1
        owner[start:block] = chip
    # Weightless trailing blocks never push ``cum`` past the final
    # target; they go to the last chip.
    owner[block:] = n_chips - 1
    return bounds, owner


@st.composite
def unconstrained_plans(draw):
    """Random non-negative profiles (zero rows and hub rows), chip and
    block counts, and uniform or heterogeneous capacities."""
    n_chips = draw(st.integers(1, 9))
    n_rows = draw(st.integers(n_chips, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    row_nnz = rng.integers(0, draw(st.sampled_from([1, 2, 9, 40])),
                           size=n_rows)
    row_nnz[rng.random(n_rows) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0
    hubs = rng.integers(0, n_rows, size=draw(st.integers(0, 4)))
    row_nnz[hubs] += rng.integers(100, 20_000, size=hubs.size)
    capacities = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                 min_size=n_chips, max_size=n_chips),
        st.lists(st.floats(0.1, 8.0), min_size=n_chips, max_size=n_chips),
    ))
    return (row_nnz, n_chips, draw(st.sampled_from(PARTITION_STRATEGIES)),
            draw(st.integers(1, 12)), capacities)


class TestMakePlanMatchesUnconstrainedSweep:
    """A plan without ceilings runs the clamped sweep under ceilings no
    chip can reach; it must equal the unconstrained sweep exactly."""

    @settings(max_examples=200, deadline=None)
    @given(unconstrained_plans())
    # Weightless blocks: a cumulative weight that reaches a target
    # exactly stops there.
    @example((np.zeros(40, dtype=np.int64), 3, "nnz", 4, None))
    @example((np.array([1, 1, 0, 0, 1, 1, 0, 0]), 2, "nnz", 4, None))
    def test_plan_equals_reference(self, case):
        row_nnz, n_chips, strategy, blocks_per_chip, capacities = case
        plan = make_plan(row_nnz, n_chips, strategy=strategy,
                         blocks_per_chip=blocks_per_chip,
                         capacities=capacities)
        bounds, owner = _unconstrained_plan_reference(
            row_nnz, n_chips, strategy, blocks_per_chip, capacities
        )
        assert np.array_equal(plan.block_bounds, bounds)
        assert np.array_equal(plan.owner, owner)


def _suffix_need_reference(bounds, ceilings, n_chips):
    """``_suffix_need`` as one :func:`_ceiling_reach` call per candidate
    start block, scanned in ascending order: the oracle for its
    one-search-per-chip form."""
    n_blocks = bounds.size - 1
    smallest_block = int(np.diff(bounds).min())
    need = np.empty(n_chips + 1, dtype=np.int64)
    need[n_chips] = n_blocks
    for chip in range(n_chips - 1, -1, -1):
        if int(ceilings[chip]) < smallest_block:
            raise CeilingError(
                f"chip {chip} row ceiling {int(ceilings[chip])} is below "
                f"the block granularity ({smallest_block} rows): raise "
                "blocks_per_chip or the ceiling"
            )
        found = -1
        for b in range(n_blocks - (n_chips - chip) + 1):
            reach = _ceiling_reach(bounds, b, ceilings[chip])
            hi = min(reach, n_blocks - (n_chips - chip - 1))
            if max(b + 1, int(need[chip + 1])) <= hi:
                found = b
                break
        if found < 0:
            raise CeilingError(
                f"row_ceilings {ceilings.tolist()} admit no contiguous "
                f"plan over {n_blocks} blocks: chips {chip}..{n_chips - 1} "
                "cannot cover the remaining rows"
            )
        need[chip] = found
    if need[0] > 0:
        raise CeilingError(
            f"row_ceilings {ceilings.tolist()} admit no contiguous plan: "
            f"chip 0 would need to start at block {int(need[0])}"
        )
    return need


@st.composite
def ceiling_cases(draw):
    """Block bounds built as ``make_plan`` builds them, and per-chip
    ceilings from below the block size to beyond the graph, so that
    feasible and infeasible sets both occur."""
    n_chips = draw(st.integers(1, 9))
    n_rows = draw(st.integers(n_chips, 400))
    n_blocks = min(n_chips * draw(st.integers(1, 12)), n_rows)
    bounds = np.floor(
        np.arange(n_blocks + 1) * (n_rows / n_blocks)
    ).astype(np.int64)
    bounds[-1] = n_rows
    share = -(-n_rows // n_chips)
    top = draw(st.sampled_from([share, 2 * share, n_rows]))
    ceilings = np.asarray(draw(st.lists(
        st.integers(1, top), min_size=n_chips, max_size=n_chips,
    )), dtype=np.int64)
    return bounds, ceilings, n_chips


def _need_or_error(bounds, ceilings, n_chips, fn):
    try:
        return fn(bounds, ceilings, n_chips).tolist()
    except CeilingError as exc:
        return str(exc)


class TestSuffixNeedMatchesPerStartScan:
    """The first feasible start of each chip, found by one search over
    every candidate start, equals the per-start scan's: the same
    ``need``, or the same :class:`CeilingError` message."""

    @settings(max_examples=300, deadline=None)
    @given(ceiling_cases())
    # Ceilings that fit exactly, and one chip too small for a block.
    @example((np.array([0, 2, 4, 6, 8]), np.array([4, 4]), 2))
    @example((np.array([0, 3, 6, 9]), np.array([9, 2, 9]), 3))
    def test_need_equals_reference(self, case):
        bounds, ceilings, n_chips = case
        assert _need_or_error(bounds, ceilings, n_chips, _suffix_need) == (
            _need_or_error(bounds, ceilings, n_chips,
                           _suffix_need_reference)
        )


class TestNegativeProfileRejected:
    def _negative(self):
        row_nnz = _rng_row_nnz(64)
        row_nnz[5] = -1
        return row_nnz

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_make_plan(self, strategy):
        with pytest.raises(ConfigError, match="non-negative"):
            make_plan(self._negative(), 4, strategy=strategy)

    def test_block_weights(self):
        plan = make_plan(_rng_row_nnz(64), 4)
        with pytest.raises(ConfigError, match="non-negative"):
            plan.block_weights(self._negative())


class TestShardPlanValidation:
    def test_rejects_gap_in_bounds(self):
        with pytest.raises(ConfigError):
            ShardPlan(n_rows=10, n_chips=2,
                      block_bounds=np.array([0, 5, 5, 10]),
                      owner=np.array([0, 1, 1]))

    def test_rejects_missing_chip(self):
        with pytest.raises(ConfigError):
            ShardPlan(n_rows=10, n_chips=3,
                      block_bounds=np.array([0, 5, 10]),
                      owner=np.array([0, 1]))

    def test_rejects_owner_out_of_range(self):
        with pytest.raises(ConfigError):
            ShardPlan(n_rows=10, n_chips=2,
                      block_bounds=np.array([0, 5, 10]),
                      owner=np.array([0, 2]))

    def test_with_owner_roundtrip(self):
        plan = make_plan(_rng_row_nnz(40), 2)
        flipped = plan.with_owner(1 - plan.owner)
        assert np.array_equal(
            flipped.chip_rows(0), plan.chip_rows(1)
        )


def _random_adjacency(n, seed=1, density=0.05):
    rng = np.random.default_rng(seed)
    nnz = max(int(n * n * density), n)
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    return CooMatrix((n, n), rows, cols, np.ones(nnz))


class TestHaloExchange:
    def test_halo_rows_are_exactly_the_remote_references(self):
        # The oracle's halo sets, which its sharded SpMM gathers.
        adj = _random_adjacency(60)
        csr = coo_to_csr(adj)
        plan = make_plan(csr.row_nnz(), 3, strategy="rows")
        halo = halo_rows(csr, plan)
        row_owner = plan.row_owner()
        for chip in range(3):
            rows = plan.chip_rows(chip)
            referenced = np.unique(take_rows(csr, rows).col_ids)
            expected = referenced[row_owner[referenced] != chip]
            assert np.array_equal(halo[chip], expected)

    def test_words_matrix_counts_rows_by_source(self):
        adj = _random_adjacency(50, seed=5)
        csr = coo_to_csr(adj)
        plan = make_plan(csr.row_nnz(), 4)
        halo = halo_exchange(adj, plan)
        row_owner = plan.row_owner()
        for dest, rows in enumerate(halo_rows(csr, plan)):
            sources = row_owner[rows]
            for src in range(4):
                assert halo.words[dest, src] == int((sources == src).sum())

    def test_no_self_halo(self):
        adj = _random_adjacency(40, seed=9)
        plan = make_plan(coo_to_csr(adj).row_nnz(), 2)
        halo = halo_exchange(adj, plan)
        assert halo.words[0, 0] == 0 and halo.words[1, 1] == 0

    def test_single_chip_has_empty_halo(self):
        adj = _random_adjacency(30, seed=2)
        plan = make_plan(coo_to_csr(adj).row_nnz(), 1)
        halo = halo_exchange(adj, plan)
        assert int(halo.words.sum()) == 0

    def test_shape_mismatch_rejected(self):
        adj = _random_adjacency(30)
        plan = make_plan(np.ones(20, dtype=np.int64), 2)
        with pytest.raises(ConfigError):
            halo_exchange(adj, plan)


class TestCsrBlockSlicing:
    """The oracle's row gather (``sharded_oracle.take_rows``)."""

    def test_take_rows_matches_dense_gather(self, small_coo):
        csr = coo_to_csr(small_coo)
        rows = np.array([12, 0, 7, 7, 3])
        assert np.array_equal(
            csr_to_dense(take_rows(csr, rows)), csr_to_dense(csr)[rows]
        )

    def test_take_rows_empty(self, small_coo):
        csr = coo_to_csr(small_coo)
        sub = take_rows(csr, np.empty(0, dtype=np.int64))
        assert sub.shape == (0, csr.shape[1]) and sub.nnz == 0

    def test_out_of_range_rejected(self, small_coo):
        csr = coo_to_csr(small_coo)
        with pytest.raises(ShapeError):
            take_rows(csr, np.array([csr.shape[0]]))
