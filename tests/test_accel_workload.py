"""Row assignment bookkeeping and the SLT row exchange."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel.workload import (
    RowAssignment,
    initial_assignment,
    per_pe_loads,
    per_pe_max_row,
)
from repro.errors import ConfigError


@pytest.fixture
def assignment():
    row_nnz = np.array([10, 1, 1, 1, 2, 2, 2, 2])
    return RowAssignment(row_nnz, 4)


class TestBasics:
    def test_initial_contiguous(self):
        owner = initial_assignment(8, 4)
        assert owner.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_loads(self, assignment):
        assert assignment.loads.tolist() == [11, 2, 4, 4]

    def test_total_work(self, assignment):
        assert assignment.total_work == 21

    def test_per_pe_max_row(self, assignment):
        assert assignment.max_rows().tolist() == [10, 1, 2, 2]

    def test_per_pe_loads_function(self):
        owner = np.array([0, 0, 1])
        loads = per_pe_loads(owner, np.array([1, 2, 3]), 2)
        assert loads.tolist() == [3, 3]

    def test_per_pe_max_row_function(self):
        owner = np.array([0, 0, 1])
        assert per_pe_max_row(owner, np.array([1, 2, 3]), 2).tolist() == [2, 3]

    def test_custom_owner(self):
        asg = RowAssignment([1, 2, 3], 3, owner=[2, 1, 0])
        assert asg.loads.tolist() == [3, 2, 1]

    def test_owner_out_of_range_raises(self):
        with pytest.raises(ConfigError):
            RowAssignment([1, 2], 2, owner=[0, 5])

    def test_negative_nnz_raises(self):
        with pytest.raises(ConfigError):
            RowAssignment([-1, 2], 2)


class TestMoves:
    def test_move_rows_updates_loads(self, assignment):
        assignment.move_rows([0], 3)
        assert assignment.loads.tolist() == [1, 2, 4, 14]
        assert assignment.owner[0] == 3

    def test_move_conserves_work(self, assignment):
        before = assignment.loads.sum()
        assignment.move_rows([0, 4, 6], 1)
        assert assignment.loads.sum() == before

    def test_move_empty_is_noop(self, assignment):
        before = assignment.loads.copy()
        assignment.move_rows([], 2)
        assert np.array_equal(assignment.loads, before)

    def test_snapshot_is_copy(self, assignment):
        snap = assignment.snapshot()
        assignment.move_rows([0], 2)
        assert snap[0] == 0

    def test_rows_of(self, assignment):
        assert assignment.rows_of(0).tolist() == [0, 1]


class TestSwapRows:
    def test_swap_moves_heaviest_and_lightest(self, assignment):
        # PE0 (rows 0:10, 1:1) is hot; PE1 (rows 2:1, 3:1) is cold.
        moved = assignment.swap_rows(0, 1, 1)
        assert moved == 1
        assert assignment.owner[0] == 1  # heaviest row left PE0
        assert assignment.loads.sum() == 21  # conservation

    def test_swap_reduces_gap(self):
        # PE0 owns rows of weight [6, 5]; PE1 owns [1, 1].
        asg = RowAssignment(np.array([6, 5, 1, 1]), 2)
        gap_before = asg.loads.max() - asg.loads.min()
        asg.swap_rows(0, 1, 2, work_target=gap_before / 2)
        gap_after = asg.loads.max() - asg.loads.min()
        assert gap_after < gap_before

    def test_work_target_limits_selection(self):
        row_nnz = np.array([9, 8, 1, 0, 0, 0])
        asg = RowAssignment(row_nnz, 2)  # PE0: 18, PE1: 0... rows 0-2 on PE0
        # Target 9: only the single heaviest row should move.
        moved = asg.swap_rows(0, 1, 3, work_target=9)
        assert moved == 1
        assert asg.loads.tolist() == [9, 9]

    def test_work_target_skips_overshooting_row(self):
        row_nnz = np.array([10, 3, 0, 0])
        asg = RowAssignment(row_nnz, 2)
        # Target 4: the 10-nnz row overshoots and is skipped; the 3-nnz
        # row fits and moves instead.
        moved = asg.swap_rows(0, 1, 2, work_target=4)
        assert moved == 1
        assert asg.owner[1] == 1  # the 3-nnz row moved, not the 10

    def test_all_rows_overshoot_moves_lightest(self):
        row_nnz = np.array([10, 20, 0, 0])
        asg = RowAssignment(row_nnz, 2)
        moved = asg.swap_rows(0, 1, 2, work_target=4)
        assert moved == 1
        assert asg.owner[0] == 1  # lightest overshooting row moved

    def test_swap_same_pe_is_noop(self, assignment):
        assert assignment.swap_rows(1, 1, 3) == 0

    def test_swap_zero_rows_is_noop(self, assignment):
        assert assignment.swap_rows(0, 1, 0) == 0

    def test_swap_bounded_by_owned_rows(self, assignment):
        moved = assignment.swap_rows(0, 1, 100)
        assert moved == 2  # PE0 only owned 2 rows


def swap_rows_reference(assignment, hot, cold, n_rows_each, *,
                        work_target=None):
    """The SLT row exchange as :meth:`RowAssignment.swap_rows` did it
    before the switch lost its generic paths (test oracle).

    Rescans the owner array for both PEs, walks the hot rows over NumPy
    scalars and moves both row sets through ``move_rows``. The tuning
    oracle in ``tests/test_accel_cyclemodel.py`` switches through it.
    """
    if hot == cold or n_rows_each <= 0:
        return 0
    hot_rows = np.flatnonzero(assignment.owner == hot)
    cold_rows = np.flatnonzero(assignment.owner == cold)
    budget = min(int(n_rows_each), hot_rows.size, cold_rows.size)
    if budget == 0:
        return 0
    row_nnz = assignment.row_nnz
    by_weight = hot_rows[np.argsort(row_nnz[hot_rows], kind="stable")[::-1]]
    if work_target is None:
        chosen = by_weight[:budget]
    else:
        chosen = []
        moved_work = 0.0
        for row in by_weight:
            if len(chosen) >= budget:
                break
            weight = row_nnz[row]
            if moved_work + weight > work_target:
                continue
            chosen.append(row)
            moved_work += weight
            if moved_work >= work_target:
                break
        if not chosen and by_weight.size:
            chosen = [by_weight[-1]]
        chosen = np.asarray(chosen, dtype=np.int64)
    count = chosen.size
    if count == 0:
        return 0
    cold_lightest = cold_rows[
        np.argsort(row_nnz[cold_rows], kind="stable")[:count]
    ]
    assignment.move_rows(chosen, cold)
    assignment.move_rows(cold_lightest, hot)
    return count


_WORK_TARGETS = st.one_of(
    st.none(),
    st.integers(0, 60),
    st.integers(0, 121).map(lambda twice: twice / 2.0),
)


@st.composite
def _swap_sequences(draw):
    """A row profile, an owner map and a sequence of swaps over it."""
    n_pes = draw(st.integers(2, 6))
    n_rows = draw(st.integers(1, 24))
    if draw(st.booleans()):
        row_nnz = [draw(st.integers(0, 6))] * n_rows  # all equal, or zero
    else:
        row_nnz = draw(st.lists(
            st.integers(0, 12), min_size=n_rows, max_size=n_rows
        ))
    owner = draw(st.lists(
        st.integers(0, n_pes - 1), min_size=n_rows, max_size=n_rows
    ))
    pe = st.integers(0, n_pes - 1)
    swaps = draw(st.lists(
        st.tuples(pe, pe, st.integers(-1, 8), _WORK_TARGETS), max_size=12
    ))
    return row_nnz, n_pes, owner, swaps


class TestSwapRowsMatchesReference:
    """``swap_rows`` equals the rescanning exchange it replaced, exactly."""

    @settings(max_examples=300, deadline=None)
    @given(_swap_sequences())
    # Exact ties: equal weights (order among them decides which rows
    # move), a selection landing exactly on its target, a half-integer
    # target between two sums, and zero-weight rows.
    @example(([3] * 6, 2, [0, 0, 0, 1, 1, 1],
              [(0, 1, 2, None), (0, 1, 3, 3.0), (1, 0, 2, 4.5)]))
    @example(([2, 2, 1, 1, 0, 0], 2, [0, 0, 0, 1, 1, 1],
              [(0, 1, 3, 2), (1, 0, 3, 2.5), (0, 1, 2, 0.0)]))
    @example(([0] * 5, 3, [0, 1, 2, 0, 1], [(0, 1, 2, 0.5), (1, 2, 1, None)]))
    def test_swap_sequences_match(self, case):
        row_nnz, n_pes, owner, swaps = case
        fast = RowAssignment(row_nnz, n_pes, owner=owner)
        slow = RowAssignment(row_nnz, n_pes, owner=owner)
        for hot, cold, n_rows_each, work_target in swaps:
            moved = fast.swap_rows(hot, cold, n_rows_each,
                                   work_target=work_target)
            expected = swap_rows_reference(slow, hot, cold, n_rows_each,
                                           work_target=work_target)
            assert moved == expected
            assert fast.owner.tolist() == slow.owner.tolist()
            assert fast.loads.tolist() == slow.loads.tolist()
            assert fast.loads.dtype == slow.loads.dtype
