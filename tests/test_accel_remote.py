"""The Eq. 5 remote-switching auto-tuner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.localshare import share_makespan, share_makespan_batch
from repro.accel.remote import RemoteAutoTuner, TrackedTuple
from repro.accel.workload import RowAssignment, per_pe_loads
from repro.errors import ConfigError


def run_tuner(row_nnz, n_pes, *, hop=0, max_rounds=40, **kwargs):
    """Drive a tuner on a static workload; returns (tuner, assignment)."""
    assignment = RowAssignment(row_nnz, n_pes)
    tuner = RemoteAutoTuner(
        assignment,
        rows_per_pe_equal=max(len(row_nnz) / n_pes, 1.0),
        **kwargs,
    )
    for _ in range(max_rounds):
        if tuner.converged:
            break
        span = share_makespan(assignment.loads, hop)
        tuner.observe_round(span)
    return tuner, assignment


class TestMechanics:
    def test_round_one_only_profiles(self):
        assignment = RowAssignment([10, 1, 1, 1], 4)
        tuner = RemoteAutoTuner(assignment, rows_per_pe_equal=1)
        switched = tuner.observe_round(10)
        assert not switched
        assert tuner.initial_gap == 9

    def test_requires_row_assignment(self):
        with pytest.raises(ConfigError):
            RemoteAutoTuner("nope", rows_per_pe_equal=1)

    def test_bad_rows_per_pe_raises(self):
        assignment = RowAssignment([1, 2], 2)
        with pytest.raises(ConfigError):
            RemoteAutoTuner(assignment, rows_per_pe_equal=0)

    def test_tracking_window_evicts_oldest(self):
        assignment = RowAssignment(np.arange(20), 10)
        tuner = RemoteAutoTuner(
            assignment, rows_per_pe_equal=2, tracking_window=2, patience=50
        )
        for span in (100, 90, 80, 70, 60):
            tuner.observe_round(span)
        assert len(tuner.tracked) <= 2

    def test_balanced_workload_freezes_immediately(self):
        tuner, _ = run_tuner(np.full(16, 3), 4)
        assert tuner.converged
        # No rows should ever move on a flat workload.
        assert all(slot.n_switched == 0 for slot in tuner.tracked)

    def test_converged_tuner_is_noop(self):
        tuner, assignment = run_tuner(np.full(16, 3), 4)
        owner_before = assignment.snapshot()
        assert tuner.observe_round(1) is False
        assert np.array_equal(assignment.snapshot(), owner_before)


class TestConvergence:
    def test_hotspot_workload_improves(self):
        rng = np.random.default_rng(0)
        row_nnz = rng.integers(1, 5, size=128)
        row_nnz[5] = 300  # one super row
        row_nnz[6] = 250
        assignment = RowAssignment(row_nnz, 16)
        gap_before = assignment.loads.max() - assignment.loads.min()
        tuner, assignment = run_tuner(row_nnz, 16)
        gap_after = assignment.loads.max() - assignment.loads.min()
        assert tuner.converged
        assert gap_after < gap_before

    def test_best_configuration_restored(self):
        rng = np.random.default_rng(1)
        row_nnz = rng.integers(0, 10, size=64)
        row_nnz[0] = 200
        assignment = RowAssignment(row_nnz, 8)
        tuner = RemoteAutoTuner(assignment, rows_per_pe_equal=8, patience=2)
        best = None
        for _ in range(30):
            if tuner.converged:
                break
            span = share_makespan(assignment.loads, 0)
            if best is None or span < best:
                best = span
            tuner.observe_round(span)
        final_span = share_makespan(assignment.loads, 0)
        assert final_span <= best

    def test_work_conserved_throughout(self):
        rng = np.random.default_rng(2)
        row_nnz = rng.integers(0, 50, size=100)
        total = row_nnz.sum()
        _tuner, assignment = run_tuner(row_nnz, 10)
        assert assignment.loads.sum() == total
        # every row still owned by exactly one in-range PE
        assert assignment.owner.min() >= 0
        assert assignment.owner.max() < 10

    def test_damping_slows_switching(self):
        rng = np.random.default_rng(3)
        row_nnz = rng.integers(0, 20, size=80)
        row_nnz[3] = 500
        fast, _ = run_tuner(row_nnz, 8, damping=1.0, max_rounds=6, patience=99)
        slow, _ = run_tuner(row_nnz, 8, damping=0.1, max_rounds=6, patience=99)
        moved_fast = sum(s.n_switched for s in fast.tracked)
        moved_slow = sum(s.n_switched for s in slow.tracked)
        assert moved_slow < moved_fast


class TestTrackedTuple:
    def test_key_identity(self):
        slot = TrackedTuple(hot=3, cold=7)
        assert slot.key == (3, 7)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=8, max_size=60),
    st.integers(2, 8),
)
def test_property_tuning_never_hurts_final_makespan(row_nnz, n_pes):
    """After convergence, the frozen map is never worse than the initial."""
    row_nnz = np.asarray(row_nnz)
    initial = RowAssignment(row_nnz, n_pes)
    initial_span = share_makespan(initial.loads, 0)
    _tuner, tuned = run_tuner(row_nnz, n_pes)
    tuned_span = share_makespan(tuned.loads, 0)
    assert tuned_span <= initial_span
    assert tuned.loads.sum() == row_nnz.sum()


class TestSpeculation:
    """``advance``: a chunk's switches walked ahead of its makespans.

    The walk applies the switch-only trajectory first, prices the
    walked rounds' loads in one ``price`` call, then commits the
    makespans, stopping at a freeze.
    """

    def _fresh(self, row_nnz, n_pes):
        assignment = RowAssignment(row_nnz, n_pes)
        tuner = RemoteAutoTuner(
            assignment,
            rows_per_pe_equal=max(len(row_nnz) / n_pes, 1.0),
        )
        return tuner, assignment

    @staticmethod
    def _pricer(makespans, priced):
        """A ``price`` that records each matrix and answers ``makespans``."""
        def price(loads_matrix):
            priced.append(loads_matrix.copy())
            return makespans[:loads_matrix.shape[0]]
        return price

    def test_speculation_is_pure(self, rng):
        # Rounds walked past a patience freeze leave no trace: the map
        # and its loads are the best round's, as recorded, and the
        # histories stop at the freeze round.
        row_nnz = rng.integers(1, 9, size=64)
        row_nnz[5] = 150
        tuner, assignment = self._fresh(row_nnz, 8)
        priced = []
        consumed = tuner.advance(8, self._pricer([90, 95, 95] + [1] * 5,
                                                 priced))
        assert consumed == 3 == tuner.converged_round
        walked = priced[0]
        assert walked.shape[0] > consumed  # the walk ran past the freeze
        assert np.array_equal(assignment.loads, walked[0])
        assert np.array_equal(
            assignment.loads, per_pe_loads(assignment.owner, row_nnz, 8)
        )
        initial = RowAssignment(row_nnz, 8)
        assert np.array_equal(assignment.owner, initial.owner)
        assert tuner.makespan_history == [90, 95, 95]
        assert len(tuner.gap_history) == 3 and tuner.round_index == 3

    def test_first_row_is_current_loads(self, rng):
        row_nnz = rng.integers(1, 9, size=64)
        tuner, assignment = self._fresh(row_nnz, 8)
        loads_before = assignment.loads.copy()
        priced = []
        tuner.advance(4, self._pricer([60, 50, 40, 30], priced))
        assert len(priced) == 1
        assert priced[0].dtype == np.int64 and priced[0].shape[1] == 8
        assert np.array_equal(priced[0][0], loads_before)

    def test_trajectory_matches_real_observations(self, rng):
        # The priced rows are the loads the one-round loop observes when
        # it is fed the same makespans.
        row_nnz = rng.integers(0, 10, size=96)
        row_nnz[11] = 220
        tuner, _ = self._fresh(row_nnz, 12)
        priced = []
        tuner.advance(5, lambda matrix: (
            priced.append(matrix.copy()) or share_makespan_batch(matrix, 0)
        ))
        loop_tuner, loop_assignment = self._fresh(row_nnz, 12)
        for k in range(tuner.round_index):
            assert np.array_equal(loop_assignment.loads, priced[0][k])
            loop_tuner.observe_round(share_makespan(loop_assignment.loads, 0))

    def test_advance_stops_at_freeze(self, rng):
        row_nnz = rng.integers(1, 6, size=48)
        row_nnz[0] = 100
        tuner, _ = self._fresh(row_nnz, 6)
        # Constant makespans stall the tuner into its patience freeze
        # (default patience 2) partway through the batch.
        consumed = tuner.advance(6, self._pricer([50] * 6, []))
        assert tuner.converged
        assert consumed == tuner.converged_round
        assert consumed < 6

    def test_advance_matches_observe_round(self, rng):
        row_nnz = rng.integers(0, 10, size=80)
        row_nnz[7] = 180
        batch_tuner, _ = self._fresh(row_nnz, 10)
        loop_tuner, _ = self._fresh(row_nnz, 10)
        makespans = [90, 70, 60, 60, 60, 55]
        consumed = batch_tuner.advance(6, self._pricer(makespans, []))
        for makespan in makespans[:consumed]:
            loop_tuner.observe_round(makespan)
        assert batch_tuner.makespan_history == loop_tuner.makespan_history
        assert batch_tuner.gap_history == loop_tuner.gap_history
        assert batch_tuner.converged == loop_tuner.converged
        assert np.array_equal(
            batch_tuner.assignment.snapshot(),
            loop_tuner.assignment.snapshot(),
        )
        assert np.array_equal(
            batch_tuner.assignment.loads, loop_tuner.assignment.loads
        )

    def test_speculation_empty_when_converged_or_no_budget(self, rng):
        row_nnz = rng.integers(1, 5, size=32)
        tuner, _ = self._fresh(row_nnz, 4)
        priced = []
        assert tuner.advance(0, self._pricer([50], priced)) == 0
        assert priced == [] and tuner.round_index == 0
        # Stalled makespans freeze the map (default patience 2).
        tuner.advance(8, self._pricer([50] * 8, priced))
        assert tuner.converged
        owner = tuner.assignment.snapshot()
        assert tuner.advance(5, self._pricer([40] * 5, priced)) == 0
        assert len(priced) == 1
        assert np.array_equal(tuner.assignment.owner, owner)
