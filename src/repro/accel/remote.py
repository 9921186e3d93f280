"""Dynamic remote switching: the Eq. 5 auto-tuner (paper Sec. 4.2).

Hardware recap. The PE Status Monitor (PESM) watches the per-PE task
queues through a MUX tree: the PE group whose "empty" signals trigger
first in a round is the *coldspot*; the PE still running when every
other queue has drained is the *hotspot*. The Utilization Gap Tracker
then computes how many rows to exchange between the pair:

    N_i = 0                                   (i = 1)
    N_i = N_{i-1} + G_i / G_1 * (R / 2)       (i > 1)        (Eq. 5)

with ``G_i`` the round-``i`` workload gap between hotspot and coldspot,
``G_1`` the initial gap and ``R`` the equal-partition workload (rows per
PE). The Shuffling Lookup Table picks which rows move, and the Shuffling
Switches apply the new destinations in the next round. The PESM tracks a
bounded number of PE-tuples at once (``tracking_window``, two in the
paper), updating each tracked tuple per round until the map converges;
the converged map is reused for all remaining rounds.

This module reproduces that control loop exactly at row granularity.
The cycle model drives it a chunk of rounds at a time
(:meth:`RemoteAutoTuner.advance`): every round's switch is applied
once, on the real map, and the chunk's makespans are priced in one
call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.workload import RowAssignment
from repro.utils.validation import (
    check_bool,
    check_instance,
    check_positive_finite,
    check_positive_int,
)


@dataclass
class TrackedTuple:
    """One PESM slot: a (hotspot, coldspot) pair under Eq. 5 tracking."""

    hot: int
    cold: int
    n_switched: float = 0.0

    @property
    def key(self):
        """Identity of the tuple (order matters: hot vs cold roles)."""
        return (self.hot, self.cold)


class RemoteAutoTuner:
    """Runtime row-migration controller for one SPMM job.

    Drive it with :meth:`advance`, which walks a chunk of rounds and
    prices them in one call, or with :meth:`observe_round`, its
    one-round case, once per processed column of the dense operand.
    Either mutates the shared :class:`RowAssignment` in place, exactly
    like the Shuffling Switches retarget rows between rounds. Once
    :attr:`converged` is True the map is frozen (the paper reuses the
    best configuration for the remaining columns) — further calls are
    no-ops.

    A round has two halves. The switch (which rows move) depends only
    on the loads, the gap and the tracked tuples; the measured makespan
    drives only best-map tracking and the patience freeze. So a walk
    applies the switches first, recording each round's loads and owner
    map before its switch, and commits the makespans after: a freeze at
    round ``k`` restores the best map recorded up to ``k``, whatever the
    walk did after ``k``, and nothing reads the tracked tuples once the
    map is frozen.
    """

    def __init__(self, assignment, *, rows_per_pe_equal, tracking_window=2,
                 damping=1.0, patience=2, approximate=False):
        # ArchConfig's rules for the fields simulate_spmm passes on.
        self.assignment = check_instance(
            assignment, RowAssignment, "assignment"
        )
        self.rows_per_pe_equal = check_positive_finite(
            rows_per_pe_equal, "rows_per_pe_equal"
        )
        self.tracking_window = check_positive_int(
            tracking_window, "tracking_window"
        )
        self.damping = check_positive_finite(damping, "damping")
        self.patience = check_positive_int(patience, "patience")
        self.approximate = check_bool(approximate, "approximate")
        self.round_index = 0
        self.initial_gap = None
        self.converged = False
        self.converged_round = None
        self.tracked = []
        self.gap_history = []
        self.makespan_history = []
        self._best_makespan = None
        self._best_owner = None
        self._best_loads = None
        self._stall_rounds = 0

    def advance(self, budget, price):
        """Walk up to ``budget`` rounds; returns the rounds consumed.

        The switches of the walked rounds are applied first, stopping
        after a round whose gap is 0 (that round freezes the map
        whatever it measures). ``price`` is then called once, with the
        walked rounds' loads as an ``int64`` matrix of shape
        ``(rounds, n_pes)`` whose row 0 is the loads this call started
        from, and returns their makespans in order. The makespans are
        committed round by round as :meth:`observe_round` takes them; a
        freeze ends the walk at its round (consumed: its makespan was
        measured) and restores the best map. A converged tuner, or a
        ``budget`` below 1, consumes and prices nothing.
        """
        if self.converged or budget < 1:
            return 0
        loads, owners, gaps, _moved = self._roll(budget)
        makespans = np.asarray(price(loads), dtype=np.int64).tolist()
        return self._commit(loads, owners, gaps, makespans)

    def observe_round(self, makespan):
        """Advance one auto-tuning round: :meth:`advance` of one round.

        ``makespan`` is the measured cycle count of the round just
        completed (what the PESM's hardware counters see). Returns True
        when a switch was applied this round.
        """
        if self.converged:
            return False
        loads, owners, gaps, moved = self._roll(1)
        self._commit(loads, owners, gaps, (makespan,))
        return moved > 0 and not self.converged

    def _roll(self, budget):
        """Apply the switches of up to ``budget`` rounds.

        Returns ``(loads, owners, gaps, moved)``: per walked round, its
        loads (one matrix row) and owner map before its switch and its
        hotspot-coldspot gap, plus the row pairs the last round moved.
        """
        assignment = self.assignment
        loads = np.empty((budget, assignment.n_pes), dtype=np.int64)
        owners = []
        gaps = []
        moved = 0
        for k in range(budget):
            current = assignment.loads
            loads[k] = current
            owners.append(assignment.owner.copy())
            hot = int(current.argmax())
            cold = int(current.argmin())
            gap = int(current[hot] - current[cold])
            gaps.append(gap)
            if self.round_index + k == 0:
                # Round 1 only profiles: Eq. 5 gives N_1 = 0.
                self.initial_gap = max(gap, 1)
            elif gap == 0:
                break  # the map freezes this round, whatever it measures
            else:
                moved = self._switch(hot, cold, gap)
        return loads[:len(gaps)], owners, gaps, moved

    def _switch(self, hot, cold, gap):
        """Eq. 5's step for the (hot, cold) pair; returns the pairs moved."""
        slot = self._find_or_create_slot(hot, cold)
        if self.approximate:
            step = _shift_approx_step(
                gap, self.initial_gap, self.rows_per_pe_equal
            )
        else:
            step = (gap / self.initial_gap) * (self.rows_per_pe_equal / 2.0)
        new_total = slot.n_switched + self.damping * step
        delta = int(round(new_total)) - int(round(slot.n_switched))
        slot.n_switched = new_total
        if delta <= 0:
            return 0
        # Eq. 5 budgets how many rows may move; the SLT stops selecting
        # once the transferred work would equalize the pair (gap / 2),
        # so a switch narrows the gap instead of inverting it.
        return self.assignment.swap_rows(
            hot, cold, delta, work_target=gap / 2.0
        )

    def _commit(self, loads, owners, gaps, makespans):
        """Take the walked rounds' makespans; returns the rounds consumed."""
        consumed = 0
        for owner, gap, makespan in zip(owners, gaps, makespans, strict=True):
            self.round_index += 1
            self.gap_history.append(gap)
            self.makespan_history.append(int(makespan))
            if self._best_makespan is None or makespan < self._best_makespan:
                self._best_makespan = makespan
                self._best_owner = owner
                self._best_loads = loads[consumed]
                self._stall_rounds = 0
            else:
                self._stall_rounds += 1
            consumed += 1
            if self.round_index > 1 and (
                self._stall_rounds >= self.patience or gap == 0
            ):
                self._freeze()
                break
        return consumed

    def _find_or_create_slot(self, hot, cold):
        """Locate the tracked tuple for (hot, cold), evicting the oldest."""
        for slot in self.tracked:
            if slot.key == (hot, cold):
                return slot
        slot = TrackedTuple(hot=hot, cold=cold)
        self.tracked.append(slot)
        if len(self.tracked) > self.tracking_window:
            self.tracked.pop(0)
        return slot

    def _freeze(self):
        """Stop tuning and restore the best map seen so far, with its loads."""
        self.converged = True
        self.converged_round = self.round_index
        self.assignment.owner = self._best_owner
        self.assignment.loads = self._best_loads.copy()


def _shift_approx_step(gap, initial_gap, rows_per_pe):
    """The paper's hardware-efficient Eq. 5 evaluation.

    Computing ``G_i / G_1 * (R / 2)`` needs a divider and a multiplier;
    the paper notes "a hardware-efficient approximation approach" that
    avoids both. We model the natural shift-based scheme: round the gap
    ratio to the nearest power of two (a leading-zero-count comparison)
    and apply it as a shift of ``R / 2``.
    """
    import math

    if gap <= 0 or initial_gap <= 0:
        return 0.0
    ratio = gap / initial_gap
    shift = round(math.log2(ratio)) if ratio > 0 else 0
    approx_ratio = 2.0 ** shift
    return approx_ratio * (rows_per_pe / 2.0)
