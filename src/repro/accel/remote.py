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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.workload import RowAssignment
from repro.errors import ConfigError


@dataclass
class TrackedTuple:
    """One PESM slot: a (hotspot, coldspot) pair under Eq. 5 tracking."""

    hot: int
    cold: int
    n_switched: float = 0.0
    rounds_tracked: int = 0

    @property
    def key(self):
        """Identity of the tuple (order matters: hot vs cold roles)."""
        return (self.hot, self.cold)


class RemoteAutoTuner:
    """Runtime row-migration controller for one SPMM job.

    Drive it with :meth:`observe_round` once per processed column of the
    dense operand; it mutates the shared :class:`RowAssignment` in place,
    exactly like the Shuffling Switches retarget rows between rounds.
    Once :attr:`converged` is True the map is frozen (the paper reuses
    the best configuration for the remaining columns) — further calls
    are no-ops.
    """

    def __init__(self, assignment, *, rows_per_pe_equal, tracking_window=2,
                 damping=1.0, patience=2, approximate=False):
        if not isinstance(assignment, RowAssignment):
            raise ConfigError(
                "assignment must be a RowAssignment, got "
                f"{type(assignment).__name__}"
            )
        if rows_per_pe_equal <= 0:
            raise ConfigError(
                f"rows_per_pe_equal must be > 0, got {rows_per_pe_equal}"
            )
        self.assignment = assignment
        self.rows_per_pe_equal = float(rows_per_pe_equal)
        self.tracking_window = int(tracking_window)
        self.damping = float(damping)
        self.patience = int(patience)
        self.approximate = bool(approximate)
        self.round_index = 0
        self.initial_gap = None
        self.converged = False
        self.converged_round = None
        self.tracked = []
        self.gap_history = []
        self.makespan_history = []
        self._best_makespan = None
        self._best_owner = None
        self._stall_rounds = 0

    def observe_round(self, makespan):
        """Advance one auto-tuning round.

        ``makespan`` is the measured cycle count of the round just
        completed (what the PESM's hardware counters see). Returns True
        when a switch was applied this round.
        """
        if self.converged:
            return False
        self.round_index += 1
        loads = self.assignment.loads
        hot = int(np.argmax(loads))
        cold = int(np.argmin(loads))
        gap = int(loads[hot] - loads[cold])
        self.gap_history.append(gap)
        self.makespan_history.append(int(makespan))

        if self._best_makespan is None or makespan < self._best_makespan:
            self._best_makespan = makespan
            self._best_owner = self.assignment.snapshot()
            self._stall_rounds = 0
        else:
            self._stall_rounds += 1

        if self.round_index == 1:
            # Round 1 only profiles: Eq. 5 gives N_1 = 0.
            self.initial_gap = max(gap, 1)
            return False

        if self._stall_rounds >= self.patience:
            self._freeze()
            return False
        if gap == 0:
            self._freeze()
            return False

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
        slot.rounds_tracked += 1
        if delta <= 0:
            return False
        # Eq. 5 budgets how many rows may move; the SLT stops selecting
        # once the transferred work would equalize the pair (gap / 2),
        # so a switch narrows the gap instead of inverting it.
        moved = self.assignment.swap_rows(
            hot, cold, delta, work_target=gap / 2.0
        )
        return moved > 0

    def speculate_loads(self, budget):
        """Per-PE loads of the next up-to-``budget`` rounds, as a matrix.

        Row ``k`` is the load vector the tuner would observe at its
        ``k``-th upcoming :meth:`observe_round` call — row 0 is the
        current assignment's loads, later rows follow the Eq. 5 switch
        trajectory. The trajectory is *switch-only*: which rows move
        depends only on loads, gaps and the tracked-tuple state, never
        on measured makespans (those influence only best-map tracking
        and the patience freeze), so it can be rolled forward on a
        shadow copy without knowing any makespan. This is what lets
        the cycle model price a whole chunk of tuning rounds in one
        batched Hall-bound kernel call and then commit the real
        observations via :meth:`observe_rounds`.

        Fewer than ``budget`` rows come back when the trajectory
        provably freezes early regardless of makespans (zero gap, or a
        zero patience). A patience freeze driven by real makespans can
        still cut the consumed prefix shorter — extra speculative rows
        are then simply discarded. Pure: neither the tuner nor its
        assignment is mutated. Returns an ``int64`` array of shape
        ``(rounds, n_pes)`` (empty when converged or ``budget <= 0``).
        """
        budget = int(budget)
        if budget <= 0 or self.converged:
            return np.empty((0, self.assignment.n_pes), dtype=np.int64)
        clone = self._speculation_clone()
        rows = [self.assignment.loads.copy()]
        # Strictly improving probe makespans keep the clone's stall
        # counter at zero, so the clone freezes exactly when the real
        # tuner would freeze for makespan-independent reasons.
        probe = 0
        while len(rows) < budget:
            clone.observe_round(probe)
            probe -= 1
            if clone.converged:
                break
            rows.append(clone.assignment.loads.copy())
        return np.asarray(rows, dtype=np.int64)

    def observe_rounds(self, makespans):
        """Feed a batch of measured makespans; returns rounds consumed.

        Equivalent to calling :meth:`observe_round` once per entry in
        order, stopping after the call that freezes the map (the freeze
        round itself is consumed — its makespan was measured). The
        ``makespans`` must price the load vectors
        :meth:`speculate_loads` returned, in the same order.
        """
        consumed = 0
        for makespan in np.asarray(makespans, dtype=np.int64).tolist():
            if self.converged:
                break
            self.observe_round(makespan)
            consumed += 1
        return consumed

    def _speculation_clone(self):
        """A throwaway tuner sharing this one's switch-relevant state.

        The clone owns a copied :class:`RowAssignment` and copied
        tracked tuples, so driving it leaves the real tuner untouched;
        makespan-derived state (best map, stall counter, histories) is
        deliberately fresh — speculation never consults it.
        """
        shadow = RowAssignment(
            self.assignment.row_nnz,
            self.assignment.n_pes,
            owner=self.assignment.owner,
        )
        clone = RemoteAutoTuner(
            shadow,
            rows_per_pe_equal=self.rows_per_pe_equal,
            tracking_window=self.tracking_window,
            damping=self.damping,
            patience=self.patience,
            approximate=self.approximate,
        )
        clone.round_index = self.round_index
        clone.initial_gap = self.initial_gap
        clone.tracked = [
            TrackedTuple(
                hot=slot.hot,
                cold=slot.cold,
                n_switched=slot.n_switched,
                rounds_tracked=slot.rounds_tracked,
            )
            for slot in self.tracked
        ]
        return clone

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
        """Stop tuning and restore the best configuration seen so far."""
        self.converged = True
        self.converged_round = self.round_index
        if self._best_owner is not None:
            current = self.assignment.snapshot()
            if not np.array_equal(current, self._best_owner):
                # Rebuild loads from the best map (cheap: one bincount).
                best = RowAssignment(
                    self.assignment.row_nnz,
                    self.assignment.n_pes,
                    owner=self._best_owner,
                )
                self.assignment.owner = best.owner
                self.assignment.loads = best.loads


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
