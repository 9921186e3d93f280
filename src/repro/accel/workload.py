"""Row-to-PE assignment bookkeeping.

The SPMM engine statically partitions output rows across PEs (paper
Fig. 6); remote switching later migrates individual rows between PEs.
:class:`RowAssignment` owns that map and keeps the per-PE loads the
cycle model consumes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sparse.stats import equal_rows_owner
from repro.utils.validation import check_1d_int_array, check_positive_int


def initial_assignment(n_rows, n_pes):
    """The paper's static partition: contiguous equal-size row blocks."""
    return equal_rows_owner(n_rows, n_pes)


def per_pe_loads(assignment, row_nnz, n_pes):
    """Tasks per PE per round: sum of owned rows' non-zero counts."""
    loads = np.zeros(n_pes, dtype=np.int64)
    np.add.at(loads, assignment, row_nnz)
    return loads


class RowAssignment:
    """A mutable row->PE map with incremental load maintenance.

    The remote auto-tuner calls :meth:`swap_rows` once per round; loads
    are updated incrementally so rounds after convergence cost nothing.
    """

    def __init__(self, row_nnz, n_pes, *, owner=None):
        self.row_nnz = check_1d_int_array(row_nnz, "row_nnz")
        if self.row_nnz.size and self.row_nnz.min() < 0:
            raise ConfigError("row_nnz must be non-negative")
        self.n_pes = check_positive_int(n_pes, "n_pes")
        if owner is None:
            owner = initial_assignment(self.row_nnz.size, self.n_pes)
        else:
            owner = check_1d_int_array(owner, "owner")
            if owner.size != self.row_nnz.size:
                raise ConfigError(
                    f"owner must have length {self.row_nnz.size}, "
                    f"got {owner.size}"
                )
            if owner.size and (owner.min() < 0 or owner.max() >= self.n_pes):
                raise ConfigError("owner PE ids out of range")
            owner = owner.copy()
        self.owner = owner
        self.loads = per_pe_loads(self.owner, self.row_nnz, self.n_pes)

    @property
    def n_rows(self):
        """Number of rows being assigned."""
        return self.row_nnz.size

    @property
    def total_work(self):
        """Total tasks per round (sum of all row nnz)."""
        return int(self.row_nnz.sum())

    def swap_rows(self, hot, cold, n_rows_each, *, work_target):
        """Exchange rows between a hotspot and coldspot PE.

        Moves up to ``n_rows_each`` of the hot PE's heaviest rows to the
        cold PE — the Shuffling-Lookup-Table step of remote switching —
        and the same number of the cold PE's lightest rows back. Row
        selection stops once the moved non-zero count reaches
        ``work_target`` (greedily skipping rows that would overshoot),
        so a single switch equalizes the pair instead of inverting it.
        Returns the number of row pairs exchanged.
        """
        if hot == cold or n_rows_each <= 0:
            return 0
        owner = self.owner
        hot_rows = (owner == hot).nonzero()[0]
        cold_rows = (owner == cold).nonzero()[0]
        budget = min(int(n_rows_each), hot_rows.size, cold_rows.size)
        if budget == 0:
            return 0
        hot_weights = self.row_nnz[hot_rows]
        # Heaviest first; equal weights in descending row order.
        heaviest = np.argsort(hot_weights, kind="stable")[::-1]
        picked = []
        moved_work = 0.0
        for position, weight in enumerate(hot_weights[heaviest].tolist()):
            if len(picked) >= budget:
                break
            if moved_work + weight > work_target:
                continue  # try a lighter row instead
            picked.append(position)
            moved_work += weight
            if moved_work >= work_target:
                break
        # Every row overshoots on its own: move the lightest one
        # (minimal overshoot beats moving nothing — the Eq. 5
        # feedback shrinks the next step if this was too much).
        chosen = heaviest[picked] if picked else heaviest[-1:]
        count = chosen.size
        cold_weights = self.row_nnz[cold_rows]
        lightest = np.argsort(cold_weights, kind="stable")[:count]
        hot_work = int(hot_weights[chosen].sum())
        cold_work = int(cold_weights[lightest].sum())
        owner[hot_rows[chosen]] = cold
        owner[cold_rows[lightest]] = hot
        self.loads[hot] += cold_work - hot_work
        self.loads[cold] += hot_work - cold_work
        return count

    def snapshot(self):
        """A copy of the current owner map (for freezing/reuse)."""
        return self.owner.copy()
