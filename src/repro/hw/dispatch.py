"""Task distributors: TDQ-1 (dense-stored) and TDQ-2 (CSC via Omega).

TDQ-1 (paper Fig. 7 left): the general-sparse matrix is stored dense and
row-partitioned; the distributor scans ``n_pes / (1 - sparsity)`` raw
elements per cycle so that, with evenly spread non-zeros, each PE
receives about one task per cycle. Zeros are filtered before the queues.

TDQ-2 (Fig. 7 right): the ultra-sparse matrix is stored CSC; the dense
value array is streamed directly (no zeros to skip) and each non-zero is
routed to the PE owning its row through the Omega network.

Both apply the *dynamic local sharing* rule at the point where a task
is about to be queued: compare the pending-task counters of the owner
and its neighbours within ``hop`` positions and enqueue at the least
loaded (paper Sec. 4.1). The owner id travels with the task so the
result accumulates into the owner's ACC bank either way.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.hw.task import Task


def choose_target(owner, hop, pes):
    """The local-sharing decision: least-pending PE within ``hop``.

    Ties break toward the owner (no pointless migration).
    """
    if hop == 0:
        return owner
    lo = max(0, owner - hop)
    hi = min(len(pes) - 1, owner + hop)
    best = owner
    best_pending = pes[owner].pending
    for candidate in range(lo, hi + 1):
        pending = pes[candidate].pending
        if pending < best_pending:
            best = candidate
            best_pending = pending
    return best


class Tdq1Dispatcher:
    """Streams a dense-stored sparse matrix directly into PE queues."""

    def __init__(self, a_dense, owner_of_row, pes, *, hop=0):
        a_dense = np.asarray(a_dense, dtype=np.float64)
        if a_dense.ndim != 2:
            raise ConfigError("a_dense must be 2-D")
        self.a_dense = a_dense
        self.owner_of_row = np.asarray(owner_of_row, dtype=np.int64)
        self.pes = pes
        self.hop = hop
        # n_pes / (1 - sparsity), the paper's matched scan rate.
        density = (
            np.count_nonzero(a_dense) / a_dense.size if a_dense.size else 1.0
        )
        self.scan_bandwidth = max(int(len(pes) / max(density, 1e-9)),
                                  len(pes))
        self._b_val = None
        self._flat_index = 0
        self._n_cells = a_dense.shape[0] * a_dense.shape[1]

    def start_column(self, b_column):
        """Begin streaming one round (one column of the dense operand).

        ``b_column`` holds the operand values indexed by the A-column of
        each task (for ``X @ W`` this is a column of W).
        """
        self._b_val = np.asarray(b_column, dtype=np.float64)
        self._flat_index = 0

    @property
    def exhausted(self):
        """True when the scan of the current round has finished."""
        return self._flat_index >= self._n_cells

    def step(self):
        """Scan up to ``scan_bandwidth`` cells, queueing the non-zeros.

        Returns the number of tasks enqueued. The PE queues are
        unbounded, so every scanned non-zero is queued.
        """
        if self._b_val is None:
            raise ConfigError("start_column() must be called first")
        issued = 0
        scanned = 0
        n_cols = self.a_dense.shape[1]
        flat = self.a_dense.ravel()
        while scanned < self.scan_bandwidth and not self.exhausted:
            value = flat[self._flat_index]
            row = self._flat_index // n_cols
            col = self._flat_index - row * n_cols
            if value != 0.0:
                owner = int(self.owner_of_row[row])
                target = choose_target(owner, self.hop, self.pes)
                task = Task(
                    row=row,
                    a_val=float(value),
                    b_val=float(self._b_val[col]),
                    owner=owner,
                )
                self.pes[target].queues.push(task)
                issued += 1
            self._flat_index += 1
            scanned += 1
        return issued


class Tdq2Dispatcher:
    """Streams a CSC matrix through the Omega network to row owners."""

    def __init__(self, a_csc, owner_of_row, pes, network, *, hop=0):
        self.a_csc = a_csc
        self.owner_of_row = np.asarray(owner_of_row, dtype=np.int64)
        self.pes = pes
        self.network = network
        self.hop = hop
        # One non-zero per PE per cycle.
        self.inject_bandwidth = len(pes)
        self._cursor = 0
        self._limit = 0
        self._b_val = None
        self._col = 0

    def start_column(self, b_column):
        """Begin one round: stream every stored non-zero of A once."""
        self._b_val = np.asarray(b_column, dtype=np.float64)
        self._cursor = 0
        self._limit = self.a_csc.nnz
        self._col_starts = self.a_csc.indptr
        self._col = 0

    @property
    def exhausted(self):
        """True when every non-zero of this round has been injected."""
        return self._cursor >= self._limit

    def step(self):
        """Inject up to ``inject_bandwidth`` non-zeros into the network.

        The sharing decision happens here — the paper "adjust[s] the
        address tag of the task before it is pushed into the TQs", so a
        task heading to an overloaded PE is retagged to a neighbour and
        takes a *different network route*. This matters: without the
        retag, every task for a hot PE would serialize through its
        single Omega output port and sharing could never engage.
        """
        injected = 0
        while injected < self.inject_bandwidth and not self.exhausted:
            # Advance the implicit column pointer.
            while self._col_starts[self._col + 1] <= self._cursor:
                self._col += 1
            row = int(self.a_csc.row_ids[self._cursor])
            owner = int(self.owner_of_row[row])
            target = choose_target(owner, self.hop, self.pes)
            task = Task(
                row=row,
                a_val=float(self.a_csc.vals[self._cursor]),
                b_val=float(self._b_val[self._col]),
                owner=owner,
            )
            port = self._cursor % self.network.n_ports
            if not self.network.inject(port, target, task):
                break  # entry stage full: back-pressure
            self._cursor += 1
            injected += 1
        return injected

    def deliver(self, exits):
        """Queue network exits at the PE their (possibly retagged)
        destination names. The owner travels with the task, so the
        accumulation address is unchanged regardless of who executes.
        """
        for dest, task in exits:
            target = min(int(dest), len(self.pes) - 1)
            self.pes[target].queues.push(task)
