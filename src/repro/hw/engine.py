"""The detailed SPMM engine: full cycle loop over dispatcher, network, PEs.

``simulate_spmm_detailed`` runs ``A @ B`` column by column (paper
Fig. 5), measuring true cycle counts, Omega-network contention and
back-pressure and RaW stalls included, and returns the numeric result so
tests can check it against numpy. Complexity is O(cycles x PEs) pure
Python — use it for small matrices; :mod:`repro.accel` covers the large
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.workload import initial_assignment
from repro.errors import ConfigError, SimulationError
from repro.hw.dispatch import Tdq1Dispatcher, Tdq2Dispatcher
from repro.hw.omega import OmegaNetwork
from repro.hw.pe import ProcessingElement
from repro.sparse.convert import coo_to_csc
from repro.sparse.coo import CooMatrix
from repro.sparse.csc import CscMatrix
from repro.utils.validation import check_choice

_MAX_CYCLES_PER_ROUND = 2_000_000


@dataclass(frozen=True)
class DetailedStats:
    """Measured statistics of one detailed SPMM simulation."""

    cycles: int
    tasks: int
    n_pes: int
    busy_cycles: np.ndarray
    """Per-PE cycles spent issuing MAC operations."""
    stall_events: int
    """Cycles lost to RaW hazards across all PEs."""
    max_queue_occupancy: int
    """High-water mark of any PE's queue group."""
    cycles_per_round: np.ndarray

    @property
    def utilization(self):
        """MAC issue slots used / offered: tasks / (PEs x cycles)."""
        denom = self.n_pes * self.cycles
        return self.tasks / denom if denom else 0.0


def simulate_spmm_detailed(a_matrix, b_dense, *, n_pes=8, hop=0,
                           mac_latency=5, queues_per_pe=4, tdq="tdq2",
                           buffer_depth=4):
    """Cycle-accurate simulation of ``A @ B`` on the SPMM engine, rows
    mapped to PEs by the contiguous equal split.

    Parameters
    ----------
    a_matrix:
        The sparse operand (:class:`CooMatrix` or :class:`CscMatrix`).
    b_dense:
        The dense operand, shape ``(A.shape[1], k)``.
    tdq:
        ``"tdq2"`` streams A in CSC through the Omega network (the
        ultra-sparse path); ``"tdq1"`` scans A stored dense (the
        general-sparse path). Results are identical; timing differs.

    Returns
    -------
    (result, stats):
        ``result`` is the dense product; ``stats`` a :class:`DetailedStats`.
    """
    if isinstance(a_matrix, CooMatrix):
        a_csc = coo_to_csc(a_matrix)
    elif isinstance(a_matrix, CscMatrix):
        a_csc = a_matrix
    else:
        raise ConfigError(
            f"a_matrix must be CooMatrix or CscMatrix, got "
            f"{type(a_matrix).__name__}"
        )
    b_dense = np.asarray(b_dense, dtype=np.float64)
    if b_dense.ndim != 2 or b_dense.shape[0] != a_csc.shape[1]:
        raise ConfigError(
            f"B must be ({a_csc.shape[1]}, k), got {b_dense.shape}"
        )
    check_choice(tdq, ("tdq1", "tdq2"), "tdq")

    m, k = a_csc.shape[0], b_dense.shape[1]
    owner_of_row = initial_assignment(m, n_pes)

    pes = [
        ProcessingElement(
            p, n_queues=queues_per_pe, mac_latency=mac_latency
        )
        for p in range(n_pes)
    ]
    network = None
    if tdq == "tdq2":
        ports = 1 << max(int(np.ceil(np.log2(max(n_pes, 2)))), 1)
        network = OmegaNetwork(ports, buffer_depth=buffer_depth)
        dispatcher = Tdq2Dispatcher(
            a_csc, owner_of_row, pes, network, hop=hop
        )
    else:
        dispatcher = Tdq1Dispatcher(
            a_csc.to_dense(), owner_of_row, pes, hop=hop
        )

    result = np.zeros((m, k))
    cycles_per_round = np.zeros(k, dtype=np.int64)
    total_cycles = 0
    for col in range(k):
        acc = result[:, col]
        dispatcher.start_column(b_dense[:, col])
        round_cycles = _run_round(dispatcher, network, pes, acc, total_cycles)
        cycles_per_round[col] = round_cycles
        total_cycles += round_cycles

    busy = np.array([pe.busy_cycles for pe in pes], dtype=np.int64)
    return result, DetailedStats(
        cycles=int(total_cycles),
        tasks=a_csc.nnz * k,
        n_pes=n_pes,
        busy_cycles=busy,
        stall_events=sum(pe.stall_events for pe in pes),
        max_queue_occupancy=max(pe.queues.high_water for pe in pes),
        cycles_per_round=cycles_per_round,
    )


def _run_round(dispatcher, network, pes, acc, start_cycle):
    """Run one column to completion; returns its cycle count.

    The round barrier matches the paper: "synchronization is only needed
    when an entire column of the resulting matrix C is completely
    calculated".
    """
    cycle = start_cycle
    for _ in range(_MAX_CYCLES_PER_ROUND):
        dispatcher.step()
        if network is not None:
            exits = network.step()
            dispatcher.deliver(exits)
        for pe in pes:
            pe.step(cycle, acc)
        cycle += 1
        network_empty = network is None or network.empty
        if (
            dispatcher.exhausted
            and network_empty
            and all(pe.idle for pe in pes)
        ):
            # Let the MAC pipelines drain fully.
            drain = max(pe.drain_cycles_left() for pe in pes)
            for extra in range(drain + 1):
                for pe in pes:
                    pe.step(cycle + extra, acc)
            cycle += drain
            return cycle - start_cycle
    raise SimulationError(
        "round did not converge within the cycle limit; "
        "likely a deadlock in dispatch/back-pressure"
    )
