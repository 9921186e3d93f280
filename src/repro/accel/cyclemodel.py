"""Per-SPMM cycle and utilization model.

One SPMM job ``A_sp @ B_dense`` is processed as ``n_rounds`` rounds (one
per column of the dense operand, paper Fig. 5). Each round:

1. the row->PE map induces per-PE loads (tasks = owned non-zeros);
2. local sharing compresses the makespan to the Hall bound of
   :mod:`repro.accel.localshare`;
3. the RaW cooldown bound is applied: a PE whose work is dominated by a
   single output row cannot beat ``(c_max - 1) * cooldown + m``;
4. a fixed drain overhead (network transit + MAC pipeline) is added;
5. with remote switching enabled, the Eq. 5 auto-tuner observes the
   round and may migrate rows before the next one.

After the auto-tuner freezes, every remaining round is identical, so the
model evaluates one frozen round and multiplies — this is what makes
Reddit-scale simulation instantaneous while early-round underutilization
(the paper's residual 4-10% gap) is still captured faithfully.

The tuning phase itself is batched: the Eq. 5 switch trajectory depends
only on observed loads (never on measured makespans), so the tuner
walks a chunk of rounds' switches on the real map, the model prices
every walked load vector in one
:func:`~repro.accel.localshare.share_makespan_batch` kernel call, and
the tuner commits the makespans after the fact, restoring the best map
on a freeze — each round's work done once, with no
one-Hall-bound-per-round Python loop, while staying bit-identical to it
(the sequential loop lives in ``tests/test_accel_cyclemodel.py`` as the
regression oracle). The walked rounds are then the warm-up of the same
finish a frozen replay runs, so a cold SPMM and its cached replay build
their results in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.config import ArchConfig
from repro.accel.localshare import share_makespan, share_makespan_batch
from repro.accel.remote import RemoteAutoTuner
from repro.accel.workload import RowAssignment
from repro.errors import ConfigError
from repro.utils.validation import (
    check_1d_int_array,
    check_choice,
    check_instance,
    check_positive_int,
)


@dataclass(frozen=True)
class SpmmJob:
    """One SPMM workload: the sparse operand's row profile and round count.

    ``row_nnz[r]`` is the number of multiply-accumulates targeting output
    row ``r`` in every round: for ``X @ W`` it is row ``r``'s non-zeros
    in X; for ``A @ (XW)`` it is row ``r``'s non-zeros in A.
    ``tdq`` records which distribution network the hardware would use
    ("tdq1" for general-sparse-stored-dense, "tdq2" for ultra-sparse CSC).
    """

    name: str
    row_nnz: np.ndarray
    n_rounds: int
    tdq: str = "tdq2"

    def __post_init__(self):
        object.__setattr__(
            self, "row_nnz", check_1d_int_array(self.row_nnz, "row_nnz")
        )
        check_positive_int(self.n_rounds, "n_rounds")
        check_choice(self.tdq, ("tdq1", "tdq2"), "tdq")
        if self.row_nnz.size == 0:
            raise ConfigError("row_nnz must be non-empty")
        if self.row_nnz.min() < 0:
            raise ConfigError("row_nnz must be non-negative")

    @property
    def work_per_round(self):
        """Total MAC tasks per round."""
        return int(self.row_nnz.sum())

    @property
    def total_work(self):
        """Total MAC tasks over the whole SPMM."""
        return self.work_per_round * self.n_rounds


@dataclass(frozen=True)
class SpmmResult:
    """Timing outcome of one simulated SPMM."""

    job_name: str
    n_rounds: int
    cycles_per_round: np.ndarray
    """Cycle count of every round (length n_rounds)."""
    ideal_cycles_per_round: int
    """ceil(work / n_pes): the perfect-balance round cost (no drain)."""
    total_work: int
    n_pes: int
    converged_round: object  # int | None
    max_queue_backlog: int
    """Peak per-PE task-queue occupancy estimate across all rounds,
    including the not-yet-converged tuning rounds (absorbed by dispatch
    back-pressure in hardware)."""
    final_backlog: int
    """Steady-state (post-convergence) peak per-PE queue occupancy —
    the paper's 'TQ depth' (65128 for Nell baseline vs 2675 for
    Design D)."""
    total_backlog: int
    """Steady-state queue occupancy summed over all PEs — what the area
    model provisions in total TQ slots."""
    final_owner: np.ndarray
    """Row->PE map after tuning (reused by later SPMMs on the same matrix)."""
    tuned: bool = False
    """Whether the Eq. 5 auto-tuner drove this run. Distinguishes an
    unconverged tuning run (every round is warm-up) from a static map
    (no warm-up at all) when extracting :attr:`warmup_costs`."""

    @property
    def work_per_round(self):
        """MAC tasks per round."""
        return self.total_work // self.n_rounds

    @property
    def warmup_costs(self):
        """Per-round cycle costs of the not-yet-converged prefix.

        Everything :func:`simulate_spmm_frozen` needs (together with
        ``final_owner``) to replay this result exactly: the rounds before
        convergence, or every round when the tuner never froze. Static
        runs have no warm-up — all rounds already cost the same.
        """
        if self.converged_round is not None:
            return tuple(int(c) for c in self.cycles_per_round[:self.converged_round])
        if self.tuned:
            return tuple(int(c) for c in self.cycles_per_round)
        return ()

    @property
    def total_cycles(self):
        """End-to-end cycles including per-round drain."""
        return int(self.cycles_per_round.sum())

    @property
    def ideal_total_cycles(self):
        """Perfect-balance cycles (no sync, no drain): the Fig. 14 'Ideal' bar."""
        return int(self.ideal_cycles_per_round) * self.n_rounds

    @property
    def sync_cycles(self):
        """Cycles lost to imbalance + drain: the Fig. 14 shaded 'Sync' area."""
        return self.total_cycles - self.ideal_total_cycles

    @property
    def utilization(self):
        """PE busy fraction: total MACs / (PEs x total cycles)."""
        denom = self.n_pes * self.total_cycles
        return self.total_work / denom if denom else 0.0


def simulate_spmm(job, config, *, initial_owner=None):
    """Simulate one SPMM under ``config``; returns :class:`SpmmResult`.

    ``initial_owner`` warm-starts the row->PE map (the paper reuses the
    converged configuration when the same sparse matrix appears again,
    e.g. A in layer 2 after tuning in layer 1).

    A cold run is a tuning prefix followed by the frozen replay a cache
    hit runs: with ``remote_switching`` the Eq. 5 tuning phase walks a
    chunk of rounds at a time
    (:meth:`~repro.accel.remote.RemoteAutoTuner.advance`) and prices
    every walked round in one batched Hall-bound kernel call
    (:func:`_drive_tuner_batched`); the walked rounds then end in the
    same finish as :func:`simulate_spmm_frozen`, whose warm-up they
    are. The run records no trace events: a traced caller derives the
    tuner's from the finished result
    (:meth:`repro.accel.GcnAccelerator.run`).
    """
    check_instance(job, SpmmJob, "job")
    check_instance(config, ArchConfig, "config")
    assignment = RowAssignment(job.row_nnz, config.n_pes, owner=initial_owner)
    warmup = np.zeros(0, dtype=np.int64)
    converged_round = None
    if config.remote_switching:
        tuner = RemoteAutoTuner(
            assignment,
            rows_per_pe_equal=max(job.row_nnz.size / config.n_pes, 1.0),
            tracking_window=config.tracking_window,
            damping=config.switch_damping,
            patience=config.convergence_patience,
            approximate=config.eq5_approximate,
        )
        warmup = (_drive_tuner_batched(tuner, assignment, config, job.n_rounds)
                  + config.drain_cycles)
        converged_round = tuner.converged_round
    frozen = hall = None
    if warmup.size < job.n_rounds:
        # Only here is the Hall bound known to describe the *final* map
        # (the tuner can still mutate the assignment when the rounds run
        # out mid-tuning).
        frozen, hall = _round_makespan_parts(assignment, config)
    backlog = _steady_state_backlog(
        assignment, config, _ideal_round(job, config), hall_bound=hall
    )
    return _finish(job, config, assignment, warmup, converged_round,
                   int(backlog.max()), int(backlog.sum()), frozen)


def simulate_spmm_frozen(job, config, owner, *, warmup_costs,
                         converged_round, final_backlog, total_backlog):
    """Evaluate an SPMM under a known-good frozen row->PE map.

    The fast path behind :class:`~repro.serve.AutotuneCache` hits: instead
    of driving the Eq. 5 tuner round by round, evaluate the cached
    ``owner`` map once (one vectorized makespan) and fill every
    post-convergence round with that cost. ``warmup_costs`` replays the
    recorded pre-convergence rounds verbatim, so the returned
    :class:`SpmmResult` is cycle-identical to the cold
    :func:`simulate_spmm` run that produced the cache entry — the
    tuner's O(rounds) control loop and row shuffling are skipped
    entirely. Both end in one finish, and the frozen makespan goes
    through the same Hall kernel as the tuning phase (via
    :func:`_round_makespan_parts`), so the two paths cannot drift.

    ``final_backlog``/``total_backlog`` are the cached steady-state
    queue statistics (pure functions of ``owner`` and ``config``), so
    a replay never runs the EDF transport.

    The result's ``tuned`` flag is the cold run's: a recorded warm-up
    or convergence round means the tuner drove it. An unconverged
    replay thus keeps its whole trace as :attr:`SpmmResult.warmup_costs`,
    and re-extracting tuning state from a replayed report yields the
    entry it replayed.
    """
    check_instance(job, SpmmJob, "job")
    check_instance(config, ArchConfig, "config")
    assignment = RowAssignment(job.row_nnz, config.n_pes, owner=owner)
    warmup = np.asarray(warmup_costs, dtype=np.int64)
    if warmup.size > job.n_rounds:
        raise ConfigError(
            f"warmup_costs has {warmup.size} rounds but the job only runs "
            f"{job.n_rounds}"
        )
    frozen = None
    if warmup.size < job.n_rounds:
        frozen = _round_makespan_parts(assignment, config)[0]
    return _finish(job, config, assignment, warmup, converged_round,
                   final_backlog, total_backlog, frozen)


def _ideal_round(job, config):
    """ceil(work / n_pes): the perfect-balance cost of one round."""
    return -(-job.work_per_round // config.n_pes)


def _finish(job, config, assignment, warmup, converged_round,
            final_backlog, total_backlog, frozen):
    """The :class:`SpmmResult` of a warm-up and a frozen map.

    ``warmup`` holds the per-round cycles of the not-yet-converged
    prefix, and ``frozen`` the makespan of ``assignment``'s map that
    fills every later round (None when the warm-up covers them all).
    The peak backlog is the worst round's makespan over the ideal, and
    ``tuned`` means a convergence round or a non-empty warm-up.
    """
    drain = config.drain_cycles
    ideal = _ideal_round(job, config)
    cycles = np.empty(job.n_rounds, dtype=np.int64)
    cycles[:warmup.size] = warmup
    if frozen is not None:
        cycles[warmup.size:] = frozen + drain
    return SpmmResult(
        job_name=job.name,
        n_rounds=job.n_rounds,
        cycles_per_round=cycles,
        ideal_cycles_per_round=ideal,
        total_work=job.total_work,
        n_pes=config.n_pes,
        converged_round=converged_round,
        max_queue_backlog=max(0, int(cycles.max()) - drain - ideal),
        final_backlog=int(final_backlog),
        total_backlog=int(total_backlog),
        final_owner=assignment.snapshot(),
        tuned=converged_round is not None or warmup.size > 0,
    )


# How many tuning rounds one walk covers. The Eq. 5 tuner typically
# freezes within a handful of rounds (patience 2-4 in every shipped
# config), so one chunk usually covers the whole tuning phase; rounds
# walked past a patience freeze only waste their share of one batched
# Hall evaluation and their switches, which the freeze undoes.
_TUNING_CHUNK = 8


def _drive_tuner_batched(tuner, assignment, config, n_rounds):
    """Chunked tuning driver: each chunk of rounds is walked once.

    :meth:`RemoteAutoTuner.advance` applies up to ``_TUNING_CHUNK``
    rounds of switches, prices their load vectors in one
    :func:`share_makespan_batch` call through ``price`` (with the RaW
    bound) and commits the makespans, stopping at a freeze.
    Bit-identical to the sequential one-Hall-bound-per-round loop (the
    oracle in ``tests/test_accel_cyclemodel.py``): only the makespan
    *evaluation* is batched. Returns the walked rounds' makespans as an
    ``int64`` array.
    """
    raw_bound = _raw_hazard_bound(assignment, config)  # load-map invariant

    def price(loads_matrix):
        return np.maximum(share_makespan_batch(loads_matrix, config.hop),
                          raw_bound)

    while tuner.round_index < n_rounds and not tuner.converged:
        tuner.advance(min(_TUNING_CHUNK, n_rounds - tuner.round_index), price)
    return np.asarray(tuner.makespan_history, dtype=np.int64)


def _steady_state_backlog(assignment, config, ideal, *, hall_bound=None):
    """Per-PE queue occupancy in the converged steady state.

    Tasks for an executing PE arrive roughly uniformly over the dispatch
    window (~``ideal`` cycles at full network bandwidth) while the PE
    drains one per cycle, so its queue peaks near ``executed - ideal``.
    ``executed`` is the water-filling effective load under local sharing.
    ``hall_bound`` optionally forwards an already-evaluated
    ``share_makespan(loads, hop)`` for these exact loads.
    """
    from repro.accel.localshare import share_effective_loads

    loads = assignment.loads
    if config.hop > 0:
        executed = share_effective_loads(loads, config.hop, cap=hall_bound)
    else:
        executed = loads.astype(np.float64)
    backlog = np.maximum(executed - ideal, 0.0)
    return np.ceil(backlog).astype(np.int64)


def _round_makespan_parts(assignment, config):
    """``(makespan, hall_bound)`` of one round under the current map.

    ``hall_bound`` is the local-sharing bound ``share_makespan(loads,
    hop)``, returned alongside so callers can reuse it for the
    steady-state backlog without a second Hall evaluation; the makespan
    is the larger of it and the RaW bound.
    """
    hall = share_makespan(assignment.loads, config.hop)
    return max(hall, _raw_hazard_bound(assignment, config)), hall


def _raw_hazard_bound(assignment, config):
    """Cooldown-scheduling lower bound from the RaW stall window.

    Tasks that accumulate into the same output row must be spaced
    ``raw_cooldown`` cycles apart inside one MAC pipeline. Local sharing
    does not help: the row's partial result lives in one ACC bank, so
    the bound is over rows, not PEs: ``(c_max - 1) * cooldown + 1``.
    It binds only when one row dominates a PE's round (e.g. Nell's hub).
    """
    cooldown = config.raw_cooldown
    if cooldown <= 1:
        return 0
    heaviest_row = int(assignment.row_nnz.max()) if assignment.n_rows else 0
    if heaviest_row <= 1:
        return 0
    return (heaviest_row - 1) * cooldown + 1
