"""Per-SPMM cycle and utilization model.

One SPMM job ``A_sp @ B_dense`` is processed as ``n_rounds`` rounds (one
per column of the dense operand, paper Fig. 5). Each round:

1. the row->PE map induces per-PE loads (tasks = owned non-zeros);
2. local sharing compresses the makespan to the Hall bound of
   :mod:`repro.accel.localshare` (scaled by ``sharing_efficiency``);
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
regression oracle).
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


def simulate_spmm(job, config, *, initial_owner=None, tracer=None):
    """Simulate one SPMM under ``config``; returns :class:`SpmmResult`.

    ``initial_owner`` warm-starts the row->PE map (the paper reuses the
    converged configuration when the same sparse matrix appears again,
    e.g. A in layer 2 after tuning in layer 1).

    The Eq. 5 tuning phase walks a chunk of rounds at a time
    (:meth:`~repro.accel.remote.RemoteAutoTuner.advance`) and prices
    every walked round in one batched Hall-bound kernel call
    (:func:`_drive_tuner_batched`).

    ``tracer`` (a :class:`~repro.obs.tracer.RecordingTracer`) records
    the Eq. 5 tuning trajectory: one ``tuner.round`` instant per
    not-yet-converged round (at its cumulative cycle offset from the
    tracer's simulated anchor) and a closing ``tuner.done`` carrying
    the convergence round and final owner-map balance. Events are
    derived from the completed cycle trace after the drive loop, so
    the default ``None`` leaves the hot loop untouched.
    """
    check_instance(job, SpmmJob, "job")
    check_instance(config, ArchConfig, "config")
    assignment = RowAssignment(job.row_nnz, config.n_pes, owner=initial_owner)
    ideal = -(-job.work_per_round // config.n_pes)

    tuner = None
    if config.remote_switching:
        rows_per_pe = max(job.row_nnz.size / config.n_pes, 1.0)
        tuner = RemoteAutoTuner(
            assignment,
            rows_per_pe_equal=rows_per_pe,
            tracking_window=config.tracking_window,
            damping=config.switch_damping,
            patience=config.convergence_patience,
            approximate=config.eq5_approximate,
        )

    cycles = np.zeros(job.n_rounds, dtype=np.int64)
    max_backlog = 0
    converged_round = None
    round_idx = 0
    hall_for_backlog = None
    if tuner is not None:
        round_idx, max_backlog = _drive_tuner_batched(
            tuner, assignment, config, cycles, job.n_rounds, ideal
        )
        converged_round = tuner.converged_round
    if round_idx < job.n_rounds:
        # Static map (no tuner, or frozen): all remaining rounds are
        # identical — evaluate once and fill. Only here is the Hall
        # bound known to describe the *final* map (the tuner can still
        # mutate the assignment when the rounds run out mid-tuning).
        makespan, hall = _round_makespan_parts(assignment, config)
        max_backlog = max(max_backlog, max(0, makespan - ideal))
        cycles[round_idx:] = makespan + config.drain_cycles
        hall_for_backlog = hall

    per_pe_backlog = _steady_state_backlog(
        assignment, config, ideal, hall_bound=hall_for_backlog
    )
    if tracer is not None and tracer.enabled:
        _trace_tuning(
            tracer, job, config, cycles, round_idx, converged_round,
            assignment, tuned=tuner is not None,
        )
    return SpmmResult(
        job_name=job.name,
        n_rounds=job.n_rounds,
        cycles_per_round=cycles,
        ideal_cycles_per_round=ideal,
        total_work=job.total_work,
        n_pes=config.n_pes,
        converged_round=converged_round,
        max_queue_backlog=int(max_backlog),
        final_backlog=int(per_pe_backlog.max()) if per_pe_backlog.size else 0,
        total_backlog=int(per_pe_backlog.sum()),
        final_owner=assignment.snapshot(),
        tuned=tuner is not None,
    )


def _trace_tuning(tracer, job, config, cycles, rounds_tuned,
                  converged_round, assignment, *, tuned):
    """Emit the Eq. 5 tuning trajectory of one SPMM stage.

    Post-hoc fold over the completed per-round cycle trace: round
    timestamps are cumulative cycle offsets (converted to simulated
    seconds) from the tracer's current anchor — the service pins the
    anchor at each request's dispatch instant, so stage events land
    inside the request's service span.
    """
    lane = f"sim/{job.name}"
    cum = 0
    for round_index in range(rounds_tuned):
        cum += int(cycles[round_index])
        tracer.instant(
            "tuner.round", lane=lane,
            offset=config.cycles_to_seconds(cum),
            args={
                "round": round_index,
                "cycles": int(cycles[round_index]),
            },
        )
    loads = assignment.loads
    total = int(loads.sum())
    peak = int(loads.max()) if loads.size else 0
    tracer.instant(
        "tuner.done", lane=lane, offset=config.cycles_to_seconds(cum),
        args={
            "job": job.name,
            "tuned": tuned,
            "rounds_tuned": rounds_tuned,
            "converged_round": converged_round,
            "owner_peak_frac": round(peak / total, 6) if total else 0.0,
            "imbalance": (
                round(peak * config.n_pes / total, 4) if total else 0.0
            ),
        },
    )


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
    entirely. The frozen makespan goes through the same batched Hall
    kernel as the tuning phase (via :func:`_round_makespan_parts`), so
    the two paths cannot drift.

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
    ideal = -(-job.work_per_round // config.n_pes)
    drain = config.drain_cycles

    warmup = np.asarray(warmup_costs, dtype=np.int64)
    if warmup.size > job.n_rounds:
        raise ConfigError(
            f"warmup_costs has {warmup.size} rounds but the job only runs "
            f"{job.n_rounds}"
        )
    cycles = np.empty(job.n_rounds, dtype=np.int64)
    cycles[:warmup.size] = warmup
    makespans_seen = warmup - drain
    if warmup.size < job.n_rounds:
        frozen_makespan = _round_makespan_parts(assignment, config)[0]
        cycles[warmup.size:] = frozen_makespan + drain
        makespans_seen = np.append(makespans_seen, frozen_makespan)
    max_backlog = (
        max(0, int(makespans_seen.max()) - ideal) if makespans_seen.size else 0
    )
    return SpmmResult(
        job_name=job.name,
        n_rounds=job.n_rounds,
        cycles_per_round=cycles,
        ideal_cycles_per_round=ideal,
        total_work=job.total_work,
        n_pes=config.n_pes,
        converged_round=converged_round,
        max_queue_backlog=int(max_backlog),
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


def _drive_tuner_batched(tuner, assignment, config, cycles, n_rounds, ideal):
    """Chunked tuning driver: each chunk of rounds is walked once.

    :meth:`RemoteAutoTuner.advance` applies up to ``_TUNING_CHUNK``
    rounds of switches, prices their load vectors in one
    :func:`share_makespan_batch` call through ``price`` (with the
    sharing efficiency and the RaW bound) and commits the makespans,
    stopping at a freeze. Bit-identical to the sequential
    one-Hall-bound-per-round loop (the oracle in
    ``tests/test_accel_cyclemodel.py``): only the makespan *evaluation*
    is batched. Returns ``(rounds_consumed, max_backlog)``.
    """
    raw_bound = _raw_hazard_bound(assignment, config)  # load-map invariant

    def price(loads_matrix):
        halls = share_makespan_batch(loads_matrix, config.hop)
        spans = np.ceil(halls / config.sharing_efficiency).astype(np.int64)
        return np.maximum(spans, raw_bound)

    while tuner.round_index < n_rounds and not tuner.converged:
        tuner.advance(min(_TUNING_CHUNK, n_rounds - tuner.round_index), price)
    makespans = np.asarray(tuner.makespan_history, dtype=np.int64)
    cycles[:makespans.size] = makespans + config.drain_cycles
    return makespans.size, max(0, int(makespans.max()) - ideal)


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

    ``hall_bound`` is the unscaled local-sharing bound
    (``share_makespan(loads, hop)`` at efficiency 1), returned alongside
    so callers can reuse it for the steady-state backlog without a second
    Hall evaluation.
    """
    loads = assignment.loads
    hall = share_makespan(loads, config.hop)
    span = int(np.ceil(hall / config.sharing_efficiency))
    raw_bound = _raw_hazard_bound(assignment, config)
    return max(span, raw_bound), int(hall)


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
