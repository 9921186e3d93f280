"""Full GCN inference on the accelerator: chained SPMMs, pipelined.

A standard 2-layer GCN runs four SPMM jobs (paper Fig. 14 F-J):
``X1 @ W1``, ``A @ (X1 W1)``, ``X2 @ W2``, ``A @ (X2 W2)``. With the
paper's multi-hop aggregation a layer becomes ``A^k (X W)`` and runs
``k + 1`` chained SPMMs — "the three multiplications can be pipelined"
(Sec. 3.3). Within a layer all stages chain at column granularity
(Fig. 8): stage ``s`` consumes column ``j`` as soon as stage ``s - 1``
produced it. Layers are separated by a barrier — a column of the next
layer's ``X @ W`` needs the previous layer's full output.

The converged row->PE map for ``A`` is carried across every A-stage
("the ideal configuration is reused for the remaining iterations"): the
matrix never changes, so re-tuning from scratch would waste rounds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.accel.config import ArchConfig
from repro.accel.cyclemodel import (
    SpmmJob,
    simulate_spmm,
    simulate_spmm_frozen,
)
from repro.accel.workload import per_pe_loads
from repro.errors import ConfigError
from repro.utils.validation import (
    check_1d_int_array,
    check_instance,
    check_non_negative_int,
    check_positive_int,
)


@dataclass(frozen=True)
class LayerTiming:
    """Timing of one GCN layer: its SPMM stages and the pipelined total."""

    stages: tuple
    """The layer's :class:`SpmmResult` objects in dataflow order:
    ``X W`` first, then one ``A @ (...)`` per aggregation hop."""
    pipelined_cycles: int
    """End-to-end cycles of the layer with Fig. 8 column pipelining
    (equals the stage-cycle sum when pipelining is disabled)."""

    @property
    def serial_cycles(self):
        """Layer cycles without inter-SPMM pipelining."""
        return sum(stage.total_cycles for stage in self.stages)

    @property
    def pipeline_speedup(self):
        """How much Fig. 8 pipelining helped for this layer."""
        if self.pipelined_cycles == 0:
            return 1.0
        return self.serial_cycles / self.pipelined_cycles


@dataclass(frozen=True)
class CachedStage:
    """The cacheable outcome of one SPMM stage's auto-tuning.

    ``owner`` is the frozen row->PE map, ``warmup_costs`` the per-round
    cycle costs of the pre-convergence prefix, ``converged_round`` the
    round the Eq. 5 tuner froze at (None for static maps or unconverged
    runs). Together they let :func:`simulate_spmm_frozen` replay the
    stage cycle-identically without re-running the tuner. The two
    steady-state queue statistics are pure functions of (owner, config);
    caching them spares the replay the EDF transport recomputation.

    A stage is immutable: ``owner`` is copied into a read-only int64
    array on construction, so the report an entry was extracted from
    (or any caller holding that array) can never rewrite the cached
    map. Entry identity therefore implies entry content, which is what
    lets :meth:`GcnAccelerator._run_cached` memoize a replay.

    A stage no cold run can produce is a
    :class:`~repro.errors.ConfigError` naming the field: ``warmup_costs``
    is a tuple of non-negative ints, ``converged_round`` None or a
    positive int equal to the warm-up's length (where
    :attr:`SpmmResult.warmup_costs` cuts a converged run), and both
    backlogs are non-negative ints.
    """

    owner: np.ndarray
    warmup_costs: tuple
    converged_round: object  # int | None
    final_backlog: int
    total_backlog: int

    def __post_init__(self):
        owner = check_1d_int_array(self.owner, "owner").copy()
        owner.setflags(write=False)
        object.__setattr__(self, "owner", owner)
        check_instance(self.warmup_costs, tuple, "warmup_costs")
        for index, cost in enumerate(self.warmup_costs):
            check_non_negative_int(cost, f"warmup_costs[{index}]")
        if self.converged_round is not None:
            rounds = check_positive_int(self.converged_round,
                                        "converged_round")
            if rounds != len(self.warmup_costs):
                raise ConfigError(
                    f"converged_round must equal the "
                    f"{len(self.warmup_costs)} warm-up rounds, got {rounds}"
                )
        check_non_negative_int(self.final_backlog, "final_backlog")
        check_non_negative_int(self.total_backlog, "total_backlog")


@dataclass(frozen=True)
class CachedTuning:
    """Per-stage :class:`CachedStage` entries of one full inference.

    The value type of :class:`repro.serve.AutotuneCache`: ``layers``
    mirrors the accelerator's job structure (one tuple of stages per
    GCN layer).
    """

    layers: tuple

    def matches(self, jobs):
        """Whether this entry structurally fits ``jobs`` (defensive:
        a stale or colliding cache entry must fall back to a cold run)."""
        if len(self.layers) != len(jobs):
            return False
        for cached_stages, stage_jobs in zip(self.layers, jobs):
            if len(cached_stages) != len(stage_jobs):
                return False
            for stage, job in zip(cached_stages, stage_jobs):
                if stage.owner.size != job.row_nnz.size:
                    return False
                if len(stage.warmup_costs) > job.n_rounds:
                    return False
        return True

    @classmethod
    def from_report(cls, report):
        """Extract the cacheable tuning state from a cold run's report."""
        layers = tuple(
            tuple(
                CachedStage(
                    owner=result.final_owner,
                    warmup_costs=result.warmup_costs,
                    converged_round=result.converged_round,
                    final_backlog=result.final_backlog,
                    total_backlog=result.total_backlog,
                )
                for result in layer.stages
            )
            for layer in report.layers
        )
        return cls(layers=layers)


@dataclass(frozen=True)
class AcceleratorReport:
    """End-to-end inference outcome for one design on one dataset.

    A report does not change once built: ``layers`` is a tuple of frozen
    :class:`LayerTiming` objects, and :attr:`total_work`,
    :attr:`utilization` and :attr:`latency_ms` are computed on first
    use and kept. That is what lets :meth:`GcnAccelerator.run` return
    one report object to every hit on a cache entry, and its kept cold
    run's report to every repeat miss; the arrays of both are read-only.
    """

    dataset: str
    config: ArchConfig
    layers: tuple
    total_cycles: int
    cache_hit: bool
    """True when this report was replayed from a cached tuning entry
    (the frozen fast path) instead of driving the auto-tuner."""

    @property
    def spmm_results(self):
        """Every :class:`SpmmResult` in execution order."""
        out = []
        for layer in self.layers:
            out.extend(layer.stages)
        return out

    @cached_property
    def total_work(self):
        """Total MAC tasks across all SPMMs."""
        return sum(result.total_work for result in self.spmm_results)

    @cached_property
    def utilization(self):
        """Overall PE utilization: MACs / (PEs x end-to-end cycles)."""
        denom = self.config.n_pes * self.total_cycles
        return self.total_work / denom if denom else 0.0

    @cached_property
    def latency_ms(self):
        """Inference latency in milliseconds at the configured clock."""
        return self.config.cycles_to_ms(self.total_cycles)

    def per_layer_cycles(self):
        """Pipelined cycles per layer (the Fig. 14 A-E bar segments)."""
        return [layer.pipelined_cycles for layer in self.layers]


@dataclass(frozen=True)
class ColdRun:
    """One cold simulation: what a cache miss computes and stores.

    ``report`` is the cold :class:`AcceleratorReport` and ``entry`` the
    :class:`CachedTuning` extracted from it. :meth:`GcnAccelerator.run`
    keeps one per accelerator, so it lives as long as the accelerator:
    :class:`repro.serve.InferenceService` keeps an accelerator while
    consecutive drains use it. Its tuner events are not kept: they are
    a function of the report (:func:`_trace_tuning`).
    """

    report: AcceleratorReport
    entry: CachedTuning


def build_spmm_jobs(dataset, *, a_hops=1):
    """Construct the SPMM jobs of a 2-layer GCN from a
    :class:`~repro.datasets.GcnDataset`.

    Returns one job list per layer: ``[XW, A(XW), A(A(XW)), ...]`` with
    ``a_hops`` adjacency stages; the second layer's ``X`` profile is
    the dataset's forecast ``x2_row_nnz``.
    """
    check_positive_int(a_hops, "a_hops")
    _f1, f2, f3 = dataset.feature_dims
    return jobs_for_layers(
        dataset.adjacency_row_nnz(),
        [("L1", dataset.x1_row_nnz, f2), ("L2", dataset.x2_row_nnz, f3)],
        a_hops=a_hops,
    )


def jobs_for_layers(a_row_nnz, layer_specs, *, a_hops=1):
    """Job lists for an arbitrary-depth GCN.

    ``layer_specs`` is a sequence of ``(label, x_row_nnz, n_rounds)``
    describing each layer's input-feature row profile and output width —
    the general form behind deep GCNs (the paper's intro cites 152-layer
    networks).
    """
    a_row_nnz = np.asarray(a_row_nnz, dtype=np.int64)
    layers = []
    for label, x_row_nnz, n_rounds in layer_specs:
        stages = [
            SpmmJob(
                name=f"{label}:XW", row_nnz=x_row_nnz, n_rounds=n_rounds,
                tdq="tdq1",
            )
        ]
        for hop in range(a_hops):
            suffix = "A(XW)" if hop == 0 else f"A^{hop + 1}(XW)"
            stages.append(
                SpmmJob(
                    name=f"{label}:{suffix}", row_nnz=a_row_nnz,
                    n_rounds=n_rounds, tdq="tdq2",
                )
            )
        layers.append(stages)
    return layers


def slice_jobs(layers, rows, *, suffix=""):
    """Per-shard job lists: every stage's row profile restricted to ``rows``.

    ``layers`` is a job-list structure as produced by
    :func:`build_spmm_jobs` / :func:`jobs_for_layers`; ``rows`` the
    (global) output-row indices one shard owns. Round counts and TDQ
    types are preserved — a shard runs the same dense-operand columns,
    it just owns fewer output rows. ``suffix`` tags the sliced job names
    (e.g. ``"@chip3"``) for readable traces.

    This is the per-shard entry point of :mod:`repro.cluster`: each chip
    of a multi-chip run drives an ordinary single-chip simulation over
    its sliced jobs.
    """
    rows = check_1d_int_array(rows, "rows")
    if rows.size == 0:
        raise ConfigError("a shard must own at least one row")
    sliced = []
    for stage_jobs in layers:
        stage = []
        for job in stage_jobs:
            if rows.min() < 0 or rows.max() >= job.row_nnz.size:
                raise ConfigError(
                    f"shard rows out of range for job {job.name!r} "
                    f"({job.row_nnz.size} rows)"
                )
            stage.append(SpmmJob(
                name=job.name + suffix,
                row_nnz=job.row_nnz[rows],
                n_rounds=job.n_rounds,
                tdq=job.tdq,
            ))
        sliced.append(stage)
    return sliced


class GcnAccelerator:
    """The accelerator model bound to one workload and configuration."""

    def __init__(self, dataset, config, *, a_hops=1):
        check_instance(config, ArchConfig, "config")
        self.dataset = dataset
        self.config = config
        self.jobs = build_spmm_jobs(dataset, a_hops=a_hops)
        self._name = getattr(dataset, "name", "custom")
        self._fingerprint = None
        # The dataset fingerprint is memoized on the dataset object, so
        # deriving from it makes repeat requests near-free.
        self._dataset_key = (dataset, a_hops)
        self._replays = {}
        self._cold = None

    @classmethod
    def from_jobs(cls, jobs, config, *, name="custom"):
        """Build directly from job lists (e.g. :func:`jobs_for_layers`)."""
        check_instance(config, ArchConfig, "config")
        instance = cls.__new__(cls)
        instance.dataset = None
        instance.config = config
        instance.jobs = list(jobs)
        instance._name = name
        instance._fingerprint = None
        instance._dataset_key = None
        instance._replays = {}
        instance._cold = None
        return instance

    @property
    def name(self):
        """The workload label reported as :attr:`AcceleratorReport.dataset`."""
        return self._name

    def fingerprint(self):
        """Structural hash of the workload (not the config).

        Covers everything the cycle model consumes — per-stage row-nnz
        profiles, round counts, TDQ type and the layer structure — so two
        accelerators with equal fingerprints and equal configs produce
        identical reports. This is the graph half of the
        :class:`repro.serve.AutotuneCache` key. Dataset-backed
        accelerators derive it from the memoized
        :func:`~repro.datasets.registry.dataset_fingerprint`; job-list
        accelerators hash the jobs directly (the two derivations name
        the same workload under different digests, which is fine — a
        cache key only needs to be deterministic).
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            if self._dataset_key is not None:
                from repro.datasets.registry import dataset_fingerprint

                dataset, a_hops = self._dataset_key
                digest.update(dataset_fingerprint(dataset).encode())
                digest.update(np.int64(a_hops).tobytes())
            else:
                for stage_jobs in self.jobs:
                    digest.update(b"layer:")
                    for job in stage_jobs:
                        digest.update(job.name.encode())
                        digest.update(job.tdq.encode())
                        digest.update(np.int64(job.n_rounds).tobytes())
                        digest.update(
                            np.ascontiguousarray(job.row_nnz).tobytes()
                        )
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def run(self, *, cache=None, tracer=None):
        """Simulate full inference; returns an :class:`AcceleratorReport`.

        ``cache`` is an optional :class:`repro.serve.AutotuneCache` (any
        object with ``lookup(fingerprint, config)`` / ``store(...)``). On
        a hit the report is replayed through the frozen fast path — the
        auto-tuner warm-up is skipped entirely, yet the cycle counts are
        identical to the cold run that populated the entry. On a miss the
        cold run's tuning state is stored for the next request.

        An entry is checked against the jobs (:meth:`CachedTuning.matches`)
        once per accelerator: one this accelerator has already replayed
        has already matched, since entries and jobs are immutable. An
        entry that does not match is never memoized, so it is checked,
        and runs cold, on every hit.

        Each entry object is replayed once per accelerator
        (:meth:`_run_cached`), and every hit on it returns that one
        :class:`AcceleratorReport`.

        A cold run is a pure function of (jobs, config), so with a cache
        each accelerator drives the tuner at most once: its first miss
        keeps the :class:`ColdRun` (the report and the entry it
        stored), and every later miss — the key was evicted, or this is
        another cache — makes the same calls the cold path does:
        ``lookup``, the tuner events into ``tracer``, ``store`` of that
        same entry object. Every miss returns the kept run's report.
        ``cache=None`` tunes on every call and returns a new report each
        time: it is the no-cache baseline. Every report's arrays are
        read-only.

        ``tracer`` (a :class:`~repro.obs.tracer.RecordingTracer`)
        receives the cold path's per-stage Eq. 5 tuning events, read off
        the cold report (:func:`_trace_tuning`) after a cache-less run
        and between the lookup and the store of every miss, so a miss
        that reuses a run kept untraced traces without simulating again.
        The frozen replay emits nothing of its own (the cache layer's
        hit/miss events already mark it).
        """
        if cache is None:
            return self._traced(self._run_cold(), tracer)
        fingerprint = self.fingerprint()
        entry = cache.lookup(fingerprint, self.config)
        if entry is not None and (id(entry) in self._replays
                                  or entry.matches(self.jobs)):
            return self._run_cached(entry)
        cold = self._cold
        if cold is None:
            report = self._run_cold()
            cold = self._cold = ColdRun(
                report=report, entry=CachedTuning.from_report(report)
            )
        self._traced(cold.report, tracer)
        cache.store(fingerprint, self.config, cold.entry)
        return cold.report

    def _traced(self, report, tracer):
        """Emit each stage's tuner events of the cold ``report`` into
        ``tracer`` when it records; returns ``report``."""
        if tracer is not None and tracer.enabled:
            for stage_jobs, layer in zip(self.jobs, report.layers):
                for job, result in zip(stage_jobs, layer.stages):
                    _trace_tuning(tracer, job, self.config, result)
        return report

    def _run_cold(self):
        """Full simulation: drive the auto-tuner on every stage."""
        layers = []
        a_owner = None
        for stage_jobs in self.jobs:
            results = []
            for job in stage_jobs:
                is_a_stage = job.tdq == "tdq2"
                result = simulate_spmm(
                    job,
                    self.config,
                    initial_owner=a_owner if is_a_stage else None,
                )
                if is_a_stage:
                    a_owner = result.final_owner
                results.append(result)
            layers.append(results)
        return self._report(layers, cache_hit=False)

    def _run_cached(self, entry):
        """Replay a :class:`CachedTuning` entry through the frozen path.

        The replay is a pure function of (jobs, config, entry) and
        entries are immutable, so each entry object is replayed once per
        accelerator, into one :class:`AcceleratorReport` (its arrays
        read-only) that every later hit on that object returns. A
        different entry object under the same key (a re-store) is
        replayed afresh. The memo pins every entry it holds, so an
        ``id`` in it is never reused, which is what lets :meth:`run`
        skip the structural check for a memoized entry: only an entry
        that matched is ever replayed and memoized.
        """
        memo = self._replays.get(id(entry))
        if memo is None:
            layers = [
                [
                    simulate_spmm_frozen(
                        job,
                        self.config,
                        stage.owner,
                        warmup_costs=stage.warmup_costs,
                        converged_round=stage.converged_round,
                        final_backlog=stage.final_backlog,
                        total_backlog=stage.total_backlog,
                    )
                    for job, stage in zip(stage_jobs, cached_stages)
                ]
                for stage_jobs, cached_stages in zip(self.jobs, entry.layers)
            ]
            memo = (entry, self._report(layers, cache_hit=True))
            self._replays[id(entry)] = memo
        return memo[1]

    def _report(self, layers, *, cache_hit):
        """Fold per-layer stage results into an :class:`AcceleratorReport`.

        Each result's arrays are made read-only, and each layer becomes
        a :class:`LayerTiming` of Fig. 8 pipelined (or, with
        ``pipeline_spmm`` off, serial) cycles.
        """
        timings = []
        for results in layers:
            for result in results:
                result.cycles_per_round.setflags(write=False)
                result.final_owner.setflags(write=False)
            if self.config.pipeline_spmm:
                cycles = _pipeline_cycles(results, self.config)
            else:
                cycles = sum(result.total_cycles for result in results)
            timings.append(LayerTiming(stages=tuple(results),
                                       pipelined_cycles=int(cycles)))
        return AcceleratorReport(
            dataset=self._name,
            config=self.config,
            layers=tuple(timings),
            total_cycles=sum(timing.pipelined_cycles for timing in timings),
            cache_hit=cache_hit,
        )


def _trace_tuning(tracer, job, config, result):
    """Emit the Eq. 5 tuning trajectory of one finished SPMM stage.

    A fold over the finished result: one ``tuner.round`` instant per
    round of its warm-up (the rounds tuned), each at its cumulative
    cycle offset (converted to simulated seconds) from the tracer's
    current anchor, and a closing ``tuner.done`` carrying the
    convergence round and the final owner map's balance. The service
    pins the anchor at each request's dispatch instant, so stage events
    land inside the request's service span.
    """
    lane = f"sim/{job.name}"
    warmup = result.warmup_costs
    cum = 0
    for round_index, cost in enumerate(warmup):
        cum += cost
        tracer.instant(
            "tuner.round", lane=lane,
            offset=config.cycles_to_seconds(cum),
            args={"round": round_index, "cycles": cost},
        )
    loads = per_pe_loads(result.final_owner, job.row_nnz, config.n_pes)
    total = int(loads.sum())
    peak = int(loads.max())
    tracer.instant(
        "tuner.done", lane=lane, offset=config.cycles_to_seconds(cum),
        args={
            "job": job.name,
            "tuned": result.tuned,
            "rounds_tuned": len(warmup),
            "converged_round": result.converged_round,
            "owner_peak_frac": round(peak / total, 6) if total else 0.0,
            "imbalance": (
                round(peak * config.n_pes / total, 4) if total else 0.0
            ),
        },
    )


def _pipeline_cycles(stage_results, config):
    """Fig. 8 column-granularity chaining on a *shared* PE array.

    In slot ``j``, stage ``s`` works on column ``j - s``. All stages
    time-share the same PEs, so a slot cannot beat the aggregate work
    bound ``ceil(sum of active stages' work / n_pes)``; nor can it beat
    any active stage's own imbalance-limited makespan.

    The gain over serial execution comes exactly where the paper claims:
    sync gaps of an imbalanced round are filled with another stage's
    queued tasks. For perfectly balanced stages the pipeline yields no
    throughput gain (slots are work-bound), only the on-chip buffering
    benefit.
    """
    drain = config.drain_cycles
    n_stages = len(stage_results)
    makespans = [
        r.cycles_per_round.astype(np.int64) - drain for r in stage_results
    ]
    works = [r.work_per_round for r in stage_results]
    max_rounds = max(m.size for m in makespans)
    n_slots = max_rounds + n_stages - 1
    # Lay stage s's per-column makespans onto the slot axis at offset s
    # (slot j sees stage s working column j - s); idle cells stay 0 and
    # cannot win the max since real makespans are non-negative.
    grid = np.zeros((n_stages, n_slots), dtype=np.int64)
    active = np.zeros((n_stages, n_slots), dtype=bool)
    for s, stage_makespans in enumerate(makespans):
        grid[s, s:s + stage_makespans.size] = stage_makespans
        active[s, s:s + stage_makespans.size] = True
    slot_cost = grid.max(axis=0)
    slot_work = (np.asarray(works, dtype=np.int64)[:, None] * active).sum(axis=0)
    work_bound = -(-slot_work // config.n_pes)
    multi = active.sum(axis=0) > 1
    slot_cost = np.where(multi, np.maximum(slot_cost, work_bound), slot_cost)
    return int(slot_cost.sum()) + n_slots * drain
