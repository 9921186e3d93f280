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
from dataclasses import dataclass, replace

import numpy as np

from repro.accel.config import ArchConfig
from repro.accel.cyclemodel import (
    SpmmJob,
    SpmmResult,
    simulate_spmm,
    simulate_spmm_frozen,
)
from repro.errors import ConfigError
from repro.obs.tracer import RecordingTracer
from repro.utils.validation import check_1d_int_array


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
    def xw(self):
        """The layer's ``X @ W`` stage."""
        return self.stages[0]

    @property
    def axw(self):
        """The layer's final ``A @ (...)`` stage."""
        return self.stages[-1]

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
    """End-to-end inference outcome for one design on one dataset."""

    dataset: str
    config: ArchConfig
    layers: list
    total_cycles: int
    cache_hit: bool = False
    """True when this report was replayed from a cached tuning entry
    (the frozen fast path) instead of driving the auto-tuner."""

    @property
    def spmm_results(self):
        """Every :class:`SpmmResult` in execution order."""
        out = []
        for layer in self.layers:
            out.extend(layer.stages)
        return out

    @property
    def total_work(self):
        """Total MAC tasks across all SPMMs."""
        return sum(result.total_work for result in self.spmm_results)

    @property
    def utilization(self):
        """Overall PE utilization: MACs / (PEs x end-to-end cycles)."""
        denom = self.config.n_pes * self.total_cycles
        return self.total_work / denom if denom else 0.0

    @property
    def latency_ms(self):
        """Inference latency in milliseconds at the configured clock."""
        return self.config.cycles_to_ms(self.total_cycles)

    @property
    def ideal_cycles(self):
        """Perfect-balance cycles, assuming pipelining hides nothing extra."""
        return sum(r.ideal_total_cycles for r in self.spmm_results)

    def per_layer_cycles(self):
        """Pipelined cycles per layer (the Fig. 14 A-E bar segments)."""
        return [layer.pipelined_cycles for layer in self.layers]


@dataclass(frozen=True)
class ColdRun:
    """One cold simulation: what a cache miss computes and stores.

    ``report`` is the cold :class:`AcceleratorReport`, ``entry`` the
    :class:`CachedTuning` extracted from it, and ``events`` the tuner
    events the run emitted, recorded at simulated time 0 so that
    :meth:`~repro.obs.tracer.RecordingTracer.splice` can re-anchor them
    (None when the run was not traced). The parallel backend ships one
    per presimulated key, :meth:`GcnAccelerator.run` keeps one per
    accelerator and :class:`repro.serve.InferenceService` keeps one per
    cache key for its whole life.
    """

    report: AcceleratorReport
    entry: CachedTuning
    events: object = None  # tuple | None


def build_spmm_jobs(dataset, *, x2_row_nnz=None, a_hops=1):
    """Construct the SPMM jobs of a 2-layer GCN from a dataset.

    Returns one job list per layer: ``[XW, A(XW), A(A(XW)), ...]`` with
    ``a_hops`` adjacency stages. ``x2_row_nnz`` overrides the dataset's
    forecast X2 profile with a measured one.
    """
    if not isinstance(a_hops, int) or a_hops < 1:
        raise ConfigError(f"a_hops must be a positive int, got {a_hops}")
    if hasattr(dataset, "adjacency_row_nnz"):
        a_row_nnz = dataset.adjacency_row_nnz()
    else:
        a_row_nnz = dataset.adjacency.row_nnz()
    _f1, f2, f3 = dataset.feature_dims
    if x2_row_nnz is None:
        x2_row_nnz = dataset.x2_row_nnz
    x2_row_nnz = np.asarray(x2_row_nnz, dtype=np.int64)
    if x2_row_nnz.size != dataset.n_nodes:
        raise ConfigError(
            f"x2_row_nnz must have length {dataset.n_nodes}, "
            f"got {x2_row_nnz.size}"
        )
    layer_inputs = [
        ("L1", dataset.x1_row_nnz, f2),
        ("L2", x2_row_nnz, f3),
    ]
    layers = []
    for label, x_row_nnz, n_rounds in layer_inputs:
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

    def __init__(self, dataset, config, *, x2_row_nnz=None, a_hops=1):
        if not isinstance(config, ArchConfig):
            raise ConfigError(
                f"config must be ArchConfig, got {type(config).__name__}"
            )
        self.dataset = dataset
        self.config = config
        self.jobs = build_spmm_jobs(
            dataset, x2_row_nnz=x2_row_nnz, a_hops=a_hops
        )
        self._name = getattr(dataset, "name", "custom")
        self._fingerprint = None
        # The dataset fingerprint is memoized on the dataset object, so
        # deriving from it makes repeat requests near-free; an explicit
        # x2 override changes the workload and forces the slow job hash.
        self._dataset_key = (dataset, a_hops) if x2_row_nnz is None else None
        self._replays = {}
        self._cold = None

    @classmethod
    def for_shard(cls, dataset, config, rows, *, x2_row_nnz=None, a_hops=1,
                  name=None):
        """An accelerator simulating one shard of ``dataset``.

        ``rows`` are the global node indices the shard owns; the
        returned accelerator runs the standard 2-layer job structure
        with every row profile sliced to the shard (via
        :func:`slice_jobs`), so multi-chip models can drive it exactly
        like a single-chip run — including the autotune-cache fast path
        (the fingerprint hashes the sliced jobs, keying cache entries
        per shard).
        """
        layers = build_spmm_jobs(dataset, x2_row_nnz=x2_row_nnz,
                                 a_hops=a_hops)
        if name is None:
            base = getattr(dataset, "name", "custom")
            name = f"{base}/shard{len(rows)}r"
        return cls.from_jobs(slice_jobs(layers, rows), config, name=name)

    @classmethod
    def from_jobs(cls, jobs, config, *, name="custom"):
        """Build directly from job lists (e.g. :func:`jobs_for_layers`)."""
        if not isinstance(config, ArchConfig):
            raise ConfigError(
                f"config must be ArchConfig, got {type(config).__name__}"
            )
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

        A cold run is a pure function of (jobs, config), so with a cache
        each accelerator drives the tuner at most once: its first miss
        keeps the :class:`ColdRun` (the report's arrays made read-only,
        the entry it stored and, when traced, its tuner events) unless
        one was seeded with :meth:`remember_cold`, and every later miss
        — the key was evicted, or this is another cache — makes the
        same calls the cold path does: ``lookup``, the events spliced
        into ``tracer``, ``store`` of that same entry object. It returns
        a fresh report sharing the kept :class:`LayerTiming` objects.
        A run kept untraced is simulated again, once, the first time a
        traced miss needs its events. ``cache=None`` tunes on every call:
        it is the no-cache baseline.

        ``tracer`` (a :class:`~repro.obs.tracer.RecordingTracer`)
        records the cold path's per-stage Eq. 5 tuning events; the
        frozen replay emits nothing of its own (the cache layer's
        hit/miss events already mark it).
        """
        if cache is None:
            return self._run_cold(tracer=tracer)
        fingerprint = self.fingerprint()
        entry = cache.lookup(fingerprint, self.config)
        if entry is not None and (id(entry) in self._replays
                                  or entry.matches(self.jobs)):
            return self._run_cached(entry)
        trace = tracer is not None and tracer.enabled
        if not self.remembers_cold_run(traced=trace):
            self.remember_cold(self.cold_run(traced=trace))
        cold = self._cold
        if trace:
            tracer.splice(cold.events)
        cache.store(fingerprint, self.config, cold.entry)
        return replace(cold.report, dataset=self._name,
                       layers=list(cold.report.layers))

    def cold_run(self, *, traced=False):
        """Simulate cold, cache-less; returns the :class:`ColdRun` a
        miss keeps. ``traced`` records the tuner events on a local
        :class:`~repro.obs.tracer.RecordingTracer` at simulated 0."""
        local = RecordingTracer() if traced else None
        report = self._run_cold(tracer=local)
        return ColdRun(
            report=report,
            entry=CachedTuning.from_report(report),
            events=tuple(local.events) if traced else None,
        )

    def remembers_cold_run(self, *, traced=False):
        """Whether a cache miss would skip the tuner (see :meth:`run`);
        ``traced`` asks for a kept run that has its tuner events."""
        cold = self._cold
        return cold is not None and (not traced or cold.events is not None)

    @property
    def kept_cold_run(self):
        """The :class:`ColdRun` later misses replay, or None (read-only:
        :meth:`remember_cold` is the only way to set it)."""
        return self._cold

    def remember_cold(self, cold):
        """Keep a :class:`ColdRun` for later misses on this workload.

        ``cold`` must be what :meth:`run` would compute on a miss, which
        any run under the same ``(fingerprint, config)`` cache key is:
        :func:`repro.parallel.presimulate` seeds each accelerator with
        its pool-computed run this way, and
        :class:`repro.serve.InferenceService` seeds the accelerators of
        every drain with the runs earlier drains kept. A kept run stays:
        ``cold`` only adds the tuner events a kept untraced run lacks.
        """
        kept = self._cold
        if kept is None:
            for result in cold.report.spmm_results:
                result.cycles_per_round.setflags(write=False)
                result.final_owner.setflags(write=False)
            self._cold = cold
        elif kept.events is None and cold.events is not None:
            self._cold = replace(kept, events=cold.events)

    def _run_cold(self, *, tracer=None):
        """Full simulation: drive the auto-tuner on every stage."""
        layers = []
        total = 0
        a_owner = None
        for stage_jobs in self.jobs:
            results = []
            for index, job in enumerate(stage_jobs):
                is_a_stage = job.tdq == "tdq2"
                result = simulate_spmm(
                    job,
                    self.config,
                    initial_owner=a_owner if is_a_stage else None,
                    tracer=tracer,
                )
                if is_a_stage:
                    a_owner = result.final_owner
                results.append(result)
            layer_timing, layer_cycles = self._layer_timing(results)
            layers.append(layer_timing)
            total += layer_cycles
        return AcceleratorReport(
            dataset=self._name,
            config=self.config,
            layers=layers,
            total_cycles=total,
        )

    def _run_cached(self, entry):
        """Replay a :class:`CachedTuning` entry through the frozen path.

        The replay is a pure function of (jobs, config, entry) and
        entries are immutable, so each entry object is replayed once per
        accelerator: later hits get a fresh report sharing the first
        replay's :class:`LayerTiming` objects, whose arrays are
        read-only. A different entry object under the same key (a
        re-store) is replayed afresh. The memo pins every entry it
        holds, so an ``id`` in it is never reused, which is what lets
        :meth:`run` skip the structural check for a memoized entry:
        only an entry that matched is ever replayed and memoized.
        """
        memo = self._replays.get(id(entry))
        if memo is None:
            layers = []
            total = 0
            for stage_jobs, cached_stages in zip(self.jobs, entry.layers):
                results = [
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
                for result in results:
                    result.cycles_per_round.setflags(write=False)
                    result.final_owner.setflags(write=False)
                layer_timing, layer_cycles = self._layer_timing(results)
                layers.append(layer_timing)
                total += layer_cycles
            memo = (entry, tuple(layers), total)
            self._replays[id(entry)] = memo
        _entry, layers, total = memo
        return AcceleratorReport(
            dataset=self._name,
            config=self.config,
            layers=list(layers),
            total_cycles=total,
            cache_hit=True,
        )

    def _layer_timing(self, results):
        """Fold one layer's stage results into a :class:`LayerTiming`."""
        if self.config.pipeline_spmm:
            layer_cycles = _pipeline_cycles(results, self.config)
        else:
            layer_cycles = sum(r.total_cycles for r in results)
        timing = LayerTiming(
            stages=tuple(results),
            pipelined_cycles=int(layer_cycles),
        )
        return timing, int(layer_cycles)


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
