"""The parallel execution backend: real processes, bit-identical results.

Everything the simulator models is deterministic, so the expensive part
of serving — driving the Eq. 5 auto-tuner through a cold simulation —
is a pure function of ``(jobs, ArchConfig)``. This module farms those
pure cold runs out to a persistent :mod:`multiprocessing` worker pool
and then *replays* them into the caller's sequential control flow, so
the parallel path produces bit-identical cycle counts, latency traces
and cache state to the sequential oracle:

* :func:`presimulate` scans a list of accelerators, deduplicates them
  by cache key, skips keys the shared :class:`~repro.serve.AutotuneCache`
  already answers, and runs the remaining cold simulations in the pool;
* :func:`replay_simulation` is the gather side: it mirrors
  :meth:`~repro.accel.GcnAccelerator.run`'s lookup/store discipline
  against the shared cache in the caller's original order, folding each
  worker-local result back deterministically (via
  :meth:`~repro.serve.AutotuneCache.lookup` +
  :meth:`~repro.serve.AutotuneCache.store`, the same calls the
  sequential path makes) — hit/miss counters, LRU recency and eviction
  order all come out identical to the sequential run;
* :func:`simulate_accels` composes the two into a drop-in replacement
  for ``[accel.run(cache=cache) for accel in accels]``.

The consumers are :func:`repro.cluster.simulate_multichip_gcn` (per-chip
shard simulations are independent between layer barriers by
construction — ``ClusterConfig(workers=N)``) and
:meth:`repro.serve.InferenceService.drain` (independent requests of the
serving pool — ``InferenceService(workers=N)``).

Only wall-clock figures (``busy_seconds``, ``sim_seconds``,
``wall_seconds``) may differ between the backends: they measure how
long the simulation itself took, which is exactly what the pool
shrinks. Everything on the simulated clock is identical.

The pool is created lazily on first use (``fork`` start method where
available, ``spawn`` otherwise), kept alive across calls, resized on
demand and torn down at interpreter exit. ``REPRO_PARALLEL_DISABLE=1``
forces the sequential path regardless of any ``workers`` knob — an
escape hatch for hosts where :mod:`multiprocessing` is unavailable.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from dataclasses import dataclass

from repro.accel.gcnaccel import CachedTuning, GcnAccelerator
from repro.utils.validation import check_positive_int

_POOL = None
_POOL_SIZE = 0


def check_workers(workers, name="workers"):
    """Validate a worker-count knob (positive int; 1 = sequential)."""
    return check_positive_int(workers, name)


def effective_workers(workers):
    """The worker count actually used, honoring the disable switch."""
    workers = check_workers(workers)
    if os.environ.get("REPRO_PARALLEL_DISABLE") == "1":
        return 1
    return workers


def _make_pool(processes):
    """A worker pool using the cheapest start method the host offers."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        context = multiprocessing.get_context("spawn")
    return context.Pool(processes=processes)


def _get_pool(processes):
    """The shared pool, created lazily and resized when asked to grow."""
    global _POOL, _POOL_SIZE
    if _POOL is not None and _POOL_SIZE != processes:
        shutdown_pool()
    if _POOL is None:
        _POOL = _make_pool(processes)
        _POOL_SIZE = processes
    return _POOL


def shutdown_pool():
    """Tear the shared pool down (no-op when none is alive)."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        _POOL = None
        _POOL_SIZE = 0


atexit.register(shutdown_pool)


def _simulate_payload(payload):
    """Worker-side task: one cold accelerator simulation.

    Returns ``(report, entry, events)`` — the full cold
    :class:`~repro.accel.gcnaccel.AcceleratorReport`, the
    :class:`~repro.accel.CachedTuning` the sequential path would have
    stored for it, and (when tracing) the cold run's tuner events
    recorded at simulated time 0 for the parent to
    :meth:`~repro.obs.tracer.RecordingTracer.splice` in at replay.
    Runs cache-less: a worker never sees the shared cache, so there is
    nothing to race on.
    """
    jobs, config, name, trace = payload
    accel = GcnAccelerator.from_jobs(jobs, config, name=name)
    if trace:
        from repro.obs.tracer import RecordingTracer

        local = RecordingTracer()
        report = accel.run(tracer=local)
        return report, CachedTuning.from_report(report), tuple(local.events)
    report = accel.run()
    return report, CachedTuning.from_report(report), ()


@dataclass(frozen=True)
class PresimResult:
    """One pool-computed cold simulation awaiting replay."""

    report: object
    entry: CachedTuning
    events: tuple = ()
    """Tuner events the worker recorded (anchored at simulated 0)."""


def presimulate(accels, *, cache=None, workers=2, tracer=None):
    """Run the cold simulations a batch of accelerators needs, in the pool.

    Scans ``accels`` in order, keys each by ``(fingerprint, config)``
    (the :class:`~repro.serve.AutotuneCache` key), and dispatches one
    cold simulation per key that neither the cache (checked via
    :meth:`~repro.serve.AutotuneCache.peek` — no counter or recency
    side effects, and ``trace=False`` so these parallel-only probes
    stay out of the event stream) nor an earlier accelerator in the
    batch will answer. Returns ``{key: PresimResult}`` for the
    dispatched keys.

    With a ``tracer`` enabled, each worker records its cold run's tuner
    events locally (anchored at simulated 0) and ships them back in the
    :class:`PresimResult` — :func:`replay_simulation` splices them into
    the parent stream at the exact point the sequential path would have
    emitted them.

    Deduplication is sound because a cold report is a pure function of
    the key: two accelerators with equal fingerprints and configs
    produce identical reports, so replaying one presimulated result for
    both is exactly what the sequential store-then-hit sequence yields.
    """
    trace = tracer is not None and tracer.enabled
    payloads = []
    keys = []
    seen = set()
    for accel in accels:
        key = (accel.fingerprint(), accel.config)
        if key in seen:
            continue
        if cache is not None:
            entry = cache.peek(key[0], key[1], trace=False)
            if entry is not None and entry.matches(accel.jobs):
                continue
        seen.add(key)
        keys.append(key)
        payloads.append((accel.jobs, accel.config, accel.name, trace))
    if not payloads:
        return {}
    workers = effective_workers(workers)
    if workers <= 1 or len(payloads) == 1:
        results = [_simulate_payload(p) for p in payloads]
    else:
        pool = _get_pool(workers)
        results = pool.map(_simulate_payload, payloads, chunksize=1)
    return {
        key: PresimResult(report=report, entry=entry, events=events)
        for key, (report, entry, events) in zip(keys, results)
    }


def replay_simulation(accel, cache, presim, *, tracer=None):
    """One accelerator's report, folded back in sequential order.

    Mirrors :meth:`~repro.accel.GcnAccelerator.run` against ``cache``
    exactly — the same ``lookup``/``store`` calls in the same order —
    substituting the presimulated cold run where the sequential path
    would have driven the auto-tuner:

    * a usable cached entry replays through the frozen fast path (a
      counted hit, ``cache_hit=True``), exactly as sequentially;
    * a miss (or a stale entry that no longer matches the jobs) counts
      through ``lookup`` and stores the presimulated entry, returning
      the worker's cold report (``cache_hit=False``);
    * a key absent from ``presim`` (evicted from a bounded cache after
      the presimulation scan, say) falls back to ``accel.run`` — the
      sequential path itself, slower but still bit-identical.

    With ``cache=None`` the report is simply the presimulated one (the
    sequential path would recompute the identical report per request).
    With an empty ``presim`` every branch would fall back to
    ``accel.run``, so that is returned directly, without the probe.

    The ``tracer`` splice preserves trace bit-identity: the worker's
    tuner events (recorded at anchor 0) are re-emitted between the
    ``lookup`` and the ``store`` — exactly where the sequential cold
    run emits them — anchored at the tracer's current simulated time,
    which the caller pins to the dispatch instant.
    """
    if not presim:
        return accel.run(cache=cache, tracer=tracer)
    trace = tracer is not None and tracer.enabled
    if cache is None:
        hit = presim.get((accel.fingerprint(), accel.config))
        if hit is None:
            return accel.run(tracer=tracer)
        if trace:
            tracer.splice(hit.events)
        return hit.report
    key = (accel.fingerprint(), accel.config)
    entry = cache.peek(key[0], key[1], trace=False)
    if entry is not None and entry.matches(accel.jobs):
        return accel.run(cache=cache, tracer=tracer)
    hit = presim.get(key)
    if hit is None:
        return accel.run(cache=cache, tracer=tracer)
    cache.lookup(*key)
    if trace:
        tracer.splice(hit.events)
    cache.store(key[0], key[1], hit.entry)
    return hit.report


def simulate_accels(accels, *, cache=None, workers=1, tracer=None):
    """Run a batch of accelerator simulations, possibly in parallel.

    Drop-in replacement for ``[a.run(cache=cache) for a in accels]``:
    with ``workers=1`` (or the disable switch set) it *is* that loop —
    the sequential oracle — and with ``workers>1`` the cold runs go
    through the pool and replay bit-identically (see module docstring),
    including the recorded event stream when a ``tracer`` is active.
    """
    workers = effective_workers(workers)
    if workers <= 1:
        return [accel.run(cache=cache, tracer=tracer) for accel in accels]
    presim = presimulate(accels, cache=cache, workers=workers,
                         tracer=tracer)
    return [replay_simulation(accel, cache, presim, tracer=tracer)
            for accel in accels]
