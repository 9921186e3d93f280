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
  already answers, runs the remaining cold simulations in the pool and
  seeds each accelerator's kept cold run
  (:meth:`~repro.accel.GcnAccelerator.remember_cold`) with the result;
* :func:`replay_simulation` is the gather side: with a cache it is the
  sequential :meth:`~repro.accel.GcnAccelerator.run` itself, in the
  caller's original order. A seeded miss makes the calls a sequential
  miss makes — :meth:`~repro.serve.AutotuneCache.lookup`, the worker's
  tuner events spliced in, :meth:`~repro.serve.AutotuneCache.store` —
  so hit/miss counters, LRU recency and eviction order all come out
  identical to the sequential run, and ``workers=1`` and ``workers=N``
  take one miss path;
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

from repro.accel.gcnaccel import GcnAccelerator
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

    Returns the :class:`~repro.accel.gcnaccel.ColdRun` the sequential
    path would compute on a miss: the full cold report, the
    :class:`~repro.accel.CachedTuning` it would store and (when tracing)
    the cold run's tuner events recorded at simulated time 0 for the
    parent to :meth:`~repro.obs.tracer.RecordingTracer.splice` in at
    replay. Runs cache-less: a worker never sees the shared cache, so
    there is nothing to race on.
    """
    jobs, config, name, trace = payload
    accel = GcnAccelerator.from_jobs(jobs, config, name=name)
    return accel.cold_run(traced=trace)


def presimulate(accels, *, cache=None, workers=2, tracer=None):
    """Run the cold simulations a batch of accelerators needs, in the pool.

    Scans ``accels`` in order, keys each by ``(fingerprint, config)``
    (the :class:`~repro.serve.AutotuneCache` key), and dispatches one
    cold simulation per key that neither the cache (checked via
    :meth:`~repro.serve.AutotuneCache.peek` — no counter or recency
    side effects, and ``trace=False`` so these parallel-only probes
    stay out of the event stream), the accelerator's own kept cold run
    nor an earlier accelerator in the batch will answer. The service's
    accelerators arrive already holding the cold run of every key an
    earlier drain tuned, so only keys new to the service reach the
    pool. Returns ``{key: ColdRun}`` for the dispatched keys.

    With a ``cache``, every accelerator of a dispatched key is seeded
    with its result (:meth:`~repro.accel.GcnAccelerator.remember_cold`),
    so its next miss replays the pool's run instead of tuning: the
    ``lookup``, the splice of the worker's events and the ``store`` the
    sequential path makes at that point.

    With a ``tracer`` enabled, each worker records its cold run's tuner
    events locally (anchored at simulated 0) and ships them back, to be
    spliced into the parent stream at the exact point the sequential
    path would have emitted them.

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
            if accel.remembers_cold_run(traced=trace):
                continue
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
    presim = dict(zip(keys, results))
    if cache is not None:
        for accel in accels:
            cold = presim.get((accel.fingerprint(), accel.config))
            if cold is not None:
                accel.remember_cold(cold)
    return presim


def replay_simulation(accel, cache, presim, *, tracer=None):
    """One accelerator's report, folded back in sequential order.

    With a cache this is ``accel.run(cache=cache, tracer=tracer)`` —
    the sequential path itself. :func:`presimulate` seeded the
    accelerator's kept cold run, so a miss makes exactly the calls the
    sequential cold run makes (``lookup``, then the worker's tuner
    events spliced in, then ``store`` of the presimulated entry) and
    returns the worker's cold report; a hit replays the frozen fast
    path; a key the pool never ran (it was warm at the scan and evicted
    since, say) tunes inline. Every case is bit-identical to
    ``workers=1``.

    With ``cache=None`` the report is simply the presimulated one (the
    sequential path would recompute the identical report per request),
    or a fresh cold run when the key was not presimulated.

    The ``tracer`` splice preserves trace bit-identity: the worker's
    tuner events (recorded at anchor 0) are re-emitted exactly where
    the sequential cold run emits them, anchored at the tracer's
    current simulated time, which the caller pins to the dispatch
    instant.
    """
    if cache is None:
        cold = presim.get((accel.fingerprint(), accel.config))
        if cold is not None:
            if tracer is not None and tracer.enabled:
                tracer.splice(cold.events)
            return cold.report
    return accel.run(cache=cache, tracer=tracer)


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
