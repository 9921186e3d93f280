"""The parallel execution backend: real processes, bit-identical results.

Everything the simulator models is deterministic, so the expensive part
of a sharded simulation — driving each chip's Eq. 5 auto-tuner through a
cold simulation — is a pure function of ``(jobs, ArchConfig)``. This
module farms those pure cold runs out to a persistent
:mod:`multiprocessing` worker pool and then *replays* them into the
caller's sequential control flow, so the parallel path produces
bit-identical cycle counts, cache state and event streams to the
sequential oracle:

* :func:`presimulate` scans a list of accelerators, deduplicates them
  by cache key, skips keys the :class:`~repro.serve.AutotuneCache`
  already answers, runs the remaining cold simulations in the pool and
  seeds each accelerator's kept cold run
  (:meth:`~repro.accel.GcnAccelerator.remember_cold`) with the result;
* :func:`simulate_accels` is a drop-in replacement for
  ``[accel.run(cache=cache) for accel in accels]`` that presimulates,
  then replays in the caller's order. With a cache the replay is the
  sequential :meth:`~repro.accel.GcnAccelerator.run` itself: a seeded
  miss makes the calls a sequential miss makes —
  :meth:`~repro.serve.AutotuneCache.lookup`, the worker's tuner events
  spliced in, :meth:`~repro.serve.AutotuneCache.store` — so hit/miss
  counters, LRU recency and eviction order all come out identical to
  the sequential run.

The consumer is :func:`repro.cluster.simulate_multichip_gcn`: per-chip
shard simulations are independent between layer barriers by
construction (``ClusterConfig(workers=N)``). The serving service runs
in one process and never enables the pool for its sharded jobs.

Only wall-clock figures may differ between the backends: they measure
how long the simulation itself took, which is exactly what the pool
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
    nor an earlier accelerator in the batch will answer: a chip
    accelerator an earlier feedback round or job already ran keeps its
    cold run and never reaches the pool. Returns ``{key: ColdRun}`` for
    the dispatched keys.

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


def simulate_accels(accels, *, cache=None, workers=1, tracer=None):
    """Run a batch of accelerator simulations, possibly in parallel.

    Drop-in replacement for ``[a.run(cache=cache) for a in accels]``:
    with ``workers=1`` (or the disable switch set) it *is* that loop —
    the sequential oracle. With ``workers>1`` the cold runs go through
    the pool first (:func:`presimulate`) and replay bit-identically
    (see the module docstring), including the recorded event stream
    when a ``tracer`` is active. With a cache the replay is that same
    loop: a seeded miss stores the pool's run, and a key the scan found
    warm but an earlier replay evicted tunes inline, as it would
    sequentially. Without a cache each report is the pool's run of its
    key, which the sequential loop would recompute, with the worker's
    tuner events spliced in where the sequential run emits them.
    """
    workers = effective_workers(workers)
    if workers <= 1:
        return [accel.run(cache=cache, tracer=tracer) for accel in accels]
    presim = presimulate(accels, cache=cache, workers=workers,
                         tracer=tracer)
    if cache is not None:
        return [accel.run(cache=cache, tracer=tracer) for accel in accels]
    trace = tracer is not None and tracer.enabled
    reports = []
    for accel in accels:
        cold = presim[(accel.fingerprint(), accel.config)]
        if trace:
            tracer.splice(cold.events)
        reports.append(cold.report)
    return reports
