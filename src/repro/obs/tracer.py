"""Structured event tracing on the simulated clock.

The serving stack models time explicitly: every scheduling decision —
batch cuts, gang claims, preemptions, rebalancing rounds — happens at a
definite instant of *simulated* time, yet until now only final
aggregates (:class:`~repro.serve.service.ServiceStats`,
:class:`~repro.cluster.multichip.ClusterReport`) survived a run. This
module adds the missing middle layer: a :class:`Tracer` protocol with a
zero-overhead :class:`NullTracer` default (the golden pins never see a
single extra branch beyond ``if tracer.enabled``) and a
:class:`RecordingTracer` that collects typed :class:`TraceEvent`
records as the simulation runs.

Two clocks, one rule (same as the service): every recorded ``ts`` is
*simulated* seconds. Wall-clock profiling goes through
:meth:`RecordingTracer.wall` into a separate ``wall_events`` list that
is explicitly nondeterministic — it never participates in the
``workers=N`` bit-identity contract and exports under its own process
lane.

Determinism contract: because control flow depends only on the
simulated clock, the event stream a :class:`RecordingTracer` collects
is bit-identical for any host ``workers`` count. The one wrinkle is the
cold run a cache miss keeps (:meth:`repro.accel.GcnAccelerator.run`):
its tuner events are recorded on a local tracer (anchored at 0) —
in-process, or inside a worker process of the parallel backend
(:mod:`repro.parallel`) — and :meth:`RecordingTracer.splice`\\ d into
the stream at exactly the point a direct run would have emitted them,
between the cache lookup and the store, on every miss that replays
them. Parallel-only cache peeks are suppressed
(``peek(..., trace=False)``) so they leave no trace either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError

KIND_SPAN = "span"
KIND_INSTANT = "instant"
KIND_COUNTER = "counter"


@dataclass
class TraceEvent:
    """One typed trace record on the simulated clock.

    ``kind`` is ``"span"`` (has ``dur``), ``"instant"`` or
    ``"counter"`` (``args`` carries the sampled values). ``lane`` names
    the timeline the event lives on (``"worker0"``, ``"req/17"``,
    ``"cache"``, ``"sim/<job>"``, ``"cluster/<job>"``); the exporter
    maps lanes onto Chrome-trace pid/tid pairs. Events are mutable on
    purpose: a boundary preemption patches the affected spans the same
    way the service patches its recorded results.
    """

    name: str
    lane: str
    ts: float
    kind: str = KIND_INSTANT
    dur: float = None
    args: dict = field(default_factory=dict)
    seq: int = 0

    @property
    def end(self):
        """Span end time (``ts`` for instants/counters)."""
        if self.dur is None:
            return self.ts
        return self.ts + self.dur


class NullTracer:
    """The zero-overhead default: every hook is a no-op.

    ``enabled`` is False, so instrumented code paths guard any
    argument construction behind one attribute check and the golden
    pins never pay for tracing they did not ask for.
    """

    enabled = False
    now = 0.0

    def set_time(self, t):
        return None

    def instant(self, name, **kwargs):
        return None

    def span(self, name, **kwargs):
        return None

    def counter(self, name, **kwargs):
        return None

    def splice(self, events, **kwargs):
        return None

    def wall(self, name, **kwargs):
        return None


NULL_TRACER = NullTracer()
"""The shared no-op tracer instrumented modules default to."""


class RecordingTracer:
    """Collects :class:`TraceEvent` records on the simulated clock.

    ``now`` is the current simulated anchor — instrumented layers that
    know only cycle *offsets* (the autotuner, the cluster composer)
    emit relative to it via ``offset=``, while the service pins it with
    :meth:`set_time` before each dispatch. ``metrics`` optionally
    receives every event (see
    :class:`~repro.obs.metrics.MetricsRegistry`), making the registry a
    fold over the same stream the exporters consume.
    """

    enabled = True

    def __init__(self, *, metrics=None):
        self.events = []
        self.wall_events = []
        self.now = 0.0
        self.metrics = metrics
        self._seq = 0
        self._wall_origin = time.perf_counter()

    def set_time(self, t):
        """Pin the simulated-clock anchor for ``offset=`` emissions."""
        self.now = float(t)

    def _emit(self, event):
        event.seq = self._seq
        self._seq += 1
        self.events.append(event)
        if self.metrics is not None:
            self.metrics.record_event(event)
        return event

    def instant(self, name, *, lane="service", ts=None, offset=0.0,
                args=None):
        """Record a point event at ``ts`` (default ``now + offset``)."""
        when = self.now + offset if ts is None else float(ts)
        return self._emit(TraceEvent(
            name=name, lane=lane, ts=when, kind=KIND_INSTANT,
            args=dict(args or {}),
        ))

    def span(self, name, *, lane, start, end, args=None):
        """Record a closed span ``[start, end]``; returns the mutable
        event so callers can patch it (boundary preemption trims and
        re-extends spans exactly as it patches recorded results)."""
        start = float(start)
        end = float(end)
        if end < start:
            raise ConfigError(
                f"span {name!r} must not end before it starts "
                f"({end} < {start})"
            )
        return self._emit(TraceEvent(
            name=name, lane=lane, ts=start, kind=KIND_SPAN,
            dur=end - start, args=dict(args or {}),
        ))

    def counter(self, name, *, lane="counters", ts=None, offset=0.0,
                values=None):
        """Record sampled counter values at ``ts`` (default ``now +
        offset``); ``values`` maps series name to number."""
        when = self.now + offset if ts is None else float(ts)
        return self._emit(TraceEvent(
            name=name, lane=lane, ts=when, kind=KIND_COUNTER,
            args=dict(values or {}),
        ))

    def splice(self, events, *, anchor=None):
        """Re-emit events recorded elsewhere into this stream.

        A kept cold run (in-process or from a parallel-backend worker)
        carries its tuner events anchored at simulated time 0; each
        miss that replays it splices them here with ``ts += anchor``
        (default ``now``) and fresh sequence numbers, reproducing the
        exact stream a direct cold run emits at the same point.
        """
        base = self.now if anchor is None else float(anchor)
        for event in events:
            self._emit(replace(
                event, ts=event.ts + base, args=dict(event.args),
            ))

    def wall(self, name, *, lane="wall", seconds=0.0, args=None):
        """Record a wall-clock profiling span (nondeterministic lane).

        Kept out of :attr:`events` entirely: wall timings vary run to
        run and across ``workers`` counts, so they live in
        :attr:`wall_events` and export under an explicitly
        nondeterministic process.
        """
        now = time.perf_counter() - self._wall_origin
        event = TraceEvent(
            name=name, lane=lane, ts=max(now - float(seconds), 0.0),
            kind=KIND_SPAN, dur=float(seconds), args=dict(args or {}),
            seq=len(self.wall_events),
        )
        self.wall_events.append(event)
        return event


def config_label(config):
    """A short deterministic label for an ArchConfig in event args."""
    return (
        f"{getattr(config, 'n_pes', '?')}pe"
        f"@{getattr(config, 'frequency_mhz', 0):g}MHz"
    )


def event_key(event):
    """The comparison tuple of one event (bit-identity checks)."""
    return (
        event.name, event.lane, event.ts, event.kind, event.dur,
        tuple(sorted(event.args.items())), event.seq,
    )


def stream_fingerprint(events):
    """Tuple-of-tuples fingerprint of a whole event stream."""
    return tuple(event_key(event) for event in events)
