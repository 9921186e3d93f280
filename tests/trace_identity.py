"""Bit-for-bit comparison of two recorded event streams (test helper).

Three test modules check that a reused, replayed or cached path emits
exactly the stream a fresh run emits. Comparing
:class:`~repro.obs.tracer.TraceEvent` objects directly would miss
nothing either, but a tuple per event prints a readable diff and
compares an args dict independently of its insertion order.
"""

from __future__ import annotations


def event_key(event):
    """The comparison tuple of one event."""
    return (
        event.name, event.lane, event.ts, event.kind, event.dur,
        tuple(sorted(event.args.items())), event.seq,
    )


def stream_fingerprint(events):
    """Tuple-of-tuples fingerprint of a whole event stream."""
    return tuple(event_key(event) for event in events)
