"""Golden digests of the canned trace scenarios' recorded streams.

A host-only change (a cheaper lookup, a faster loop) must leave every
simulated event, every result's timeline and every aggregate stat
exactly as they were. Each run below is reduced to one SHA-256 over a
canonical JSON dump of:

* every event's ``(name, lane, ts, kind, dur, args, seq)``;
* every result's ``(request_id, total_cycles, start_time, finish_time,
  worker, batch, cache_hit)``;
* the :class:`~repro.serve.ServiceStats` fields except the wall-clock
  ``wall_seconds``.

Same spirit as ``tests/test_golden_cycles.py``: a digest that moves
means modeled behaviour moved. If that was intended, say why in the
change and re-pin with :func:`stream_digest`.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.tracescenarios import run_trace_scenario

GOLDEN_DIGESTS = [
    ("serve", None,
     "ab2db83b65e535ee75478ba58378f543b1e6974735c1bbbf25cf708976618f17"),
    ("serve", 1,
     "c4f27bb2d2618703289247e333f50fd56e21c2f80d0a87704352f75d4cfb3a54"),
    ("serve", 2,
     "38f00eb46048d1f1384c58d40cb4382ac81f3525656e41152f923cb3dec004c6"),
    ("serve", 3,
     "e4ca6d3953cc3c02e67b67ff4080ba488cc8328bccd3375df675f3f0f2ae7113"),
    ("mixed", None,
     "a56552754b621c991dc1fa230314fdf04328e192c792ff982ebf4de2473e1cd9"),
    ("mixed", 1,
     "4bf60601c5d4e9a47c6dbb00b9ceee05c5d1fb6af45e2eb84236aa1970f01452"),
    ("mixed", 2,
     "c5627dbea42639e180172d47928218ce98944de06eb195dd2325b4124ae90c12"),
    ("mixed", 3,
     "ac040a27ca67b4474b367ba1decb025ba3e79bc3e2a3907ee72eab4330415f31"),
    ("shard", None,
     "8c53a7f19df5d349d40c9e80866a7e6fe7e9c84458f2044929998aafed4b548c"),
]


def stream_digest(outcome, tracer):
    """SHA-256 of one recorded run's events, results and stats."""
    events = [
        [event.name, event.lane, event.ts, event.kind, event.dur,
         event.args, event.seq]
        for event in tracer.events
    ]
    results = [
        [result.request_id, result.total_cycles, result.start_time,
         result.finish_time, result.worker, result.batch, result.cache_hit]
        for result in outcome.results
    ]
    stats = {
        field.name: getattr(outcome.stats, field.name)
        for field in dataclasses.fields(outcome.stats)
        if field.name != "wall_seconds"
    }
    doc = json.dumps({"events": events, "results": results, "stats": stats},
                     sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize(
    "name, seed, digest", GOLDEN_DIGESTS,
    ids=[f"{name}-seed{seed}" for name, seed, _digest in GOLDEN_DIGESTS],
)
def test_trace_stream_is_pinned(name, seed, digest):
    outcome, tracer = run_trace_scenario(name, seed=seed)
    assert tracer.events and outcome.results
    assert stream_digest(outcome, tracer) == digest
