"""Canned serving scenarios for ``repro trace``.

Each scenario is a fully seeded ``(requests, serve_kwargs)`` pair small
enough to replay in seconds yet rich enough that its recorded event
stream exercises a distinct slice of the stack:

* ``serve``  — streaming batch traffic under an SLO on an
  affinity-routed partitioned pool: arrivals, batch cuts (size /
  deadline / timeout), per-worker batch spans, per-shard cache
  hit/miss/store, ``cache.route``/``cache.replicate`` placement
  events, per-worker hit-rate counters and per-round Eq. 5 tuner
  events;
* ``shard``  — oversized jobs on a 4-instance pool: gang scheduling,
  an EASY backfill past a blocked queue head, cluster plan /
  rebalancing / per-layer chip-utilization counters;
* ``mixed``  — the multi-tenant regime: the ``shard`` trio ahead of a
  Poisson stream of critical smalls, SLO'd batches and sharded jobs
  under co-scheduling, so the trace carries gang claims, at least one
  backfill *and* at least one boundary preemption/resume.

The ``mixed`` scenario deliberately mixes two sharded job sizes: the
stock :func:`~repro.serve.traffic.mixed_traffic` stream gives every
sharded job the same node count, and equal-size jobs can never
backfill past each other (a later job needs exactly the gang the
blocked head is waiting for). The hand-built trio in front breaks that
symmetry.

:func:`run_trace_scenario` replays a scenario under a
:class:`~repro.obs.tracer.RecordingTracer` and returns the outcome and
the tracer; the recorded stream is a deterministic function of the
scenario and its seed.
"""

from __future__ import annotations

from repro.accel.config import ArchConfig
from repro.errors import ConfigError
from repro.serve.request import InferenceRequest
from repro.serve.traffic import (
    RmatGraphSpec,
    mixed_traffic,
    streaming_traffic,
)

TRACE_SCENARIOS = ("serve", "shard", "mixed")

# Small layer dims keep every scenario's cold simulations seconds-long.
_TINY_LAYERS = {"f1": 16, "f2": 8, "f3": 4}


def _sharded_trio(config):
    """Three t=0 sharded jobs sized to force an EASY backfill.

    On a 4-instance pool of 256-row chips: A (400 rows -> 2 chips)
    gangs instances 0-1, B (700 rows -> 3 chips) blocks as queue head
    on the 2 free instances, and C (300 rows -> 2 chips) fits the free
    pair right now — the backfill screen dispatches it iff that cannot
    delay B's planned assembly.
    """
    graphs = {
        "A": RmatGraphSpec(n_nodes=400, seed=11, avg_degree=4,
                           **_TINY_LAYERS),
        "B": RmatGraphSpec(n_nodes=700, seed=12, avg_degree=4,
                           **_TINY_LAYERS),
        "C": RmatGraphSpec(n_nodes=300, seed=13, avg_degree=4,
                           **_TINY_LAYERS),
    }
    return [
        InferenceRequest(graph=graphs[name], config=config,
                         arrival_time=0.0, request_id=name)
        for name in ("A", "B", "C")
    ]


def trace_scenario(name, *, seed=None):
    """The requests and service kwargs of one named scenario.

    Returns ``(requests, serve_kwargs)`` ready for
    ``serve_requests(requests, **serve_kwargs)``. ``seed`` overrides
    the scenario's default traffic seed (graph pools stay fixed). The
    ``shard`` scenario has no traffic seed: its three jobs are fixed,
    so a non-None ``seed`` raises :class:`~repro.errors.ConfigError`
    rather than pretend to vary them.
    """
    if name == "serve":
        seed = 7 if seed is None else int(seed)
        config = ArchConfig(n_pes=64, hop=1, remote_switching=True)
        requests = streaming_traffic(
            24, arrival_rate=400.0, slo_ms=20.0, n_graphs=3,
            n_nodes=512, seed=seed, configs=(config,), avg_degree=4,
            graph_kwargs=_TINY_LAYERS,
        )
        return requests, {
            "n_workers": 2, "cache": True, "max_batch": 4,
            "cache_mode": "affinity", "replicate_threshold": 2.0,
        }
    if name == "shard":
        if seed is not None:
            raise ConfigError(
                "trace scenario 'shard' has no traffic seed (its three "
                f"sharded jobs are fixed); got seed={seed!r}"
            )
        config = ArchConfig(n_pes=16, hop=1, remote_switching=True)
        return _sharded_trio(config), {
            "n_workers": 4, "chip_capacity": 256, "cache": True,
        }
    if name == "mixed":
        seed = 6 if seed is None else int(seed)
        config = ArchConfig(n_pes=16, hop=1, remote_switching=True)
        stream = mixed_traffic(
            14, arrival_rate=1500.0, chip_capacity=256, seed=seed,
            configs=(config,), sharded_nodes=900, sharded_fraction=0.3,
            critical_fraction=0.3, avg_degree=6,
            graph_kwargs=_TINY_LAYERS,
        )
        requests = _sharded_trio(config) + stream
        return requests, {
            "n_workers": 4, "chip_capacity": 256, "cache": True,
            "coschedule": True, "critical_slo_ms": 1.0,
        }
    raise ConfigError(
        f"unknown trace scenario {name!r}; expected one of "
        f"{', '.join(TRACE_SCENARIOS)}"
    )


def run_trace_scenario(name, *, seed=None):
    """Replay one scenario under a fresh recording tracer.

    Returns ``(outcome, tracer)`` — the
    :class:`~repro.serve.service.ServiceOutcome` and the
    :class:`~repro.obs.tracer.RecordingTracer` holding the simulated
    event stream (plus wall-clock profiling spans).
    """
    from repro.obs import RecordingTracer
    from repro.serve.service import serve_requests

    requests, kwargs = trace_scenario(name, seed=seed)
    tracer = RecordingTracer()
    outcome = serve_requests(requests, tracer=tracer, **kwargs)
    return outcome, tracer


def trace_summary(name, outcome, tracer):
    """The text block ``repro trace`` prints for one recorded run."""
    from repro.analysis.report import ascii_table
    from repro.obs import render_round_heat

    counts = {}
    for event in tracer.events:
        counts[event.name] = counts.get(event.name, 0) + 1
    table = ascii_table(
        ["event", "count"],
        [[event_name, counts[event_name]] for event_name in sorted(counts)],
        title=(
            f"Trace scenario {name!r}: {len(tracer.events)} simulated "
            f"events, {len(tracer.wall_events)} wall spans"
        ),
    )
    stats = outcome.stats
    lines = [
        table,
        (
            f"requests={stats.n_requests} batches={stats.n_batches} "
            f"sharded={stats.n_sharded} backfilled={stats.n_backfilled} "
            f"preemptions={stats.n_preemptions} shed={stats.n_shed} "
            f"evictions={stats.n_evictions} "
            f"makespan={stats.makespan_seconds * 1e3:.3f}ms"
        ),
    ]
    heat = render_round_heat(tracer.events)
    if heat:
        lines.append(heat)
    return "\n".join(lines)
