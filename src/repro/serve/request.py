"""Request and result types of the streaming inference service.

An :class:`InferenceRequest` names a graph (a built
:class:`~repro.datasets.GcnDataset` or a lazily-built
:class:`~repro.serve.traffic.RmatGraphSpec`), the architecture to run it
on, the aggregation depth, and — for the event-driven serving loop — the
time it arrives on the simulated clock plus an optional latency SLO. The
service answers each request with an :class:`InferenceResult` carrying
the modeled hardware outcome (cycles, latency, utilization) and the
serving timeline (queueing delay, service start/finish, end-to-end
latency, SLO verdict) plus serving metadata (which simulated instance
ran it, whether the autotune cache hit, how long the simulation took).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.accel.config import ArchConfig
from repro.errors import ConfigError
from repro.utils.validation import (
    check_instance,
    check_non_negative_finite,
    check_non_negative_int,
    check_positive_finite,
    check_positive_int,
)


@dataclass(frozen=True)
class InferenceRequest:
    """One GCN inference to schedule.

    Every field but ``request_id`` is checked once, here, through
    :mod:`repro.utils.validation`; a bad value raises
    :class:`~repro.errors.ConfigError` naming the field.
    :meth:`~repro.serve.scheduler.RequestQueue.submit` queues this very
    object and checks nothing again.

    Parameters
    ----------
    graph:
        A :class:`~repro.datasets.GcnDataset`, or any object with a
        ``build()`` method returning one (e.g.
        :class:`~repro.serve.traffic.RmatGraphSpec`). Specs are built
        lazily and memoized, so a traffic mix can repeat a spec cheaply.
        An object with neither ``n_nodes`` nor a callable ``build``
        raises :class:`~repro.errors.ConfigError` here.
    config:
        The :class:`~repro.accel.ArchConfig` to simulate. Requests
        sharing a config are batched onto the same accelerator instance.
    a_hops:
        Aggregation depth per layer (``A^k (X W)``).
    request_id:
        Caller-side correlation id; assigned by the queue when None.
    arrival_time:
        Seconds on the simulated clock at which the request enters the
        system. The default 0.0 reproduces the offline batch regime
        (everything available up front). Requests must be submitted in
        non-decreasing arrival order.
    slo_ms:
        Optional end-to-end latency SLO in milliseconds. The scheduler
        cuts a batch early when a member's deadline
        (``arrival_time + slo_ms``) is about to expire; the result
        records whether the SLO was met. None means no deadline.
    priority:
        Optional explicit priority class (a non-negative int, lower =
        more urgent). None (default) lets the service derive the class
        from SLO slack via :meth:`priority_class`: 0 (deadline-critical)
        when ``slo_ms`` is at or under the service's critical
        threshold, 1 for any other SLO-carrying request, 2 (best
        effort) without an SLO. Priorities only steer scheduling when
        the service runs with co-scheduling enabled; the default
        service ignores them.
    """

    graph: object
    config: ArchConfig
    a_hops: int = 1
    request_id: object = None
    arrival_time: float = 0.0
    slo_ms: float = None
    priority: int = None

    def __post_init__(self):
        # A drain resolves graphs lazily, after it has emptied the
        # queue, so a non-graph accepted here would abort the drain and
        # lose every queued request with it.
        if not (hasattr(self.graph, "n_nodes")
                or callable(getattr(self.graph, "build", None))):
            raise ConfigError(
                "graph must be a dataset (with n_nodes) or a spec with a "
                f"build() method, got {type(self.graph).__name__}"
            )
        check_instance(self.config, ArchConfig, "config")
        check_positive_int(self.a_hops, "a_hops")
        object.__setattr__(self, "arrival_time", check_non_negative_finite(
            self.arrival_time, "arrival_time"
        ))
        if self.slo_ms is not None:
            object.__setattr__(self, "slo_ms", check_positive_finite(
                self.slo_ms, "slo_ms"
            ))
        if self.priority is not None:
            check_non_negative_int(self.priority, "priority")

    def priority_class(self, critical_slo_ms=None):
        """The request's effective priority class (lower = more urgent).

        An explicit :attr:`priority` always wins. Otherwise the class
        derives from SLO slack: 0 (deadline-critical) when ``slo_ms``
        is at or under ``critical_slo_ms``, 1 for any other
        SLO-carrying request, 2 (best effort) when no SLO is set.
        """
        if self.priority is not None:
            return self.priority
        if self.slo_ms is None:
            return 2
        if critical_slo_ms is not None and self.slo_ms <= critical_slo_ms:
            return 0
        return 1

    @property
    def deadline(self):
        """Absolute completion deadline in seconds (inf when no SLO)."""
        if self.slo_ms is None:
            return math.inf
        return self.arrival_time + self.slo_ms / 1e3

    def resolve_graph(self):
        """The built dataset behind this request."""
        build = getattr(self.graph, "build", None)
        if callable(build):
            return build()
        return self.graph

    def graph_nodes(self):
        """Node count of the request's graph.

        Cheap for specs and datasets (both expose ``n_nodes``); only a
        graph object without that attribute forces a build. The service
        uses this to decide whether a request exceeds the per-chip
        capacity and must be planned as a sharded job.
        """
        nodes = getattr(self.graph, "n_nodes", None)
        if nodes is None:
            nodes = self.resolve_graph().n_nodes
        return int(nodes)


@dataclass(slots=True)
class InferenceResult:
    """The service's answer to one :class:`InferenceRequest`.

    A slotted record the caller owns: the service builds each result
    once and never writes to it afterwards; derive a changed copy with
    :func:`dataclasses.replace`. It is not frozen because a frozen
    dataclass's generated ``__init__`` sets each field through
    ``object.__setattr__``, about five times the cost of this one's,
    and the warm serving path builds one result per request.
    """

    request_id: object
    dataset: str
    """Name of the dataset the request resolved to."""
    fingerprint: str
    """Workload fingerprint used as the cache key's graph half."""
    total_cycles: int
    latency_ms: float
    """Modeled hardware service latency (cycles at the config clock)."""
    utilization: float
    cache_hit: bool
    """Whether the autotune cache supplied the converged row map."""
    worker: int
    """Index of the simulated accelerator instance that served this."""
    batch: int
    """Index of the scheduler batch this request rode in."""
    sim_seconds: float
    """Wall-clock time the simulation took (the serving-cost metric the
    autotune cache exists to shrink)."""
    arrival_time: float = 0.0
    """Simulated-clock second the request entered the system."""
    start_time: float = 0.0
    """Simulated-clock second service began on the instance."""
    finish_time: float = 0.0
    """Simulated-clock second the result was ready."""
    slo_ms: float = None
    """The request's latency SLO in ms (None when it carried none)."""
    shed: bool = False
    """True when admission control rejected the request instead of
    serving it (its deadline had already expired at batch-cut time);
    cycle/latency fields are zero and ``finish_time`` records the shed
    instant."""
    n_shards: int = 1
    """How many accelerator instances executed this request (1 for the
    normal single-chip path; >1 when the graph exceeded the service's
    per-chip capacity and ran as a sharded multi-chip job)."""
    priority: int = None
    """The priority class the request was scheduled at (only populated
    by a co-scheduling service; None otherwise)."""
    preemptions: int = 0
    """How many times this (sharded) job was preempted at a layer
    boundary by a deadline-critical request and later resumed. The
    modeled cycle total is conserved across preemptions — only the
    serving timeline stretches."""

    @property
    def modeled_seconds(self):
        """Modeled hardware latency in seconds."""
        return self.latency_ms / 1e3

    @property
    def queue_ms(self):
        """Milliseconds the request waited before service started."""
        return (self.start_time - self.arrival_time) * 1e3

    @property
    def e2e_ms(self):
        """End-to-end latency in ms: arrival to finish (queue + service)."""
        return (self.finish_time - self.arrival_time) * 1e3

    @property
    def slo_met(self):
        """Whether the SLO held (None when the request carried none)."""
        if self.slo_ms is None:
            return None
        return self.e2e_ms <= self.slo_ms
