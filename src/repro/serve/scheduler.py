"""Request queue, config-affinity batching and SLO-aware batch cutting.

A real accelerator deployment cannot reconfigure its PE array between
every request: switching the arch config (PE count, hop distance,
network) is expensive relative to running one more graph. The
schedulers here therefore group pending requests by
:class:`~repro.accel.ArchConfig` — all requests of a batch run
back-to-back on one simulated instance — while preserving fairness:
requests inside a batch keep arrival order, and batches are dispatched
earliest-deadline-first with the oldest member's arrival as the
tie-break (which degenerates to plain oldest-first FIFO when no request
carries an SLO).

:class:`StreamingScheduler` is the event-driven planner behind the
simulated-clock serving loop: requests are admitted one at a time as
they arrive, and a batch is *cut* (sealed for dispatch) when its config
group reaches ``max_batch``, when the group's tightest deadline minus
the estimated service time says it must start now, or when the arrival
stream ends. An offline queue — everything arriving at once, no SLOs —
is the degenerate case: admitting it all and flushing yields
config-affine batches ordered by their oldest member.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.obs.tracer import NULL_TRACER, config_label
from repro.serve.request import InferenceRequest
from repro.utils.validation import check_positive_int


def _check_max_batch(max_batch):
    """Validate a batch-size cap: None (unbounded) or a positive int."""
    if max_batch is None:
        return None
    return check_positive_int(max_batch, "max_batch")


def _check_max_wait(max_wait):
    """Validate a batch timeout: None (disabled) or finite seconds >= 0."""
    if max_wait is None:
        return None
    try:
        max_wait = float(max_wait)
    except (TypeError, ValueError):
        raise ConfigError(
            f"max_wait must be a number or None, got "
            f"{type(max_wait).__name__}"
        )
    if not math.isfinite(max_wait) or max_wait < 0.0:
        raise ConfigError(
            f"max_wait must be finite and >= 0, got {max_wait}"
        )
    return max_wait


@dataclass(frozen=True)
class QueuedRequest:
    """An accepted request plus its arrival sequence number."""

    seq: int
    request: InferenceRequest
    deadline: float = field(init=False, compare=False, repr=False)
    """Absolute completion deadline in seconds (inf when no SLO): the
    member request's, computed once on construction since the batch
    cut and EDF order read it per member."""

    def __post_init__(self):
        object.__setattr__(self, "deadline", self.request.deadline)

    @property
    def arrival_time(self):
        """Simulated-clock arrival second of the member request."""
        return self.request.arrival_time


@dataclass(frozen=True)
class Batch:
    """Requests sharing one arch config, dispatched as a unit."""

    index: int
    config: object
    items: tuple
    """The member :class:`QueuedRequest` objects in arrival order."""

    @property
    def arrival(self):
        """Sequence number of the oldest member (the batch's priority)."""
        return self.items[0].seq

    @property
    def deadline(self):
        """Tightest member deadline — the batch's EDF key."""
        return min(item.deadline for item in self.items)

    def __len__(self):
        return len(self.items)


class RequestQueue:
    """FIFO admission queue assigning arrival sequence numbers.

    Arrival times must be non-decreasing across submissions — the queue
    is the front door of an event-driven simulation, and an
    out-of-order arrival would mean the clock ran backwards. Equal
    times are fine (a burst).
    """

    def __init__(self):
        self._pending = []
        self._next_seq = 0
        self._last_arrival = 0.0

    def __len__(self):
        return len(self._pending)

    def submit(self, request):
        """Accept a request; returns its assigned request id.

        Requests without an explicit ``request_id`` get the arrival
        sequence number as their id. A request arriving earlier than
        the previously submitted one is rejected with
        :class:`~repro.errors.ConfigError`.
        """
        if not isinstance(request, InferenceRequest):
            raise ConfigError(
                "submit expects an InferenceRequest, got "
                f"{type(request).__name__}"
            )
        if request.arrival_time < self._last_arrival:
            raise ConfigError(
                "non-monotonic arrival: request arrives at "
                f"{request.arrival_time:.6f}s but a request at "
                f"{self._last_arrival:.6f}s was already submitted"
            )
        self._last_arrival = request.arrival_time
        seq = self._next_seq
        self._next_seq += 1
        if request.request_id is None:
            request = replace(request, request_id=seq)
        self._pending.append(QueuedRequest(seq=seq, request=request))
        return request.request_id

    def submit_many(self, requests):
        """Accept an iterable of requests; returns their ids."""
        return [self.submit(request) for request in requests]

    def drain(self):
        """Remove and return every pending request in arrival order.

        Draining ends the current arrival stream: the monotonicity
        watermark resets, so the next stream may start back at t=0 (the
        serving loop restarts its simulated clock per drain).
        """
        pending, self._pending = self._pending, []
        self._last_arrival = 0.0
        return pending


class StreamingScheduler:
    """Event-driven admission with deadline-aware batch cutting.

    The serving loop feeds it one :class:`QueuedRequest` at a time via
    :meth:`admit`; requests accumulate in per-(config, a_hops) groups
    until a *cut* seals a batch:

    * **size cut** — the group reached ``max_batch`` members;
    * **deadline cut** — :meth:`cut_due` finds the group's cut time has
      passed: its tightest member deadline minus the estimated batch
      service time (a per-group EWMA of observed per-request modeled
      service seconds, fed back via :meth:`observe`) says the batch
      must start now to have a chance of meeting the SLO;
    * **timeout cut** — the oldest member has waited ``max_wait``
      seconds (bounds queueing for SLO-less traffic);
    * **flush** — the arrival stream ended (:meth:`flush`).

    Cut batches wait in an EDF priority queue: :meth:`pop_ready` hands
    out the batch with the tightest deadline, ties broken by the oldest
    member's arrival sequence — so SLO-less traffic degrades to plain
    FIFO and no config group can starve another with equal deadlines.

    Parameters
    ----------
    max_batch:
        Size cut threshold in requests (None = no size cuts). Positive
        int.
    max_wait:
        Timeout cut threshold in *simulated seconds* measured from the
        oldest member's arrival (None = no timeout cuts).
    shed_expired:
        Admission control: when True, a member whose deadline has
        already expired at the instant its batch is cut is *shed* —
        removed from the batch and recorded in :attr:`shed_log` (the
        service turns the log into rejected
        :class:`~repro.serve.request.InferenceResult` outcomes) instead
        of being served hopelessly late. Default False preserves the
        historical serve-late behavior bit-for-bit.
    priorities:
        Priority-class mode (the co-scheduling service turns this on):
        the grouping key gains the request's
        :meth:`~repro.serve.request.InferenceRequest.priority_class`
        (batches are priority-pure — a best-effort request never rides
        in front of a critical one by sharing its batch), and the ready
        queue orders by ``(class, deadline, arrival)`` so a lower class
        always dispatches first. Default False is bit-identical to the
        historical ``(deadline, arrival)`` EDF order.
    critical_slo_ms:
        The SLO threshold (ms) at or under which a request without an
        explicit priority derives class 0 (deadline-critical). Only
        consulted when ``priorities`` is on.

    All times this class consumes and produces — :meth:`cut_due` /
    :meth:`next_cut_time` instants, deadlines, :meth:`observe` service
    estimates — are simulated seconds on the serving loop's clock,
    never wall-clock. An SLO enters as the member's absolute deadline
    ``arrival_time + slo_ms / 1e3`` and influences *when* its batch is
    cut and *which* ready batch dispatches first; without
    ``shed_expired`` an expired deadline is still served (the service
    reports it as an SLO miss).
    """

    def __init__(self, *, max_batch=None, max_wait=None, shed_expired=False,
                 priorities=False, critical_slo_ms=None, tracer=None):
        self.max_batch = _check_max_batch(max_batch)
        self.max_wait = _check_max_wait(max_wait)
        self.shed_expired = bool(shed_expired)
        self.priorities = bool(priorities)
        self.critical_slo_ms = critical_slo_ms
        self.tracer = NULL_TRACER if tracer is None else tracer
        """Event sink (:mod:`repro.obs`): every sealed batch emits a
        ``batch.cut`` instant stamped with the cut reason."""
        self._groups = {}
        self._tightest = {}
        self._pending = 0
        self._order = []
        self._estimates = {}
        self._ready = []
        self._n_dispatched = 0
        self.shed_log = []
        """``(QueuedRequest, shed_time)`` pairs of rejected members, in
        shed order; the service drains it via :meth:`take_shed`."""

    @property
    def pending(self):
        """Number of admitted requests not yet sealed into a batch (a
        running count: :meth:`admit` adds one, a cut subtracts its
        group)."""
        return self._pending

    @property
    def ready(self):
        """Number of cut batches awaiting dispatch."""
        return len(self._ready)

    def admit(self, item, *, now=None):
        """Accept one queued request into its config group.

        Seals the group immediately when it reaches ``max_batch``;
        ``now`` (defaulting to the item's arrival instant) is the
        batch-cut time a size cut is stamped with for shedding.
        """
        if not isinstance(item, QueuedRequest):
            raise ConfigError(
                f"admit expects a QueuedRequest, got {type(item).__name__}"
            )
        key = self._group_key(item.request)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = []
            self._tightest[key] = math.inf
            if key not in self._order:
                self._order.append(key)
        group.append(item)
        self._pending += 1
        if item.deadline < self._tightest[key]:
            self._tightest[key] = item.deadline
        if self.max_batch is not None and len(group) >= self.max_batch:
            self._cut(key, item.arrival_time if now is None else now,
                      reason="size")

    def _group_key(self, request):
        """The grouping key one request batches under.

        ``(config, a_hops)`` historically; with :attr:`priorities` the
        priority class is appended so batches stay priority-pure. The
        first two elements are always the reconfiguration surface — the
        service keys instance state and service-time estimates off
        ``key[:2]``.
        """
        key = (request.config, request.a_hops)
        if self.priorities:
            key = key + (request.priority_class(self.critical_slo_ms),)
        return key

    def observe(self, config, a_hops, seconds):
        """Feed back one served request's modeled service time.

        ``seconds`` is the request's modeled hardware service time in
        simulated seconds (cycles at the config clock — not the
        wall-clock simulation cost). Updates the ``(config, a_hops)``
        group's EWMA estimate (half-life one observation), which the
        deadline cut uses to answer "how long would this batch take if
        it started now".
        """
        key = (config, a_hops)
        previous = self._estimates.get(key)
        if previous is None:
            self._estimates[key] = seconds
        else:
            self._estimates[key] = 0.5 * previous + 0.5 * seconds

    def estimate(self, config, a_hops):
        """Current EWMA per-request service estimate for a group key.

        0.0 before any observation — callers treating the estimate as
        a wait budget (cache-affinity routing) therefore never wait
        while the scheduler knows nothing.
        """
        return self._estimates.get((config, a_hops), 0.0)

    def _cut_decision(self, key):
        """``(when, reason)`` — the instant this group must be sealed.

        ``reason`` is ``"deadline"`` when the tightest member deadline
        minus the estimated batch service time binds, ``"timeout"``
        when the oldest member's ``max_wait`` clock cuts earlier. O(1):
        the tightest deadline is a running minimum that :meth:`admit`
        lowers and :meth:`_cut` resets.
        """
        group = self._groups[key]
        tightest = self._tightest[key]
        # Estimates are keyed by the hardware surface alone — the
        # priority suffix of a 3-element group key carries no service
        # time information.
        estimate = self._estimates.get(key[:2], 0.0) * len(group)
        when = tightest - estimate
        reason = "deadline"
        if self.max_wait is not None:
            timeout = group[0].arrival_time + self.max_wait
            if timeout < when:
                when, reason = timeout, "timeout"
        return when, reason

    def _cut_time(self, key):
        """Simulated second at which this group must be sealed."""
        return self._cut_decision(key)[0]

    def next_cut_time(self):
        """Earliest second any live group needs cutting (inf if none)."""
        times = [
            self._cut_time(key) for key in self._order if self._groups.get(key)
        ]
        return min(times) if times else math.inf

    def cut_due(self, now):
        """Seal every group whose cut time has passed; returns the count.

        ``now`` is the current simulated-clock second. A group is due
        when its tightest member deadline minus the estimated batch
        service time, or its oldest member's ``max_wait`` timeout,
        is at or before ``now``.
        """
        cut = 0
        for key in self._order:
            if not self._groups.get(key):
                continue
            when, reason = self._cut_decision(key)
            if when <= now:
                self._cut(key, now, reason=reason)
                cut += 1
        return cut

    def flush(self, *, now=0.0):
        """Seal every live group (the arrival stream has ended).

        ``now`` is the simulated instant of the flush — the batch-cut
        time stamped on any members shed here.
        """
        for key in self._order:
            if self._groups.get(key):
                self._cut(key, now, reason="flush")

    def take_shed(self):
        """Drain and return the accumulated shed log."""
        shed, self.shed_log = self.shed_log, []
        return shed

    def _cut(self, key, now, *, reason="flush"):
        """Seal one group into the EDF-ordered ready queue.

        With ``shed_expired``, members whose deadline lies strictly
        before ``now`` are logged as shed instead of sealed; a group
        whose members all expired produces no batch (and no
        ``batch.cut`` event — only sealed batches trace).
        """
        items = self._groups[key]
        self._groups[key] = []
        self._tightest[key] = math.inf
        self._pending -= len(items)
        if self.shed_expired:
            live = []
            for item in items:
                if item.deadline < now:
                    self.shed_log.append((item, now))
                else:
                    live.append(item)
            items = live
            if not items:
                return
        if self.tracer.enabled:
            args = {
                "reason": reason,
                "size": len(items),
                "config": config_label(key[0]),
                "a_hops": key[1],
                "seqs": [item.seq for item in items],
            }
            if self.priorities:
                args["class"] = key[2]
            self.tracer.instant("batch.cut", lane="service", ts=now,
                                args=args)
        deadline = min(item.deadline for item in items)
        if self.priorities:
            # Class-major EDF: a lower class always dispatches first;
            # within a class the historical (deadline, arrival) order.
            entry = (key[2], deadline, items[0].seq, key, tuple(items))
        else:
            entry = (deadline, items[0].seq, key, tuple(items))
        heapq.heappush(self._ready, entry)

    def peek_ready(self):
        """The EDF-first ready batch's member tuple, without dispatching.

        Lets the service inspect what :meth:`pop_ready` would hand out
        (e.g. the largest member graph, for capacity-aware instance
        placement) before committing to a dispatch.
        """
        if not self._ready:
            raise ConfigError("peek_ready on an empty ready queue")
        return self._ready[0][-1]

    def pop_ready(self):
        """Remove and return the EDF-first ready :class:`Batch`.

        Batch indices are assigned in dispatch order, so they are
        consecutive in the order instances actually receive work.
        """
        if not self._ready:
            raise ConfigError("pop_ready on an empty ready queue")
        entry = heapq.heappop(self._ready)
        key, items = entry[-2], entry[-1]
        batch = Batch(index=self._n_dispatched, config=key[0], items=items)
        self._n_dispatched += 1
        return batch
