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
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    config_label,
)
from repro.serve.request import InferenceRequest
from repro.utils.validation import (
    check_bool,
    check_instance,
    check_positive_int,
)


def _check_max_batch(max_batch):
    """Validate a batch-size cap: None (unbounded) or a positive int."""
    if max_batch is None:
        return None
    return check_positive_int(max_batch, "max_batch")


@dataclass(slots=True)
class QueuedRequest:
    """An accepted request plus its arrival sequence number and id, and
    what the serving loop resolved it and its priority class to when it
    admitted it."""

    seq: int
    request: InferenceRequest
    """The caller's request object itself: the queue copies nothing."""
    request_id: object = field(init=False, compare=False, repr=False)
    """The id every result of this request carries: the request's own
    ``request_id``, or ``seq`` when that is None."""
    deadline: float = field(init=False, compare=False, repr=False)
    """Absolute completion deadline in seconds (inf when no SLO): the
    member request's, computed once on construction since the batch
    cut and EDF order read it per member."""
    resolved: tuple = field(default=None, init=False, compare=False,
                            repr=False)
    """What the service resolved the request's graph to at admission
    (:meth:`~repro.serve.service.InferenceService._resolve`), None
    until then: ``(accelerator, family, cache key)`` for a
    single-instance request, ``(graph, family)`` for a sharded job.
    Placement, replication, the sharded queue and the serve all read
    it."""
    priority: int = field(default=None, init=False, compare=False,
                          repr=False)
    """The priority class admission decided
    (:meth:`~repro.serve.request.InferenceRequest.priority_class`), or
    None when the service does not co-schedule. Everything downstream
    reads it; nothing derives the class again."""

    def __post_init__(self):
        request = self.request
        self.request_id = (self.seq if request.request_id is None
                           else request.request_id)
        self.deadline = request.deadline

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
        sequence number as their id, kept on the queued item
        (:attr:`QueuedRequest.request_id`): the request itself was
        checked when it was built and is queued as it is, not copied.
        A request arriving earlier than the previously submitted one is
        rejected with :class:`~repro.errors.ConfigError`.
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
        item = QueuedRequest(self._next_seq, request)
        self._next_seq += 1
        self._pending.append(item)
        return item.request_id

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


@dataclass(slots=True)
class _Surface:
    """The service-time EWMA of one hardware surface ``(config,
    a_hops)``, shared by every group batching on it."""

    seconds: float = 0.0
    """Per-request modeled service seconds (0.0 before any
    observation)."""
    observed: bool = False
    """Whether :meth:`StreamingScheduler.observe` has fed it yet: the
    first observation sets the estimate, later ones average into it.
    A flag, since 0.0 is a valid observation."""


@dataclass(slots=True)
class _Group:
    """The pending members of one grouping key, with what its cut time
    reads, so no per-tick scan hashes the key."""

    key: tuple
    surface: _Surface
    """The EWMA record of ``key[:2]``, shared with the surface's other
    priority-class groups and updated in place."""
    items: list = field(default_factory=list)
    """Admitted members in arrival order; emptied by each cut."""
    tightest: float = math.inf
    """Running minimum of the members' deadlines: :meth:`admit` lowers
    it, a cut resets it to inf."""


class StreamingScheduler:
    """Event-driven admission with deadline-aware batch cutting.

    The serving loop feeds it one :class:`QueuedRequest` at a time via
    :meth:`admit`; requests accumulate in groups keyed by ``(config,
    a_hops, item.priority)`` until a *cut* seals a batch:

    * **size cut** — the group reached ``max_batch`` members;
    * **deadline cut** — :meth:`cut_due` finds the group's cut time has
      passed: its tightest member deadline minus the estimated batch
      service time (an EWMA of observed per-request modeled service
      seconds per ``(config, a_hops)`` surface, fed back via
      :meth:`observe`) says the batch must start now to have a chance
      of meeting the SLO;
    * **flush** — the arrival stream ended (:meth:`flush`).

    Cut batches wait in an EDF priority queue: :meth:`pop_ready` hands
    out the batch with the tightest deadline, ties broken by the oldest
    member's arrival sequence — so SLO-less traffic degrades to plain
    FIFO and no config group can starve another with equal deadlines.

    The key's class is :attr:`QueuedRequest.priority`, which the
    co-scheduling service writes at admission: batches are then
    priority-pure and the ready queue orders by ``(class, deadline,
    arrival)``. A scheduler used alone sets ``item.priority`` on every
    item or on none; with every class None the order is exactly the
    historical ``(deadline, arrival)`` EDF.

    Parameters
    ----------
    max_batch:
        Size cut threshold in requests (None = no size cuts). Positive
        int.
    shed_expired:
        Admission control: when True, a member whose deadline has
        already expired at the instant its batch is cut is *shed* —
        removed from the batch and recorded in :attr:`shed_log` (the
        service turns the log into rejected
        :class:`~repro.serve.request.InferenceResult` outcomes) instead
        of being served hopelessly late. Default False preserves the
        historical serve-late behavior bit-for-bit. A bool: anything
        else, the string ``"no"`` included, raises
        :class:`~repro.errors.ConfigError`.
    tracer:
        None (the :data:`~repro.obs.tracer.NULL_TRACER`), a
        :class:`~repro.obs.tracer.NullTracer` or a
        :class:`~repro.obs.tracer.RecordingTracer`; anything else
        raises :class:`~repro.errors.ConfigError` here.

    All times this class consumes and produces — :meth:`cut_due` /
    :meth:`next_cut_time` instants, deadlines, :meth:`observe` service
    estimates — are simulated seconds on the serving loop's clock,
    never wall-clock. An SLO enters as the member's absolute deadline
    ``arrival_time + slo_ms / 1e3`` and influences *when* its batch is
    cut and *which* ready batch dispatches first; without
    ``shed_expired`` an expired deadline is still served (the service
    reports it as an SLO miss).
    """

    def __init__(self, *, max_batch=None, shed_expired=False, tracer=None):
        self.max_batch = _check_max_batch(max_batch)
        self.shed_expired = check_bool(shed_expired, "shed_expired")
        self.tracer = NULL_TRACER if tracer is None else check_instance(
            tracer, (NullTracer, RecordingTracer), "tracer"
        )
        """Event sink (:mod:`repro.obs`): every sealed batch emits a
        ``batch.cut`` instant stamped with the cut reason."""
        self._groups = {}
        """Grouping key -> its :class:`_Group`, in first-seen order (the
        order every cut scan visits them in). A record outlives its
        cuts, so a key is hashed once per admitted request."""
        self._surfaces = {}
        """``(config, a_hops)`` -> its shared :class:`_Surface`."""
        self._pending = 0
        """Admitted members not yet sealed into a batch: :meth:`admit`
        adds one, a cut subtracts its group. The serving loop reads it
        once or twice per tick, without a property call."""
        self._ready = []
        """The EDF heap of sealed batches. It is only ever mutated in
        place, never rebound, so the serving loop holds it for a whole
        drain and reads its length per tick without a call."""
        self._n_dispatched = 0
        self.shed_log = []
        """``(QueuedRequest, shed_time)`` pairs of rejected members, in
        shed order; the service drains it via :meth:`take_shed`. Only
        ``shed_expired`` fills it."""

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
        request = item.request
        key = (request.config, request.a_hops, item.priority)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(key, self._surface(key[:2]))
        group.items.append(item)
        self._pending += 1
        if item.deadline < group.tightest:
            group.tightest = item.deadline
        if (self.max_batch is not None
                and len(group.items) >= self.max_batch):
            self._cut(group, item.arrival_time if now is None else now,
                      reason="size")

    def observe(self, config, a_hops, *seconds):
        """Feed back served requests' modeled service times, in service
        order.

        Each of ``seconds`` is one request's modeled hardware service
        time in simulated seconds (cycles at the config clock — not the
        wall-clock simulation cost). Folds them, in order, into the
        ``(config, a_hops)`` surface's EWMA estimate (half-life one
        observation), which the deadline cut of every group on that
        surface uses to answer "how long would this batch take if it
        started now". The service passes a whole batch's times in one
        call, so the surface is looked up once per batch.
        """
        surface = self._surface((config, a_hops))
        for value in seconds:
            if surface.observed:
                surface.seconds = 0.5 * surface.seconds + 0.5 * value
            else:
                surface.seconds = value
                surface.observed = True

    def _surface(self, surface_key):
        """The one :class:`_Surface` record of a ``(config, a_hops)``
        key, made on first use. Groups keep a reference to it, so
        :meth:`observe` updates it in place, never replaces it."""
        surface = self._surfaces.get(surface_key)
        if surface is None:
            surface = self._surfaces[surface_key] = _Surface()
        return surface

    def estimate(self, config, a_hops):
        """Current EWMA per-request service estimate for a group key.

        0.0 before any observation — callers treating the estimate as
        a wait budget (cache-affinity routing) therefore never wait
        while the scheduler knows nothing.
        """
        surface = self._surfaces.get((config, a_hops))
        return 0.0 if surface is None else surface.seconds

    def next_cut_time(self):
        """Earliest second any live group needs cutting (inf if none).

        A group's cut time is its tightest member deadline minus the
        estimated batch service time. It is O(1) and hashes nothing:
        the tightest deadline is a running minimum that :meth:`admit`
        lowers and :meth:`_cut` resets, and the estimate is the group's
        surface record (the priority suffix of a 3-element key carries
        no service-time information). The scan makes no call and builds
        no list per group.
        """
        earliest = math.inf
        for group in self._groups.values():
            items = group.items
            if items:
                at = group.tightest - group.surface.seconds * len(items)
                if at < earliest:
                    earliest = at
        return earliest

    def cut_due(self, now):
        """Seal every group whose cut time has passed; returns the count.

        ``now`` is the current simulated-clock second. A group is due
        when its tightest member deadline minus the estimated batch
        service time (:meth:`next_cut_time`) is at or before ``now``.
        """
        cut = 0
        for group in self._groups.values():
            items = group.items
            if (items and group.tightest
                    - group.surface.seconds * len(items) <= now):
                self._cut(group, now, reason="deadline")
                cut += 1
        return cut

    def flush(self, *, now=0.0):
        """Seal every live group (the arrival stream has ended).

        ``now`` is the simulated instant of the flush — the batch-cut
        time stamped on any members shed here.
        """
        for group in self._groups.values():
            if group.items:
                self._cut(group, now, reason="flush")

    def take_shed(self):
        """Drain and return the accumulated shed log."""
        shed, self.shed_log = self.shed_log, []
        return shed

    def _cut(self, group, now, *, reason="flush"):
        """Seal one :class:`_Group` into the EDF-ordered ready queue.

        With ``shed_expired``, members whose deadline lies strictly
        before ``now`` are logged as shed instead of sealed; a group
        whose members all expired produces no batch (and no
        ``batch.cut`` event — only sealed batches trace).
        """
        items = group.items
        key = group.key
        group.items = []
        group.tightest = math.inf
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
            if key[2] is not None:
                args["class"] = key[2]
            self.tracer.instant("batch.cut", lane="service", ts=now,
                                args=args)
        # Class-major EDF; with every class None, the historical
        # (deadline, arrival) order.
        heapq.heappush(self._ready, (
            key[2], min(item.deadline for item in items), items[0].seq,
            key, tuple(items),
        ))

    def peek_ready(self):
        """The EDF-first ready batch's member tuple, without dispatching.

        Lets the service's placement policy inspect what
        :meth:`pop_ready` would hand out (the members' cache keys and
        tightest deadline) before committing to a dispatch; a batch no
        instance can take stays queued.
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
        # Positional, in field order: a keyword call would build a dict
        # per batch for the generated __init__ to unpack.
        batch = Batch(self._n_dispatched, key[0], items)
        self._n_dispatched += 1
        return batch
