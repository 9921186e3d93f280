"""Per-PE task queues with occupancy tracking.

Each PE owns several queues (Fig. 6-B shows four); the dispatcher pushes
into them and the PE's arbiter pops. The pending-task counters are what
both the local-sharing comparison and the PESM's empty signals observe,
so the queues track their high-water mark for the area model.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError


class TaskQueue:
    """An unbounded FIFO of tasks with high-water tracking.

    The engine never refuses a task: it measures the depth each queue
    reaches, which the area model sizes the queues by.
    """

    def __init__(self):
        self._items = deque()
        self.high_water = 0

    def __len__(self):
        return len(self._items)

    def push(self, task):
        """Enqueue ``task``."""
        self._items.append(task)
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)

    def peek(self):
        """The head task without removing it (None when empty)."""
        return self._items[0] if self._items else None

    def pop(self):
        """Dequeue the head task (None when empty)."""
        return self._items.popleft() if self._items else None


class QueueGroup:
    """The bundle of queues belonging to one PE."""

    def __init__(self, n_queues):
        if n_queues < 1:
            raise ConfigError(f"n_queues must be >= 1, got {n_queues}")
        self.queues = [TaskQueue() for _ in range(n_queues)]
        self._next_push = 0

    def __len__(self):
        return sum(len(q) for q in self.queues)

    @property
    def pending(self):
        """Total pending tasks (the counter local sharing compares)."""
        return len(self)

    @property
    def high_water(self):
        """Peak total occupancy observed."""
        return sum(q.high_water for q in self.queues)

    def push(self, task):
        """Round-robin push across the PE's queues."""
        self.queues[self._next_push].push(task)
        self._next_push = (self._next_push + 1) % len(self.queues)

    def pop_non_hazard(self, in_flight_rows):
        """Arbiter pop: head task whose row is not in flight.

        Scans queues round-robin; skips heads that would RaW-hazard
        against ``in_flight_rows``. Returns ``(task, stalled)`` where
        ``stalled`` is True when tasks were pending but every available
        head conflicted (the PE loses the cycle — this is the stall the
        fast model's cooldown bound approximates).
        """
        saw_pending = False
        for queue in self.queues:
            head = queue.peek()
            if head is None:
                continue
            saw_pending = True
            if head.row not in in_flight_rows:
                return queue.pop(), False
        return None, saw_pending
