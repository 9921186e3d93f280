"""The processing element: arbiter, MAC pipeline, RaW stall handling.

Paper Sec. 3.3: a PE couples a multiply-accumulate unit (MAC) with an
address generation unit and a bank of the accumulation buffer (ACC).
The MAC is pipelined with latency ``T``; it accepts a new task per cycle
unless the task targets a row whose partial result is still in flight —
the Read-after-Write hazard — in which case the task waits in a stall
buffer while the arbiter issues from another queue.
"""

from __future__ import annotations

from collections import deque

from repro.hw.queues import QueueGroup


class ProcessingElement:
    """One PE with its queues, MAC pipeline and ACC bank."""

    def __init__(self, pe_id, *, n_queues=4, mac_latency=5):
        self.pe_id = pe_id
        self.queues = QueueGroup(n_queues)
        self.mac_latency = mac_latency
        # In-flight MAC operations: deque of (finish_cycle, task)
        self._pipeline = deque()
        self._in_flight_rows = set()
        # Tasks parked on a RaW conflict, retried before the queues.
        self._stall_buffer = deque()
        self.busy_cycles = 0
        self.stall_events = 0
        self.tasks_executed = 0

    @property
    def pending(self):
        """Tasks visible to the sharing logic (queues + stall buffer)."""
        return self.queues.pending + len(self._stall_buffer)

    @property
    def idle(self):
        """True when nothing is queued or in flight."""
        return (
            self.pending == 0 and not self._pipeline
        )

    def step(self, cycle, acc):
        """Advance one cycle: retire finished MACs, issue one new task.

        ``acc`` is the global accumulator array (the union of all ACC
        banks); retiring a task performs the accumulate. Issuing follows
        the paper's arbiter: stall-buffer first, then the first queue
        head that does not RaW-conflict with an in-flight row.
        """
        # Retire completed MAC operations.
        while self._pipeline and self._pipeline[0][0] <= cycle:
            _finish, task = self._pipeline.popleft()
            acc[task.row] += task.product
            self._in_flight_rows.discard(task.row)

        task = self._take_task()
        if task is None:
            return
        self._pipeline.append((cycle + self.mac_latency, task))
        self._in_flight_rows.add(task.row)
        self.busy_cycles += 1
        self.tasks_executed += 1

    def _take_task(self):
        """Pick the next issuable task, honouring RaW ordering."""
        if self._stall_buffer:
            head = self._stall_buffer[0]
            if head.row not in self._in_flight_rows:
                return self._stall_buffer.popleft()
        task, stalled = self.queues.pop_non_hazard(self._in_flight_rows)
        if task is not None:
            return task
        if stalled:
            # Every available head conflicts: move one conflicting task
            # to the stall buffer (bounded by the MAC depth, like the
            # scoreboard the paper describes) and lose the cycle.
            self.stall_events += 1
            if len(self._stall_buffer) < self.mac_latency:
                for queue in self.queues.queues:
                    head = queue.peek()
                    if head is not None:
                        self._stall_buffer.append(queue.pop())
                        break
        return None

    def drain_cycles_left(self):
        """Cycles until the MAC pipeline is empty (for run-off timing)."""
        return len(self._pipeline)
