"""Detailed-simulator components: queues, Omega network, PE."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hw import OmegaNetwork, ProcessingElement, Task, TaskQueue
from repro.hw.queues import QueueGroup


class TestTaskQueue:
    def test_fifo_order(self):
        q = TaskQueue()
        t1 = Task(row=1, a_val=1, b_val=1, owner=0)
        t2 = Task(row=2, a_val=1, b_val=1, owner=0)
        q.push(t1)
        q.push(t2)
        assert q.pop() is t1
        assert q.pop() is t2
        assert q.pop() is None

    def test_high_water_tracks_peak(self):
        q = TaskQueue()
        t = Task(row=0, a_val=1, b_val=1, owner=0)
        q.push(t)
        q.push(t)
        q.pop()
        q.push(t)
        assert q.high_water == 2

    def test_empty_signal(self):
        q = TaskQueue()
        assert len(q) == 0
        q.push(Task(row=0, a_val=1, b_val=1, owner=0))
        assert len(q) == 1


class TestQueueGroup:
    def test_round_robin_spread(self):
        group = QueueGroup(4)
        for i in range(8):
            group.push(Task(row=i, a_val=1, b_val=1, owner=0))
        assert [len(q) for q in group.queues] == [2, 2, 2, 2]

    def test_pop_skips_hazard(self):
        group = QueueGroup(2)
        group.push(Task(row=7, a_val=1, b_val=1, owner=0))
        group.push(Task(row=8, a_val=1, b_val=1, owner=0))
        task, stalled = group.pop_non_hazard({7})
        assert task.row == 8
        assert not stalled

    def test_pop_all_hazard_stalls(self):
        group = QueueGroup(2)
        group.push(Task(row=7, a_val=1, b_val=1, owner=0))
        task, stalled = group.pop_non_hazard({7})
        assert task is None
        assert stalled

    def test_pop_empty(self):
        task, stalled = QueueGroup(2).pop_non_hazard(set())
        assert task is None and not stalled


class TestOmegaNetwork:
    def test_power_of_two_required(self):
        with pytest.raises(ConfigError):
            OmegaNetwork(6)

    def test_single_task_routes_to_dest(self):
        net = OmegaNetwork(8)
        net.inject(0, 5, "payload")
        delivered = []
        for _ in range(10):
            delivered.extend(net.step())
            if delivered:
                break
        assert delivered == [(5, "payload")]

    def test_all_to_all_delivery(self):
        net = OmegaNetwork(8, buffer_depth=8)
        sent = []
        for port in range(8):
            for dest in range(8):
                # inject may back-pressure; retry while stepping
                while not net.inject(port, dest, (port, dest)):
                    net.step()
                sent.append((port, dest))
        received = []
        for _ in range(200):
            received.extend(payload for _dest, payload in net.step())
            if net.empty:
                break
        assert sorted(received) == sorted(sent)

    def test_dest_integrity(self):
        rng = np.random.default_rng(0)
        net = OmegaNetwork(16, buffer_depth=4)
        outstanding = 0
        mismatches = 0
        for _ in range(300):
            port = int(rng.integers(0, 16))
            dest = int(rng.integers(0, 16))
            if net.inject(port, dest, dest):
                outstanding += 1
            for exit_dest, payload in net.step():
                assert exit_dest == payload
                outstanding -= 1
        while not net.empty:
            for exit_dest, payload in net.step():
                assert exit_dest == payload
                outstanding -= 1
        assert outstanding == 0
        assert mismatches == 0

    def test_back_pressure_on_full_entry(self):
        net = OmegaNetwork(4, buffer_depth=1)
        assert net.inject(0, 0, "a")
        assert not net.inject(0, 1, "b")

    def test_bad_dest_raises(self):
        net = OmegaNetwork(4)
        with pytest.raises(ConfigError):
            net.inject(0, 9, "x")


class TestProcessingElement:
    def test_executes_and_accumulates(self):
        pe = ProcessingElement(0, mac_latency=2)
        acc = np.zeros(4)
        pe.queues.push(Task(row=1, a_val=3.0, b_val=2.0, owner=0))
        for cycle in range(5):
            pe.step(cycle, acc)
        assert acc[1] == 6.0
        assert pe.tasks_executed == 1

    def test_raw_hazard_stalls_same_row(self):
        pe = ProcessingElement(0, n_queues=1, mac_latency=5)
        acc = np.zeros(2)
        for _ in range(3):
            pe.queues.push(Task(row=0, a_val=1.0, b_val=1.0, owner=0))
        for cycle in range(30):
            pe.step(cycle, acc)
        assert acc[0] == 3.0
        assert pe.stall_events > 0

    def test_different_rows_no_stall(self):
        pe = ProcessingElement(0, n_queues=4, mac_latency=5)
        acc = np.zeros(8)
        for row in range(8):
            pe.queues.push(Task(row=row, a_val=1.0, b_val=1.0, owner=0))
        for cycle in range(20):
            pe.step(cycle, acc)
        assert acc.sum() == 8.0
        assert pe.busy_cycles == 8

    def test_idle_state(self):
        pe = ProcessingElement(0)
        assert pe.idle
        pe.queues.push(Task(row=0, a_val=1.0, b_val=1.0, owner=0))
        assert not pe.idle
