"""Direct unit tests for the TDQ-1 and TDQ-2 dispatchers."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hw import OmegaNetwork, ProcessingElement, Tdq1Dispatcher, Tdq2Dispatcher
from repro.hw.dispatch import choose_target
from repro.sparse import CooMatrix, coo_to_csc


def make_pes(n, **kwargs):
    return [ProcessingElement(i, **kwargs) for i in range(n)]


class TestChooseTarget:
    def test_hop_zero_keeps_owner(self):
        pes = make_pes(4)
        assert choose_target(2, 0, pes) == 2

    def test_prefers_least_pending_neighbour(self):
        pes = make_pes(4)
        from repro.hw.task import Task

        for _ in range(5):
            pes[1].queues.push(Task(row=0, a_val=1, b_val=1, owner=1))
        assert choose_target(1, 1, pes) in (0, 2)

    def test_ties_break_to_owner(self):
        pes = make_pes(4)
        assert choose_target(1, 1, pes) == 1

    def test_window_clipped_at_edges(self):
        pes = make_pes(4)
        assert choose_target(0, 2, pes) in (0, 1, 2)
        assert choose_target(3, 2, pes) in (1, 2, 3)


class TestTdq1:
    @pytest.fixture
    def setup(self, rng):
        dense = rng.normal(size=(8, 6))
        dense[rng.random(dense.shape) > 0.5] = 0.0
        pes = make_pes(4)
        owner = np.repeat(np.arange(4), 2)
        dispatcher = Tdq1Dispatcher(dense, owner, pes)
        return dense, pes, dispatcher

    def test_all_nonzeros_dispatched(self, setup):
        dense, pes, dispatcher = setup
        dispatcher.start_column(np.ones(6))
        while not dispatcher.exhausted:
            dispatcher.step()
        queued = sum(pe.queues.pending for pe in pes)
        assert queued == np.count_nonzero(dense)

    def test_tasks_carry_product_operands(self, setup):
        dense, pes, dispatcher = setup
        b_col = np.arange(6, dtype=float)
        dispatcher.start_column(b_col)
        while not dispatcher.exhausted:
            dispatcher.step()
        # Pull one task and check its payload against the matrix.
        for pe in pes:
            task, _ = pe.queues.pop_non_hazard(set())
            if task is not None:
                row = task.row
                col_matches = [
                    c for c in range(6)
                    if dense[row, c] == task.a_val and b_col[c] == task.b_val
                ]
                assert col_matches
                break

    def test_scan_bandwidth_limits_per_step(self, rng):
        dense = rng.normal(size=(8, 8))  # fully dense
        pes = make_pes(4)
        owner = np.repeat(np.arange(4), 2)
        dispatcher = Tdq1Dispatcher(dense, owner, pes)
        # n_pes / (1 - sparsity) at sparsity 0: one cell per PE a step.
        assert dispatcher.scan_bandwidth == 4
        dispatcher.start_column(np.ones(8))
        dispatcher.step()
        assert sum(pe.queues.pending for pe in pes) == 4

    def test_requires_start_column(self, setup):
        _dense, _pes, dispatcher = setup
        with pytest.raises(ConfigError):
            dispatcher.step()

    def test_default_bandwidth_scales_with_sparsity(self, rng):
        dense = np.zeros((8, 8))
        dense[0, 0] = 1.0  # extremely sparse
        pes = make_pes(4)
        owner = np.repeat(np.arange(4), 2)
        dispatcher = Tdq1Dispatcher(dense, owner, pes)
        # n_pes / (1 - sparsity): very sparse -> very wide scan.
        assert dispatcher.scan_bandwidth >= 8 * 8


class TestTdq2:
    @pytest.fixture
    def setup(self, rng):
        dense = rng.normal(size=(8, 6))
        dense[rng.random(dense.shape) > 0.5] = 0.0
        csc = coo_to_csc(CooMatrix.from_dense(dense))
        pes = make_pes(8)
        owner = np.arange(8)
        network = OmegaNetwork(8)
        dispatcher = Tdq2Dispatcher(csc, owner, pes, network)
        return dense, csc, pes, network, dispatcher

    def test_stream_exhausts_after_nnz(self, setup):
        _dense, csc, _pes, network, dispatcher = setup
        dispatcher.start_column(np.ones(6))
        injected = 0
        for _ in range(100):
            injected += dispatcher.step()
            network.step()
            if dispatcher.exhausted:
                break
        assert injected == csc.nnz

    def test_delivery_reaches_owner_queues(self, setup):
        dense, csc, pes, network, dispatcher = setup
        dispatcher.start_column(np.ones(6))
        for _ in range(200):
            dispatcher.step()
            dispatcher.deliver(network.step())
            if dispatcher.exhausted and network.empty:
                break
        row_nnz = (dense != 0).sum(axis=1)
        for pe in range(8):
            assert pes[pe].queues.pending == row_nnz[pe]

    def test_owner_preserved_under_sharing(self, rng):
        dense = np.zeros((8, 8))
        dense[0, :] = rng.normal(size=8)  # all work owned by PE 0
        csc = coo_to_csc(CooMatrix.from_dense(dense))
        pes = make_pes(8)
        network = OmegaNetwork(8)
        dispatcher = Tdq2Dispatcher(
            csc, np.arange(8), pes, network, hop=2
        )
        dispatcher.start_column(np.ones(8))
        for _ in range(200):
            dispatcher.step()
            dispatcher.deliver(network.step())
            if dispatcher.exhausted and network.empty:
                break
        for pe in pes:
            task, _ = pe.queues.pop_non_hazard(set())
            while task is not None:
                assert task.owner == 0  # accumulation address unchanged
                task, _ = pe.queues.pop_non_hazard(set())
