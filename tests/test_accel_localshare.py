"""Local-sharing makespan bound: exactness and achievability.

The bound is cross-checked against a brute-force evaluation of every
window (the Hall certificate) and the EDF transport construction proves
achievability — together they pin the bound from both sides. The
retired heap-based EDF transport lives here as the oracle of the
vectorized :func:`share_effective_loads`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.localshare import (
    share_effective_loads,
    share_makespan,
    share_makespan_batch,
    share_window_bounds,
    share_window_bounds_batch,
)
from repro.errors import ConfigError


def brute_force_bound(loads, hop):
    """max over all windows of ceil(work / receivers)."""
    n = len(loads)
    best = 0
    prefix = np.concatenate(([0], np.cumsum(loads)))
    for i in range(n):
        for j in range(i, n):
            work = prefix[j + 1] - prefix[i]
            receivers = min(n - 1, j + hop) - max(0, i - hop) + 1
            best = max(best, -(-int(work) // receivers))
    return best


def _share_effective_loads_reference(loads, hop, *, cap=None):
    """The pre-vectorization heap-based EDF transport (test oracle).

    Kept verbatim so the property suite can assert the vectorized
    :func:`share_effective_loads` is elementwise identical to the
    schedule the original receiver-by-receiver heap produced. Unlike the
    public function it trusts ``cap`` — the tests also use it to probe
    infeasible caps.
    """
    import heapq

    loads = np.asarray(loads, dtype=np.float64)
    n = loads.size
    cap = float(share_makespan(loads, hop) if cap is None else cap)
    effective = np.zeros(n)
    pending = []  # heap of [deadline, sender, remaining]
    for receiver in range(n):
        # Jobs become available once the receiver enters their window.
        sender = receiver + hop
        if sender < n and loads[sender] > 0:
            heapq.heappush(
                pending, [min(sender + hop, n - 1), sender, loads[sender]]
            )
        if receiver == 0:
            for early in range(0, min(hop, n)):
                if loads[early] > 0:
                    heapq.heappush(
                        pending,
                        [min(early + hop, n - 1), early, loads[early]],
                    )
        capacity = cap
        while capacity > 1e-12 and pending:
            deadline, _sender, remaining = pending[0]
            if deadline < receiver:
                break  # cannot happen at a feasible cap
            take = min(capacity, remaining)
            effective[receiver] += take
            capacity -= take
            pending[0][2] -= take
            if pending[0][2] <= 1e-12:
                heapq.heappop(pending)
        if pending and pending[0][0] <= receiver and pending[0][2] > 1e-9:
            raise AssertionError(
                f"EDF transport failed at receiver {receiver}: "
                f"{pending[0][2]} work past its deadline (cap={cap})"
            )
    if pending:
        residue = sum(item[2] for item in pending)
        if residue > 1e-6:
            raise AssertionError(
                f"EDF transport left {residue} unplaced work (cap={cap})"
            )
    return effective


class TestBasicCases:
    def test_hop_zero_is_max(self):
        assert share_makespan([5, 1, 9, 2], 0) == 9

    def test_uniform_loads_unchanged(self):
        assert share_makespan([4, 4, 4, 4], 2) == 4

    def test_single_hot_pe_spreads(self):
        # 30 units on one of 7 PEs: 1-hop -> 3 receivers.
        loads = [0, 0, 0, 30, 0, 0, 0]
        assert share_makespan(loads, 1) == 10
        assert share_makespan(loads, 2) == 6
        assert share_makespan(loads, 3) == -(-30 // 7)

    def test_boundary_pe_has_fewer_receivers(self):
        loads = [30, 0, 0, 0, 0, 0, 0]
        assert share_makespan(loads, 1) == 15  # only PEs 0 and 1

    def test_total_over_pes_lower_bound(self):
        loads = [10, 10, 10, 10]
        assert share_makespan(loads, 3) == 10

    def test_single_pe(self):
        assert share_makespan([7], 2) == 7

    def test_efficiency_inflates(self):
        loads = [0, 0, 30, 0, 0]
        ideal = share_makespan(loads, 1)
        lossy = share_makespan(loads, 1, efficiency=0.5)
        assert lossy == 2 * ideal

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            share_makespan([], 1)

    def test_negative_hop_raises(self):
        with pytest.raises(ConfigError):
            share_makespan([1], -1)

    def test_bad_efficiency_raises(self):
        with pytest.raises(ConfigError):
            share_makespan([1], 1, efficiency=0.0)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("hop", [0, 1, 2, 3])
    def test_random_instances(self, hop, rng):
        for _ in range(40):
            n = int(rng.integers(1, 24))
            loads = rng.integers(0, 40, size=n)
            if rng.random() < 0.4:
                loads[rng.integers(0, n)] += int(rng.integers(100, 500))
            assert share_makespan(loads, hop) == brute_force_bound(loads, hop)

    def test_window_bounds_components(self):
        loads = np.array([100, 0, 0, 0, 50, 0])
        interior, prefix, suffix = share_window_bounds(loads, 1)
        assert max(interior, prefix, suffix) == brute_force_bound(loads, 1)


class TestEffectiveLoads:
    def test_conservation_and_cap(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 30))
            hop = int(rng.integers(0, 4))
            loads = rng.integers(0, 60, size=n)
            cap = share_makespan(loads, hop)
            effective = share_effective_loads(loads, hop)
            assert effective.sum() == pytest.approx(float(loads.sum()))
            assert effective.max() <= cap + 1e-9

    def test_hop_zero_identity(self):
        loads = np.array([3, 7, 1])
        assert np.allclose(share_effective_loads(loads, 0), loads)

    def test_locality_respected(self):
        # Work can only appear within hop distance of some original owner.
        loads = np.array([0, 0, 0, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0])
        effective = share_effective_loads(loads, 2)
        outside = np.concatenate([effective[:4], effective[9:]])
        assert np.all(outside == 0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 100), min_size=1, max_size=20),
    st.integers(0, 4),
)
def test_property_bound_matches_brute_force(loads, hop):
    assert share_makespan(loads, hop) == brute_force_bound(loads, hop)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 100), min_size=1, max_size=16),
    st.integers(0, 3),
)
def test_property_construction_achieves_bound(loads, hop):
    loads = np.asarray(loads)
    cap = share_makespan(loads, hop)
    effective = share_effective_loads(loads, hop)
    assert effective.sum() == pytest.approx(float(loads.sum()))
    assert effective.max() <= cap + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 50), min_size=2, max_size=16),
    st.integers(0, 3),
)
def test_property_monotone_in_hop(loads, hop):
    # More hops can never make the makespan worse.
    assert share_makespan(loads, hop + 1) <= share_makespan(loads, hop)


class TestCapValidation:
    """A caller-supplied cap must equal the Hall bound — no silent trust."""

    def test_exact_cap_accepted(self):
        loads = np.array([0, 0, 30, 0, 0, 7, 1])
        cap = share_makespan(loads, 1)
        expected = share_effective_loads(loads, 1)
        assert np.array_equal(
            share_effective_loads(loads, 1, cap=cap), expected
        )

    def test_float_cap_within_tolerance_accepted(self):
        loads = np.array([0, 0, 30, 0, 0])
        cap = share_makespan(loads, 1)
        share_effective_loads(loads, 1, cap=cap + 5e-10)

    @pytest.mark.parametrize("delta", [-1, 1, 7, 0.5])
    def test_wrong_cap_raises(self, delta):
        loads = np.array([4, 0, 30, 2, 0, 0, 9])
        cap = share_makespan(loads, 2) + delta
        with pytest.raises(ConfigError):
            share_effective_loads(loads, 2, cap=cap)

    def test_negative_and_non_numeric_cap_raise(self):
        loads = np.array([1, 2, 3])
        with pytest.raises(ConfigError):
            share_effective_loads(loads, 1, cap=-1)
        with pytest.raises(ConfigError):
            share_effective_loads(loads, 1, cap="big")

    def test_zero_cap_only_for_zero_loads(self):
        assert np.array_equal(
            share_effective_loads(np.zeros(4, dtype=int), 1, cap=0),
            np.zeros(4),
        )
        with pytest.raises(ConfigError):
            share_effective_loads(np.array([0, 1, 0]), 1, cap=0)


class TestVectorizedAgainstReference:
    """The NumPy sweep must reproduce the retired heap EDF exactly."""

    def test_reference_is_heap_based(self, rng):
        # Elementwise identity on a skewed instance, both cap modes.
        loads = rng.integers(0, 50, size=40)
        loads[7] += 1000
        for hop in (0, 1, 3):
            cap = share_makespan(loads, hop)
            ref = _share_effective_loads_reference(loads, hop)
            assert np.array_equal(share_effective_loads(loads, hop), ref)
            assert np.array_equal(
                share_effective_loads(loads, hop, cap=cap), ref
            )

    def test_infeasible_cap_fails_both(self):
        loads = np.array([0, 0, 50, 0, 0])
        bad = share_makespan(loads, 1) - 1
        with pytest.raises(AssertionError):
            _share_effective_loads_reference(loads, 1, cap=bad)
        with pytest.raises(ConfigError):
            share_effective_loads(loads, 1, cap=bad)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(0, 200), min_size=1, max_size=40),
    st.integers(0, 5),
    st.booleans(),
)
def test_property_vectorized_equals_reference(loads, hop, pass_cap):
    """Elementwise equality + conservation + feasibility, random inputs.

    Runs both with the Hall bound recomputed internally and with it
    passed as ``cap`` (the cycle model's hot-path contract).
    """
    loads = np.asarray(loads)
    cap = share_makespan(loads, hop)
    reference = _share_effective_loads_reference(loads, hop)
    effective = (
        share_effective_loads(loads, hop, cap=cap)
        if pass_cap else share_effective_loads(loads, hop)
    )
    assert np.array_equal(effective, reference)
    assert effective.sum() == pytest.approx(float(loads.sum()))
    assert effective.max() <= cap + 1e-9
    assert effective.min() >= 0.0


class TestBatchedKernel:
    """share_makespan_batch rows must match the scalar entry point."""

    def test_rows_match_scalar(self, rng):
        for _ in range(20):
            n_rounds = int(rng.integers(1, 8))
            n = int(rng.integers(1, 40))
            hop = int(rng.integers(0, 5))
            matrix = rng.integers(0, 300, size=(n_rounds, n))
            batch = share_makespan_batch(matrix, hop)
            assert batch.dtype == np.int64
            assert list(batch) == [
                share_makespan(matrix[r], hop) for r in range(n_rounds)
            ]

    def test_efficiency_forwarded(self):
        matrix = np.array([[0, 30, 0], [10, 10, 10]])
        lossy = share_makespan_batch(matrix, 1, efficiency=0.5)
        assert list(lossy) == [
            share_makespan(matrix[0], 1, efficiency=0.5),
            share_makespan(matrix[1], 1, efficiency=0.5),
        ]

    def test_empty_batch_allowed(self):
        assert share_makespan_batch(np.zeros((0, 5), dtype=int), 1).size == 0

    def test_zero_pes_rejected(self):
        with pytest.raises(ConfigError):
            share_makespan_batch(np.zeros((2, 0), dtype=int), 1)

    def test_bad_hop_and_efficiency_rejected(self):
        with pytest.raises(ConfigError):
            share_makespan_batch(np.ones((1, 3), dtype=int), -1)
        with pytest.raises(ConfigError):
            share_makespan_batch(np.ones((1, 3), dtype=int), 1,
                                 efficiency=0.0)

    def test_window_bounds_batch_max_matches_brute(self, rng):
        # A hub away from both edges makes the interior family beat the
        # prefix and suffix bound, so the makespan kernel runs both of
        # its branches: rows settled at that bound and rows that search.
        interior_won = edge_held = 0
        for _ in range(30):
            n = int(rng.integers(2, 20))
            hop = int(rng.integers(1, 4))
            matrix = rng.integers(0, 80, size=(3, n))
            if n > 2 * hop + 2:
                hub = rng.integers(hop + 1, n - hop - 1)
                matrix[0, hub] += int(rng.integers(200, 2000))
            interior, prefix, suffix = share_window_bounds_batch(matrix, hop)
            spans = share_makespan_batch(matrix, hop)
            for r in range(3):
                expected = brute_force_bound(matrix[r], hop)
                edge = max(int(prefix[r]), int(suffix[r]))
                assert max(int(interior[r]), edge) == expected
                assert int(spans[r]) == expected
                if int(interior[r]) > edge:
                    interior_won += 1
                else:
                    edge_held += 1
        assert interior_won and edge_held


class TestWideArrayPath:
    """The binary-search interior path, the only one, on single rows."""

    def test_makespan_matches_brute_force(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 28))
            hop = int(rng.integers(0, 5))
            loads = rng.integers(0, 100, size=n)
            if rng.random() < 0.4:
                loads[rng.integers(0, n)] += int(rng.integers(100, 900))
            assert share_makespan(loads, hop) == brute_force_bound(loads, hop)

    def test_transport_matches_reference(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 24))
            hop = int(rng.integers(0, 4))
            loads = rng.integers(0, 60, size=n)
            assert np.array_equal(
                share_effective_loads(loads, hop),
                _share_effective_loads_reference(loads, hop),
            )
