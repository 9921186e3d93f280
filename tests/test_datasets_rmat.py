"""RMAT generator: determinism, skew, hub injection."""

import numpy as np
import pytest

from repro.datasets import rmat_edges
from repro.datasets.rmat import inject_hub_cluster
from repro.errors import ConfigError


class TestRmatEdges:
    def test_edge_count_and_range(self):
        src, dst = rmat_edges(100, 300, rng=1)
        assert src.size == dst.size == 300
        assert src.min() >= 0 and src.max() < 100
        assert dst.min() >= 0 and dst.max() < 100

    def test_unique_pairs(self):
        src, dst = rmat_edges(64, 200, rng=2)
        keys = set(zip(src.tolist(), dst.tolist()))
        assert len(keys) == 200

    def test_deterministic(self):
        a = rmat_edges(128, 500, rng=3)
        b = rmat_edges(128, 500, rng=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_skew_increases_hub_concentration(self):
        flat = rmat_edges(256, 2000, abcd=(0.25, 0.25, 0.25, 0.25), rng=4)
        skewed = rmat_edges(256, 2000, abcd=(0.7, 0.1, 0.1, 0.1), rng=4)
        # Fraction of edges landing in the lowest-index quarter of rows.
        frac_flat = (flat[0] < 64).mean()
        frac_skew = (skewed[0] < 64).mean()
        assert frac_skew > frac_flat + 0.2

    def test_non_power_of_two_nodes(self):
        src, dst = rmat_edges(100, 150, rng=5)
        assert src.max() < 100 and dst.max() < 100

    def test_zero_edges(self):
        src, dst = rmat_edges(10, 0, rng=6)
        assert src.size == 0

    def test_dense_request_returns_best_effort(self):
        # 16 cells, ask for 16 unique edges: should get close to all.
        src, _dst = rmat_edges(4, 16, rng=8)
        assert src.size >= 12

    def test_bad_abcd_raises(self):
        with pytest.raises(ConfigError):
            rmat_edges(10, 5, abcd=(0.5, 0.5, 0.5, 0.5))

    def test_negative_edges_raises(self):
        with pytest.raises(ConfigError):
            rmat_edges(10, -1)


class TestHubInjection:
    def test_hub_receives_fraction(self):
        src, dst = rmat_edges(300, 1000, rng=9)
        src2, dst2 = inject_hub_cluster(
            src, dst, 300, hub_nodes=10, fraction=0.5, rng=9
        )
        hub_start = 100
        in_hub = (
            (dst2 >= hub_start) & (dst2 < hub_start + 10)
        ).mean()
        assert in_hub >= 0.45

    def test_inputs_not_mutated(self):
        src, dst = rmat_edges(300, 500, rng=10)
        src_copy, dst_copy = src.copy(), dst.copy()
        inject_hub_cluster(src, dst, 300, hub_nodes=5, fraction=0.3, rng=1)
        assert np.array_equal(src, src_copy)
        assert np.array_equal(dst, dst_copy)

    def test_zero_fraction_is_identity(self):
        src, dst = rmat_edges(300, 500, rng=11)
        src2, dst2 = inject_hub_cluster(
            src, dst, 300, hub_nodes=5, fraction=0.0, rng=1
        )
        assert np.array_equal(src, src2) and np.array_equal(dst, dst2)

    def test_zipf_hub_degrees(self):
        # The first hub node must be much heavier than the last.
        src, dst = rmat_edges(1000, 5000, rng=12)
        _, dst2 = inject_hub_cluster(
            src, dst, 1000, hub_nodes=50, fraction=0.8, rng=2
        )
        hub_start = 1000 // 3
        first = (dst2 == hub_start).sum()
        last = (dst2 == hub_start + 49).sum()
        assert first > 5 * max(last, 1)

    def test_bad_fraction_raises(self):
        src, dst = rmat_edges(10, 5, rng=13)
        with pytest.raises(ConfigError):
            inject_hub_cluster(src, dst, 10, hub_nodes=2, fraction=1.5, rng=1)

    def test_hub_larger_than_graph_raises(self):
        src, dst = rmat_edges(10, 5, rng=14)
        with pytest.raises(ConfigError):
            inject_hub_cluster(src, dst, 10, hub_nodes=20, fraction=0.5, rng=1)
