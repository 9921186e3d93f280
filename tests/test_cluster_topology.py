"""Tests for the inter-chip fabric topologies and their pricing."""

import numpy as np
import pytest

from repro.cluster import TOPOLOGY_KINDS, Topology, make_topology
from repro.errors import ConfigError


def _traffic(n, entries):
    """A traffic matrix from ``{(dst, src): words}``."""
    words = np.zeros((n, n), dtype=np.int64)
    for (dst, src), w in entries.items():
        words[dst, src] = w
    return words


class TestMakeTopology:
    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_builds_every_kind(self, kind):
        topo = make_topology(kind, 4)
        assert isinstance(topo, Topology)
        assert topo.n_chips == 4
        assert topo.n_links > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_topology("torus", 4)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_bandwidth_rejected(self, bad):
        with pytest.raises(ConfigError):
            make_topology("ring", 4, link_words_per_cycle=bad)

    def test_negative_hop_latency_rejected(self):
        with pytest.raises(ConfigError):
            make_topology("ring", 4, hop_latency_cycles=-1)

    def test_link_counts(self):
        assert make_topology("all-to-all", 4).n_links == 4
        assert make_topology("ring", 4).n_links == 8
        # 2x2 mesh: 2 horizontal + 2 vertical edges, both directions.
        assert make_topology("mesh2d", 4).n_links == 8
        # 2x3 mesh: 4 horizontal + 3 vertical edges, both directions.
        assert make_topology("mesh2d", 6).n_links == 14

    def test_wrong_traffic_shape_rejected(self):
        topo = make_topology("ring", 4)
        with pytest.raises(ConfigError):
            topo.comm_cycles(np.zeros((3, 3)))


class TestAllToAll:
    def test_matches_scalar_ingress_model(self):
        # The PR 4 model: chip d pays ceil(total inbound words / bw).
        topo = make_topology("all-to-all", 3, link_words_per_cycle=4.0)
        words = _traffic(3, {(0, 1): 10, (0, 2): 6, (2, 1): 3})
        comm = topo.comm_cycles(words)
        assert comm.tolist() == [4, 0, 1]  # ceil(16/4), 0, ceil(3/4)

    def test_single_hop_latency(self):
        topo = make_topology(
            "all-to-all", 3, link_words_per_cycle=4.0, hop_latency_cycles=5
        )
        comm = topo.comm_cycles(_traffic(3, {(0, 1): 4}))
        assert comm[0] == 1 + 5
        assert topo.hops(1, 0) == 1
        assert topo.hops(1, 1) == 0


class TestRing:
    def test_shortest_direction_hops(self):
        topo = make_topology("ring", 5)
        assert topo.hops(0, 1) == 1
        assert topo.hops(0, 4) == 1  # wraps counter-clockwise
        assert topo.hops(0, 2) == 2
        assert topo.hops(0, 3) == 2

    def test_antipodal_tie_goes_clockwise(self):
        topo = make_topology("ring", 4)
        assert topo.hops(0, 2) == 2
        # Clockwise links are ids 0..n-1: 0->1 is link 0, 1->2 link 1.
        assert topo.routes[2][0] == (0, 1)

    def test_contended_link_sums_traffic(self):
        # Flows 0->2 and 1->2 (clockwise) share link 1->2; each flow
        # sees the link's total load, not just its own words.
        topo = make_topology("ring", 4, link_words_per_cycle=1.0)
        words = _traffic(4, {(2, 0): 8, (2, 1): 8})
        comm = topo.comm_cycles(words)
        assert comm[2] == 16 + 0  # both bottleneck on the shared link
        alone = topo.comm_cycles(_traffic(4, {(2, 1): 8}))
        assert alone[2] == 8

    def test_two_ring_is_two_links(self):
        topo = make_topology("ring", 2)
        assert topo.n_links == 2
        assert topo.hops(0, 1) == 1
        assert topo.hops(1, 0) == 1


class TestMesh2d:
    def test_xy_route_hops_match_manhattan(self):
        topo = make_topology("mesh2d", 6)  # 2 x 3 grid
        # chip r * 3 + c at (r, c); 0 at (0,0), 5 at (1,2).
        assert topo.hops(0, 5) == 3
        assert topo.hops(0, 2) == 2
        assert topo.hops(0, 3) == 1
        assert max(topo.hops(s, d) for s in range(6) for d in range(6)) == 3

    def test_prime_count_degenerates_to_line(self):
        topo = make_topology("mesh2d", 5)  # 1 x 5
        assert topo.hops(0, 4) == 4
        assert topo.n_links == 8

    def test_disjoint_flows_overlap(self):
        # 2x2 mesh: 1->0 and 2->3 touch disjoint links, so each pays
        # only its own transfer.
        topo = make_topology("mesh2d", 4, link_words_per_cycle=2.0)
        words = _traffic(4, {(0, 1): 8, (3, 2): 8})
        comm = topo.comm_cycles(words)
        assert comm.tolist() == [4, 0, 0, 4]


class TestPricing:
    def test_transfer_cycles_uncontended(self):
        topo = make_topology(
            "ring", 4, link_words_per_cycle=2.0, hop_latency_cycles=3
        )
        assert topo.transfer_cycles(0, 2, 10) == 5 + 2 * 3
        assert topo.transfer_cycles(0, 2, 0) == 0

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_zero_traffic_is_free(self, kind):
        topo = make_topology(kind, 4)
        assert topo.comm_cycles(np.zeros((4, 4))).sum() == 0

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_single_flow_never_beats_all_to_all(self, kind):
        # One uncontended flow bottlenecks on its own words everywhere;
        # multi-hop fabrics can only add hop latency on top. (A full
        # traffic matrix CAN favor a ring at equal per-link bandwidth —
        # two inbound directions split what all-to-all funnels through
        # one ingress link — which is why the equal-aggregate-bandwidth
        # comparison is the fair one; see compare_shard_topology.)
        a2a = make_topology(
            "all-to-all", 6, link_words_per_cycle=4.0, hop_latency_cycles=2
        )
        topo = make_topology(
            kind, 6, link_words_per_cycle=4.0, hop_latency_cycles=2
        )
        for src in range(6):
            for dst in range(6):
                if src == dst:
                    continue
                words = _traffic(6, {(dst, src): 23})
                assert (
                    topo.comm_cycles(words)[dst]
                    >= a2a.comm_cycles(words)[dst]
                )
