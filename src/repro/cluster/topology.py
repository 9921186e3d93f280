"""Inter-chip interconnect topologies and their communication pricing.

PR 4's cluster model priced every halo transfer against a single scalar:
each chip owned one ingress link of ``link_words_per_cycle`` bandwidth
and paid ``ceil(words / bandwidth)`` regardless of where the words came
from.  Real multi-chip fabrics are not all-to-all: a ring or a 2-D mesh
routes a chip-pair's traffic over *shared* links, and two flows crossing
the same link contend for its bandwidth (Accel-GCN's workload-aware
partitioning argument: the memory/communication hierarchy is part of the
cost model, not a constant).

A :class:`Topology` is a set of directed links plus one deterministic
route (a link sequence) per ordered chip pair:

* ``"all-to-all"`` — one dedicated ingress link per chip; every flow
  into chip ``d`` shares exactly that link.  With zero hop latency this
  reproduces the PR 4 scalar model bit-for-bit, which is why it is the
  default.
* ``"ring"`` — chips on a bidirectional ring (two directed links per
  adjacent pair); flows take the shortest direction, ties broken
  clockwise.  Boundary-diffusion neighbors are ring neighbors, so block
  migration stays single-hop.
* ``"mesh2d"`` — chips on the most-square ``rows x cols`` grid that
  factors the chip count (a prime count degenerates to a line), with
  deterministic XY routing: along the row first, then the column.

Pricing model (:meth:`Topology.comm_cycles`): every link first sums the
words of all flows routed through it (the contention term); a flow then
costs its *bottleneck* link's total load divided by the per-link
bandwidth, plus ``hop_latency_cycles`` per hop; a chip's communication
time is its slowest incoming flow.  Flows over disjoint links overlap
freely — the fabric is pipelined — but a congested link serializes
everything crossing it, which is exactly what makes a ring slower than
all-to-all at equal aggregate bandwidth.

Multi-tenant extension (PR 8): contention was originally summed only
across *one* job's halo flows.  ``comm_cycles(..., background=...)``
adds a per-link background load — traffic other concurrent jobs put on
the same physical links — before the bottleneck division.
``background=None`` takes exactly the single-job code path,
bit-identical to before.
:func:`subtopology` restricts a pool-wide fabric to one gang's chips
while *preserving pool link ids*, so the background loads of different
gangs live in one id space and sum meaningfully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.utils.validation import (
    check_choice,
    check_instance,
    check_non_negative_int,
    check_positive_finite,
    check_positive_int,
)

TOPOLOGY_KINDS = ("all-to-all", "ring", "mesh2d")


def _mesh_dims(n_chips):
    """The most-square ``(rows, cols)`` factorization of ``n_chips``."""
    rows = int(math.isqrt(n_chips))
    while rows > 1 and n_chips % rows:
        rows -= 1
    return rows, n_chips // rows


@dataclass(frozen=True)
class Topology:
    """A routed inter-chip fabric: links, routes and transfer pricing.

    Construct via :func:`make_topology` (which builds the link/route
    tables); the dataclass itself only validates and prices.

    Parameters
    ----------
    kind:
        One of :data:`TOPOLOGY_KINDS`.
    n_chips:
        Number of chips the fabric connects.
    link_words_per_cycle:
        Bandwidth of every *individual* directed link, in dense words
        per reference-chip cycle.
    hop_latency_cycles:
        Fixed per-hop latency added to every flow (router + SerDes
        transit), in reference-chip cycles.
    routes:
        ``routes[dst][src]`` is the tuple of link ids the ``src -> dst``
        flow traverses (empty for ``src == dst``).  Deterministic —
        routing never adapts to load.
    n_links:
        Total directed link count (the denominator of the
        equal-aggregate-bandwidth comparisons).
    """

    kind: str
    n_chips: int
    link_words_per_cycle: float
    hop_latency_cycles: int = 0
    routes: tuple = field(default=(), repr=False)
    n_links: int = 0

    def __post_init__(self):
        check_choice(self.kind, TOPOLOGY_KINDS, "topology kind")
        check_positive_int(self.n_chips, "n_chips")
        check_positive_finite(
            self.link_words_per_cycle, "link_words_per_cycle"
        )
        check_non_negative_int(self.hop_latency_cycles, "hop_latency_cycles")
        if len(self.routes) != self.n_chips:
            raise ConfigError(
                f"routes must cover all {self.n_chips} destination chips"
            )

    def hops(self, src, dst):
        """Link count of the ``src -> dst`` route (0 for ``src == dst``)."""
        return len(self.routes[dst][src])

    def link_loads(self, words):
        """Per-link word totals of a traffic matrix (the contention term).

        ``words[d, s]`` is how many words chip ``d`` receives from chip
        ``s``; each flow adds its words to every link on its route.
        """
        words = self._check_matrix(words)
        loads = np.zeros(max(self.n_links, 1), dtype=np.float64)
        for dst in range(self.n_chips):
            for src in range(self.n_chips):
                w = words[dst, src]
                if src == dst or w <= 0:
                    continue
                for link in self.routes[dst][src]:
                    loads[link] += w
        return loads

    def comm_cycles(self, words, *, background=None):
        """Per-chip ingress cycles for one traffic matrix.

        A flow's cost is ``ceil(bottleneck link load / link bandwidth)``
        plus the per-hop latency; a chip's communication time is its
        slowest incoming flow (flows on disjoint links overlap).  For
        ``all-to-all`` with zero hop latency this equals the PR 4 scalar
        model: every flow into ``d`` bottlenecks on the same ingress
        link, whose load is the chip's total halo volume.

        ``background`` is an optional per-link word array (length
        :attr:`n_links`) of traffic *other* jobs put on the same links;
        it is added to this matrix's own link loads before the
        bottleneck division, so a contended link slows every tenant
        crossing it.  None (the default) prices a fabric this job owns
        exclusively — the exact historical path.
        """
        words = self._check_matrix(words)
        loads = self.link_loads(words)
        if background is not None:
            loads = loads + self._check_background(background)
        out = np.zeros(self.n_chips, dtype=np.int64)
        for dst in range(self.n_chips):
            worst = 0
            for src in range(self.n_chips):
                if src == dst or words[dst, src] <= 0:
                    continue
                route = self.routes[dst][src]
                bottleneck = max(loads[link] for link in route)
                cost = int(math.ceil(bottleneck / self.link_words_per_cycle))
                cost += len(route) * self.hop_latency_cycles
                if cost > worst:
                    worst = cost
            out[dst] = worst
        return out

    def transfer_cycles(self, src, dst, words):
        """Cycles for one uncontended ``src -> dst`` transfer of ``words``.

        Used to price block-migration bursts: the rebalancer's transfers
        happen before steady-state execution, so they see an otherwise
        idle fabric — bandwidth term plus per-hop latency only.
        """
        if words <= 0:
            return 0
        cycles = int(math.ceil(words / self.link_words_per_cycle))
        return cycles + self.hops(src, dst) * self.hop_latency_cycles

    def _check_matrix(self, words):
        words = np.asarray(words, dtype=np.float64)
        if words.shape != (self.n_chips, self.n_chips):
            raise ConfigError(
                f"traffic matrix must be ({self.n_chips}, {self.n_chips}), "
                f"got {words.shape}"
            )
        return words

    def _check_background(self, background):
        try:
            background = np.asarray(background, dtype=np.float64)
        except (TypeError, ValueError):
            raise ConfigError(
                "background link loads must be numbers"
            ) from None
        expected = max(self.n_links, 1)
        if background.shape != (expected,):
            raise ConfigError(
                f"background link loads must have shape ({expected},) — one "
                f"entry per fabric link — got {background.shape}"
            )
        if not np.all(np.isfinite(background)) or np.any(background < 0):
            raise ConfigError(
                "background link loads must be finite and >= 0"
            )
        return background

    def __repr__(self):
        return (
            f"Topology({self.kind!r}, n_chips={self.n_chips}, "
            f"link={self.link_words_per_cycle}, "
            f"hop_latency={self.hop_latency_cycles})"
        )


def _all_to_all_routes(n_chips):
    """One dedicated ingress link per chip; link id == destination id."""
    routes = tuple(
        tuple((dst,) if src != dst else () for src in range(n_chips))
        for dst in range(n_chips)
    )
    return routes, n_chips


def _ring_routes(n_chips):
    """Bidirectional ring: clockwise links 0..n-1, counter n..2n-1.

    Clockwise link ``i`` carries ``i -> (i + 1) % n``; counter-clockwise
    link ``n + i`` carries ``i -> (i - 1) % n``.  Flows take the
    shortest direction, ties (even rings, antipodal pairs) clockwise.
    """
    if n_chips == 1:
        return tuple(((),),), 0
    if n_chips == 2:
        # A 2-ring's two directions are the same neighbor: one link each
        # way, no meaningful counter-rotation.
        return (((), (1,)), ((0,), ())), 2
    routes = []
    for dst in range(n_chips):
        per_src = []
        for src in range(n_chips):
            if src == dst:
                per_src.append(())
                continue
            forward = (dst - src) % n_chips
            if forward <= n_chips - forward:  # ties go clockwise
                per_src.append(tuple(
                    (src + step) % n_chips for step in range(forward)
                ))
            else:
                per_src.append(tuple(
                    n_chips + (src - step) % n_chips
                    for step in range(n_chips - forward)
                ))
        routes.append(tuple(per_src))
    return tuple(routes), 2 * n_chips


def _mesh2d_routes(n_chips):
    """Most-square 2-D mesh with deterministic XY routing (no wrap).

    Chip ``i`` sits at ``(i // cols, i % cols)``.  A flow first walks
    the source's row to the destination column, then the column to the
    destination row.  Links are numbered: horizontal east ``(r, c) ->
    (r, c + 1)`` then west, then vertical south ``(r, c) -> (r + 1, c)``
    then north.
    """
    rows, cols = _mesh_dims(n_chips)
    n_h = rows * (cols - 1)  # per direction
    n_v = (rows - 1) * cols

    def east(r, c):  # (r, c) -> (r, c + 1)
        return r * (cols - 1) + c

    def west(r, c):  # (r, c) -> (r, c - 1)
        return n_h + r * (cols - 1) + (c - 1)

    def south(r, c):  # (r, c) -> (r + 1, c)
        return 2 * n_h + r * cols + c

    def north(r, c):  # (r, c) -> (r - 1, c)
        return 2 * n_h + n_v + (r - 1) * cols + c

    routes = []
    for dst in range(n_chips):
        dr, dc = divmod(dst, cols)
        per_src = []
        for src in range(n_chips):
            sr, sc = divmod(src, cols)
            path = []
            r, c = sr, sc
            while c < dc:
                path.append(east(r, c))
                c += 1
            while c > dc:
                path.append(west(r, c))
                c -= 1
            while r < dr:
                path.append(south(r, c))
                r += 1
            while r > dr:
                path.append(north(r, c))
                r -= 1
            per_src.append(tuple(path))
        routes.append(tuple(per_src))
    return tuple(routes), 2 * (n_h + n_v)


_BUILDERS = {
    "all-to-all": _all_to_all_routes,
    "ring": _ring_routes,
    "mesh2d": _mesh2d_routes,
}


def subtopology(topology, chips):
    """Restrict a pool-wide fabric to one gang's chips.

    ``chips`` are distinct pool chip ids; local chip ``i`` of the
    restricted fabric is pool chip ``chips[i]``, and its routes are the
    pool routes between the selected chips verbatim.  Crucially the
    *link id space is preserved* (``n_links`` stays the pool's), so
    per-link loads computed by different gangs on the same pool — the
    ``background`` argument of :meth:`Topology.comm_cycles` — refer to
    the same physical links and can be summed.  On an all-to-all pool
    the restriction prices identically to a dedicated all-to-all fabric
    of the gang's size (each member keeps its private ingress link); on
    a ring or mesh the gang members keep their *pool* positions, so a
    scattered gang pays the pool's real multi-hop routes.
    """
    check_instance(topology, Topology, "topology")
    chips = [check_non_negative_int(c, "subtopology chip") for c in chips]
    if not chips:
        raise ConfigError("subtopology needs at least one chip")
    if len(set(chips)) != len(chips):
        raise ConfigError(f"subtopology chips must be distinct, got {chips}")
    for c in chips:
        if c >= topology.n_chips:
            raise ConfigError(
                f"chip {c} out of range for a {topology.n_chips}-chip fabric"
            )
    routes = tuple(
        tuple(topology.routes[dst][src] for src in chips) for dst in chips
    )
    return Topology(
        kind=topology.kind,
        n_chips=len(chips),
        link_words_per_cycle=topology.link_words_per_cycle,
        hop_latency_cycles=topology.hop_latency_cycles,
        routes=routes,
        n_links=topology.n_links,
    )


def make_topology(kind, n_chips, *, link_words_per_cycle=8.0,
                  hop_latency_cycles=0):
    """Build the :class:`Topology` of one fabric kind.

    ``link_words_per_cycle`` is the bandwidth of each *individual*
    directed link; richer topologies therefore carry more aggregate
    bandwidth at the same per-link figure.  To compare fabrics at equal
    aggregate bandwidth, divide a budget by each topology's
    :attr:`Topology.n_links` (what ``compare_shard_topology`` does).
    """
    check_choice(kind, TOPOLOGY_KINDS, "topology kind")
    n_chips = check_positive_int(n_chips, "n_chips")
    routes, n_links = _BUILDERS[kind](n_chips)
    return Topology(
        kind=kind,
        n_chips=n_chips,
        link_words_per_cycle=link_words_per_cycle,
        hop_latency_cycles=hop_latency_cycles,
        routes=routes,
        n_links=n_links,
    )
