"""Weak/strong scaling of sharded multi-chip execution (``shard-bench``).

The Fig. 15 experiment one level up the hierarchy: instead of sweeping
PEs inside one chip, sweep *chips* over a power-law RMAT graph and
compare three partitioning regimes per chip count:

* ``rows``          — static contiguous equal-row shards (the chip-level
  analogue of the paper's baseline partition);
* ``nnz``           — greedy nnz-balanced shards (degree-profiled,
  GNNIE-style);
* ``rows+rebal``    — start from the naive ``rows`` partition and let
  the chip-level Eq. 5 controller migrate row blocks at runtime.

**Strong scaling** holds the graph fixed and grows the cluster: speedup
over one chip, per regime. **Weak scaling** grows the graph with the
cluster (fixed nodes per chip): efficiency = 1-chip cycles / k-chip
cycles (1.0 = perfect). On imbalanced graphs the runtime rebalancer
recovers most of the gap between the naive and the profiled static
partition without needing the nnz profile up front — the claim the
bench suite asserts and ``results/shard_scaling.{csv,txt}`` records.
"""

from __future__ import annotations

from repro.accel.config import ArchConfig
from repro.analysis.report import ascii_table
from repro.cluster.multichip import ClusterConfig, simulate_multichip_gcn
from repro.cluster.topology import TOPOLOGY_KINDS, make_topology
from repro.errors import ConfigError
from repro.serve.traffic import RmatGraphSpec

# A deliberately hub-heavy RMAT profile (between the paper's Nell and
# Pubmed skews): chip-level imbalance is the regime the rebalancer
# exists for.
DEFAULT_ABCD = (0.62, 0.16, 0.16, 0.06)

REGIMES = (
    ("rows", "rows", False),
    ("nnz", "nnz", False),
    ("rows+rebal", "rows", True),
)


def _graph(n_nodes, avg_degree, seed, f1, f2, f3):
    """A fixed-seed hub-heavy serving graph for the scaling sweep."""
    return RmatGraphSpec(
        n_nodes=n_nodes, avg_degree=avg_degree, f1=f1, f2=f2, f3=f3,
        seed=seed, abcd=DEFAULT_ABCD,
    ).build()


def _hetero_chips(n_chips, pes_per_chip):
    """An alternating big/little chip mix (full and half PE counts)."""
    if n_chips == 1:
        return None
    return tuple(
        ArchConfig(
            n_pes=pes_per_chip if i % 2 == 0 else max(pes_per_chip // 2, 1),
            hop=1, remote_switching=True,
        )
        for i in range(n_chips)
    )


def _sweep_cell(dataset, chip, n_chips, strategy, rebalance,
                link_words_per_cycle, blocks_per_chip, *,
                topology="all-to-all", hop_latency_cycles=0,
                overlap=False, rebalance_signal="load", chips=None,
                row_ceilings=None, stragglers=None):
    """One (graph, cluster, regime) cell of the sweep."""
    cluster = ClusterConfig(
        n_chips=n_chips,
        chip=chip,
        chips=chips,
        strategy=strategy,
        rebalance=rebalance,
        rebalance_signal=rebalance_signal,
        link_words_per_cycle=link_words_per_cycle,
        blocks_per_chip=blocks_per_chip,
        topology=topology,
        hop_latency_cycles=hop_latency_cycles,
        overlap=overlap,
        row_ceilings=row_ceilings,
        stragglers=stragglers,
    )
    return simulate_multichip_gcn(dataset, cluster)


def _cell_ceilings(row_ceiling, n_chips, n_nodes):
    """A uniform per-chip ceiling tuple when the cell can honor it.

    A sweep spans chip counts; at small counts a per-chip ceiling may
    not cover the graph at all (``ceiling * chips < nodes``) — those
    cells run unconstrained rather than failing the whole sweep, which
    keeps the 1-chip baselines meaningful.
    """
    if row_ceiling is None or row_ceiling * n_chips < n_nodes:
        return None
    return (int(row_ceiling),) * n_chips


def _cell_stragglers(stragglers, n_chips):
    """Straggler events whose chip exists at this cell's chip count."""
    if not stragglers:
        return None
    kept = tuple(
        ev for ev in stragglers
        if (ev.chip if hasattr(ev, "chip") else int(ev[0])) < n_chips
    )
    return kept or None


def compare_shard_scaling(*, chip_counts=(1, 2, 4, 8), n_nodes=8192,
                          weak_nodes_per_chip=2048, avg_degree=12,
                          pes_per_chip=128, link_words_per_cycle=16.0,
                          blocks_per_chip=8, f1=64, f2=32, f3=8, seed=7,
                          topology="all-to-all", hop_latency_cycles=0,
                          overlap=False, hetero=False, feedback=False,
                          row_ceiling=None, stragglers=None):
    """Run the weak+strong scaling sweep; returns ``(rows, text)``.

    Strong scaling shards the fixed ``n_nodes`` graph across each chip
    count; weak scaling grows the graph to
    ``weak_nodes_per_chip x chips`` (keeping per-chip occupancy high
    enough that the intra-chip mechanisms stay in their intended
    regime). Every cell reports total cycles, communication fraction,
    compute imbalance and migrated blocks; strong rows carry speedup
    over the same regime's 1-chip run, weak rows the parallel
    efficiency.

    The cluster-model knobs thread straight through: ``topology`` /
    ``hop_latency_cycles`` pick the fabric, ``overlap`` double-buffers
    halos, ``hetero`` runs an alternating big/little chip mix (full and
    half ``pes_per_chip``; the single-chip baseline stays one full
    chip), and ``feedback`` switches the ``rows+rebal`` regime to
    cycle-feedback rebalancing (measured per-chip cycles as the
    migration signal).

    ``row_ceiling`` is a uniform hard per-chip row budget: cells whose
    chip count can cover the graph under it
    (``ceiling * chips >= nodes``) partition and rebalance under hard
    ceilings; smaller cells run unconstrained (see
    :func:`_cell_ceilings`). ``stragglers`` is a sequence of
    ``(chip, onset_round, factor)`` slowdown events (or
    :class:`~repro.cluster.StragglerEvent`); events naming a chip a
    cell does not have are dropped for that cell.
    """
    chip_counts = tuple(int(c) for c in chip_counts)
    if not chip_counts or min(chip_counts) < 1:
        raise ConfigError(f"chip_counts must be positive, got {chip_counts}")
    if 1 not in chip_counts:
        chip_counts = (1,) + chip_counts
    chip_counts = tuple(sorted(set(chip_counts)))
    chip = ArchConfig(n_pes=pes_per_chip, hop=1, remote_switching=True)
    nodes_per_chip = max(int(weak_nodes_per_chip), max(chip_counts))

    def cell(dataset, n_chips, strategy, rebalance):
        return _sweep_cell(
            dataset, chip, n_chips, strategy, rebalance,
            link_words_per_cycle, blocks_per_chip,
            topology=topology, hop_latency_cycles=hop_latency_cycles,
            overlap=overlap,
            rebalance_signal="cycles" if feedback and rebalance else "load",
            chips=_hetero_chips(n_chips, pes_per_chip) if hetero else None,
            row_ceilings=_cell_ceilings(
                row_ceiling, n_chips, dataset.n_nodes
            ),
            stragglers=_cell_stragglers(stragglers, n_chips),
        )

    rows = []
    strong_graph = _graph(n_nodes, avg_degree, seed, f1, f2, f3)
    baselines = {}
    for regime, strategy, rebalance in REGIMES:
        for n_chips in chip_counts:
            report = cell(strong_graph, n_chips, strategy, rebalance)
            baselines.setdefault(regime, report.total_cycles)
            rows.append({
                "mode": "strong",
                "regime": regime,
                "chips": n_chips,
                "nodes": n_nodes,
                "cycles": report.total_cycles,
                "speedup": round(
                    baselines[regime] / report.total_cycles, 3
                ),
                "efficiency": round(
                    baselines[regime]
                    / (report.total_cycles * n_chips), 3
                ),
                "comm_frac": round(report.comm_fraction, 4),
                "imbalance": round(report.compute_imbalance, 3),
                "migrated_blocks": report.rebalance.migrated_blocks,
                "utilization": round(report.utilization, 4),
            })

    weak_graphs = {
        n_chips: _graph(
            nodes_per_chip * n_chips, avg_degree, seed, f1, f2, f3
        )
        for n_chips in chip_counts
    }
    weak_base = {}
    for regime, strategy, rebalance in REGIMES:
        for n_chips in chip_counts:
            dataset = weak_graphs[n_chips]
            report = cell(dataset, n_chips, strategy, rebalance)
            weak_base.setdefault(regime, report.total_cycles)
            rows.append({
                "mode": "weak",
                "regime": regime,
                "chips": n_chips,
                "nodes": nodes_per_chip * n_chips,
                "cycles": report.total_cycles,
                "speedup": round(
                    weak_base[regime] * n_chips / report.total_cycles, 3
                ),
                "efficiency": round(
                    weak_base[regime] / report.total_cycles, 3
                ),
                "comm_frac": round(report.comm_fraction, 4),
                "imbalance": round(report.compute_imbalance, 3),
                "migrated_blocks": report.rebalance.migrated_blocks,
                "utilization": round(report.utilization, 4),
            })

    flavor = []
    if topology != "all-to-all":
        flavor.append(topology)
    if hetero:
        flavor.append("big/little chips")
    if overlap:
        flavor.append("overlap")
    if feedback:
        flavor.append("cycle feedback")
    if row_ceiling is not None:
        flavor.append(f"row ceiling {int(row_ceiling)}")
    if stragglers:
        flavor.append(f"{len(tuple(stragglers))} straggler(s)")
    table = ascii_table(
        ["mode", "regime", "chips", "nodes", "cycles", "speedup",
         "efficiency", "comm frac", "imbalance", "migrated", "util"],
        [[r["mode"], r["regime"], r["chips"], r["nodes"], r["cycles"],
          r["speedup"], r["efficiency"], r["comm_frac"], r["imbalance"],
          r["migrated_blocks"], r["utilization"]] for r in rows],
        title=(
            f"Sharded scaling: hub-heavy RMAT, {pes_per_chip} PEs/chip, "
            f"link {link_words_per_cycle} words/cycle, "
            f"{blocks_per_chip} blocks/chip (seed {seed})"
            + (f" [{', '.join(flavor)}]" if flavor else "")
        ),
    )
    text = table + "\n" + _verdict(rows)
    return rows, text


def _verdict(rows):
    """One-line summary comparing rebalanced vs naive-static sharding."""
    gains = []
    for row in rows:
        if row["regime"] != "rows+rebal" or row["chips"] == 1:
            continue
        static = next(
            r for r in rows
            if r["mode"] == row["mode"] and r["regime"] == "rows"
            and r["chips"] == row["chips"]
        )
        gains.append(static["cycles"] / row["cycles"])
    if not gains:
        return "single-chip sweep: no rebalancing comparison"
    return (
        "chip-level rebalancing vs static rows partition: "
        f"{min(gains):.2f}x-{max(gains):.2f}x fewer cycles across "
        f"multi-chip points (geo-mean "
        f"{(_prod(gains)) ** (1.0 / len(gains)):.2f}x)"
    )


def _prod(values):
    out = 1.0
    for v in values:
        out *= v
    return out


def compare_shard_topology(*, n_chips=4, n_nodes=8192, avg_degree=12,
                           pes_per_chip=128, aggregate_bandwidth=64.0,
                           hop_latency_cycles=8, blocks_per_chip=4,
                           f1=64, f2=32, f3=8, seed=7):
    """Topology x migration-signal sweep at equal aggregate bandwidth.

    Runs one internally-clustered hub-heavy RMAT graph (coarse
    ``blocks_per_chip`` so nnz-balanced shards can still hide slow
    intra-chip structure — the regime the static load signal cannot
    see) through every fabric kind and both rebalancing signals, with
    and without halo/compute overlap; returns ``(rows, text)``.

    Fairness: every fabric gets the same ``aggregate_bandwidth`` (words
    per cycle summed over its directed links), so a ring's per-link
    bandwidth is ``aggregate / (2 x chips)`` against the all-to-all's
    ``aggregate / chips`` — richer fabrics pay for their link count.
    The verdict lines record the two claims the benchmark asserts:
    cycle-feedback rebalancing is at least as good as the load signal
    on this graph, and the ring is strictly slower than all-to-all at
    equal aggregate bandwidth.
    """
    if aggregate_bandwidth <= 0:
        raise ConfigError(
            f"aggregate_bandwidth must be > 0, got {aggregate_bandwidth}"
        )
    if n_chips < 2:
        raise ConfigError(
            "the topology comparison needs at least 2 chips (a 1-chip "
            f"ring or mesh has no links), got {n_chips}"
        )
    chip = ArchConfig(n_pes=pes_per_chip, hop=1, remote_switching=True)
    dataset = _graph(n_nodes, avg_degree, seed, f1, f2, f3)

    rows = []
    for kind in TOPOLOGY_KINDS:
        n_links = make_topology(kind, n_chips).n_links
        link = aggregate_bandwidth / n_links
        fabric = make_topology(
            kind, n_chips, link_words_per_cycle=link,
            hop_latency_cycles=hop_latency_cycles,
        )
        for signal in ("load", "cycles"):
            for overlap in (False, True):
                cluster = ClusterConfig(
                    n_chips=n_chips, chip=chip, strategy="rows",
                    blocks_per_chip=blocks_per_chip,
                    rebalance_signal=signal,
                    link_words_per_cycle=link, topology=fabric,
                    overlap=overlap,
                )
                report = simulate_multichip_gcn(dataset, cluster)
                rows.append({
                    "topology": kind,
                    "signal": signal,
                    "overlap": overlap,
                    "link_words": round(link, 3),
                    "cycles": report.total_cycles,
                    "comm_frac": round(report.comm_fraction, 4),
                    "imbalance": round(report.compute_imbalance, 3),
                    "migrated_blocks": report.rebalance.migrated_blocks,
                    "utilization": round(report.utilization, 4),
                })

    table = ascii_table(
        ["topology", "signal", "overlap", "link w/cyc", "cycles",
         "comm frac", "imbalance", "migrated", "util"],
        [[r["topology"], r["signal"], "on" if r["overlap"] else "off",
          r["link_words"], r["cycles"], r["comm_frac"], r["imbalance"],
          r["migrated_blocks"], r["utilization"]] for r in rows],
        title=(
            f"Topology/signal sweep: {n_chips} chips, hub-heavy RMAT "
            f"{n_nodes} nodes, aggregate {aggregate_bandwidth} "
            f"words/cycle, hop latency {hop_latency_cycles} "
            f"(seed {seed})"
        ),
    )
    text = table + "\n" + "\n".join(_topology_verdicts(rows))
    return rows, text


def _topology_verdicts(rows):
    """The claim lines under the topology table."""
    by_cell = {
        (r["topology"], r["signal"], r["overlap"]): r["cycles"] for r in rows
    }
    verdicts = []
    fb_gains = [
        by_cell[(t, "load", ov)] / by_cell[(t, "cycles", ov)]
        for t in TOPOLOGY_KINDS for ov in (False, True)
    ]
    verdicts.append(
        "cycle-feedback vs load-signal rebalancing: "
        f"{min(fb_gains):.2f}x-{max(fb_gains):.2f}x fewer cycles "
        "(measured imbalance sees what block loads cannot)"
    )
    ring_costs = [
        by_cell[("ring", s, ov)] / by_cell[("all-to-all", s, ov)]
        for s in ("load", "cycles") for ov in (False, True)
    ]
    verdicts.append(
        "ring vs all-to-all at equal aggregate bandwidth: "
        f"{min(ring_costs):.2f}x-{max(ring_costs):.2f}x more cycles "
        "(contended multi-hop routes)"
    )
    overlap_gains = [
        by_cell[(t, s, False)] / by_cell[(t, s, True)]
        for t in TOPOLOGY_KINDS for s in ("load", "cycles")
    ]
    verdicts.append(
        "halo/compute overlap vs serialized transfer: "
        f"{min(overlap_gains):.2f}x-{max(overlap_gains):.2f}x fewer "
        "cycles (double-buffered halos hide behind compute)"
    )
    return verdicts
