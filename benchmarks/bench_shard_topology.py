"""Topology x rebalancing-signal sweep (``compare_shard_topology``).

Claims checked on an internally-clustered hub-heavy RMAT graph with
coarse migration blocks (nnz-balanced shards can still hide slow
intra-chip structure — the regime the static load signal cannot see):

(a) cycle-feedback rebalancing (migrate on measured per-chip cycles) is
    at least as good as load-signal rebalancing in every fabric, and
    strictly better in at least one cell;
(b) a ring is strictly slower than all-to-all at equal *aggregate*
    bandwidth, for every signal and overlap setting — contended
    multi-hop routes cost real cycles even when the total fabric
    bandwidth matches;
(c) double-buffered halo/compute overlap never loses to the serialized
    transfer model.
"""

from conftest import run_once, save_artifact

from repro.analysis import compare_shard_topology


def test_bench_shard_topology(benchmark, bench_seed):
    rows, text = run_once(
        benchmark, compare_shard_topology, seed=bench_seed
    )
    save_artifact("shard_topology", rows, text)

    by_cell = {
        (r["topology"], r["signal"], r["overlap"]): r["cycles"] for r in rows
    }
    topologies = ("all-to-all", "ring", "mesh2d")

    # (a) Measured-cycle feedback >= static load signal everywhere
    # (the feedback controller's round 0 is the load-signal plan and
    # the best map is restored, so it can only tie or win), and the
    # measurement finds what load balance cannot and wins strictly
    # somewhere.
    strict = False
    for topology in topologies:
        for overlap in (False, True):
            load = by_cell[(topology, "load", overlap)]
            feedback = by_cell[(topology, "cycles", overlap)]
            assert feedback <= load, (topology, overlap, text)
            strict = strict or feedback < load
    assert strict, text

    # (b) Ring strictly slower than all-to-all at equal aggregate
    # bandwidth, in every cell.
    for signal in ("load", "cycles"):
        for overlap in (False, True):
            ring = by_cell[("ring", signal, overlap)]
            a2a = by_cell[("all-to-all", signal, overlap)]
            assert ring > a2a, (signal, overlap, text)

    # (c) Overlap never loses to the serialized model.
    for topology in topologies:
        for signal in ("load", "cycles"):
            assert (
                by_cell[(topology, signal, True)]
                <= by_cell[(topology, signal, False)]
            ), (topology, signal, text)
