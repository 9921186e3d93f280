"""Command-line interface: regenerate any paper artifact from the shell.

Usage::

    python -m repro table1 [--preset scaled] [--datasets cora,nell]
    python -m repro table2
    python -m repro table3 [--pes 256]
    python -m repro fig-dist [--datasets cora,pubmed]
    python -m repro fig14 [--pes 256]
    python -m repro fig14-spmm
    python -m repro fig14-area
    python -m repro fig15 [--pe-counts 512,768,1024]
    python -m repro serve-bench [--requests 96] [--graphs 4]
    python -m repro serve-bench --arrival-rate 400 --slo-ms 5
    python -m repro bench-rebalance [--pe-counts 64,256,1024,4096]
    python -m repro shard-bench [--chips 1,2,4,8] [--nodes 8192]
    python -m repro shard-bench --topology ring --hetero --overlap --feedback
    python -m repro shard-topology [--chips 4] [--aggregate-bandwidth 64]
    python -m repro mixed-bench [--rates 600,900,1800] [--requests 120]
    python -m repro affinity-bench [--rates 2000,4000,8000] [--workers 4]
    python -m repro serve-bench --arrival-rate 400 --cache-mode affinity \
        --repeat-alpha 1.2
    python -m repro trace [--scenario mixed] [--trace-dir results]
    python -m repro summary           # dataset inventory

Each command prints the rendered table; ``--out DIR`` additionally
writes the rows as CSV.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import (
    fig14_overall,
    fig14_per_spmm,
    fig14_resources,
    fig15_scalability,
    fig_nnz_distribution,
    rows_to_csv,
    table1_profile,
    table2_ordering,
    table3_crossplatform,
)
from repro.datasets import dataset_names, load_dataset


def build_parser():
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AWB-GCN reproduction: regenerate the paper's artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, pes=False, pe_counts=False):
        p.add_argument("--preset", default="scaled",
                       choices=["tiny", "scaled", "full"],
                       help="dataset size preset (default: scaled)")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--datasets", default=None,
                       help="comma-separated subset (default: all five)")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="also write rows as CSV under DIR")
        if pes:
            p.add_argument("--pes", type=int, default=256,
                           help="PE count (default: 256)")
        if pe_counts:
            p.add_argument("--pe-counts", default="512,768,1024",
                           help="comma-separated PE counts")
        return p

    add_common(sub.add_parser("table1", help="matrix profiling"))
    add_common(sub.add_parser("table2", help="computation-order op counts"))
    add_common(sub.add_parser("table3", help="cross-platform comparison"),
               pes=True)
    add_common(sub.add_parser("fig-dist", help="row-nnz distributions"))
    add_common(sub.add_parser("fig14", help="overall delay & utilization"),
               pes=True)
    add_common(sub.add_parser("fig14-spmm", help="per-SPMM breakdown"),
               pes=True)
    add_common(sub.add_parser("fig14-area", help="CLB area breakdown"),
               pes=True)
    add_common(sub.add_parser("fig15", help="PE-count scalability"),
               pe_counts=True)
    add_common(sub.add_parser("summary", help="dataset inventory"))

    serve = sub.add_parser(
        "serve-bench",
        help=("multi-graph serving: cache throughput, or — with "
              "--arrival-rate — streaming latency/SLO attainment"),
    )
    serve.add_argument("--requests", type=int, default=96,
                       help="requests in the mix (default: 96)")
    serve.add_argument("--graphs", type=int, default=4,
                       help="unique RMAT graphs (default: 4)")
    serve.add_argument("--nodes", type=int, default=16384,
                       help="nodes per graph (default: 16384)")
    serve.add_argument("--pes", type=int, default=192,
                       help="PE count of the serving config (default: 192)")
    serve.add_argument("--workers", type=int, default=2,
                       help="simulated accelerator instances (default: 2)")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--arrival-rate", type=float, default=None,
                       metavar="REQ_PER_S",
                       help=("stream requests at this rate on the simulated "
                             "clock and report p50/p95/p99 latency instead "
                             "of throughput (default: offline batch mode)"))
    serve.add_argument("--slo-ms", type=float, default=None,
                       help="per-request end-to-end latency SLO in ms")
    serve.add_argument("--arrival", default=None,
                       choices=["poisson", "bursty"],
                       help="arrival process for --arrival-rate mode "
                            "(default: poisson)")
    serve.add_argument("--max-batch", type=int, default=None,
                       help="batch-size cap in streaming mode (default: 8)")
    serve.add_argument("--cache-mode", default="shared",
                       choices=["shared", "partitioned", "affinity"],
                       help="cache organization of the cached run: one "
                            "shared AutotuneCache (default), per-instance "
                            "shards with cache-blind dispatch, or shards "
                            "with cache-affinity routing + demand-driven "
                            "replication")
    serve.add_argument("--repeat-alpha", type=float, default=None,
                       help="override the mix's Zipf popularity exponent "
                            "(higher = hotter head = more fingerprint "
                            "reuse; default: the mix's zipf_skew of 1.1)")
    serve.add_argument("--out", default=None, metavar="DIR",
                       help="also write rows as CSV under DIR")

    rebalance = sub.add_parser(
        "bench-rebalance",
        help=("time the vectorized rebalancing core (EDF transport + "
              "batched Eq. 5 tuning) against the retired Python loops"),
    )
    rebalance.add_argument("--pe-counts", default="64,256,1024,4096",
                           help="comma-separated PE counts "
                                "(default: 64,256,1024,4096)")
    rebalance.add_argument("--rows-per-pe", type=int, default=16,
                           help="RMAT nodes per PE (default: 16)")
    rebalance.add_argument("--hop", type=int, default=2,
                           help="local-sharing hop distance (default: 2)")
    rebalance.add_argument("--rounds", type=int, default=64,
                           help="SPMM rounds for the tuning timing "
                                "(default: 64)")
    rebalance.add_argument("--repeats", type=int, default=5,
                           help="best-of repeats per timing (default: 5)")
    rebalance.add_argument("--seed", type=int, default=7)
    rebalance.add_argument("--out", default=None, metavar="DIR",
                           help="also write rows as CSV under DIR")

    shard = sub.add_parser(
        "shard-bench",
        help=("weak/strong scaling of sharded multi-chip execution: "
              "static row/nnz partitions vs chip-level runtime "
              "rebalancing on a hub-heavy RMAT graph"),
    )
    shard.add_argument("--chips", default="1,2,4,8",
                       help="comma-separated chip counts "
                            "(default: 1,2,4,8; 1 is always included)")
    shard.add_argument("--nodes", type=int, default=8192,
                       help="strong-scaling graph size (default: 8192)")
    shard.add_argument("--weak-nodes-per-chip", type=int, default=2048,
                       help="weak-scaling nodes per chip (default: 2048)")
    shard.add_argument("--pes-per-chip", type=int, default=128,
                       help="PE count of each chip (default: 128)")
    shard.add_argument("--link-words", type=float, default=16.0,
                       help="inter-chip link bandwidth in words/cycle "
                            "(default: 16.0)")
    shard.add_argument("--blocks-per-chip", type=int, default=8,
                       help="row-block migration granularity "
                            "(default: 8 blocks per chip)")
    shard.add_argument("--topology", default="all-to-all",
                       choices=["all-to-all", "ring", "mesh2d"],
                       help="inter-chip fabric (default: all-to-all)")
    shard.add_argument("--hop-latency", type=int, default=0,
                       help="per-hop fabric transit latency in cycles "
                            "(default: 0)")
    shard.add_argument("--hetero", action="store_true",
                       help="alternating big/little chips (full and "
                            "half --pes-per-chip)")
    shard.add_argument("--overlap", action="store_true",
                       help="double-buffer halo transfers behind compute")
    shard.add_argument("--feedback", action="store_true",
                       help="rebalance on measured per-chip cycles "
                            "instead of the static load signal")
    shard.add_argument("--row-ceiling", type=int, default=None,
                       metavar="ROWS",
                       help="hard per-chip row ceiling: no chip may own "
                            "more than ROWS rows, in planning or after "
                            "migration (default: unconstrained)")
    shard.add_argument("--straggler", action="append", default=None,
                       metavar="CHIP:ONSET:FACTOR",
                       help="inject a straggler: CHIP's compute slows by "
                            "FACTOR from feedback round ONSET on "
                            "(fractional onsets land mid-round); "
                            "repeatable")
    shard.add_argument("--seed", type=int, default=7)
    shard.add_argument("--out", default=None, metavar="DIR",
                       help="also write rows as CSV under DIR")

    topo = sub.add_parser(
        "shard-topology",
        help=("topology x rebalancing-signal sweep at equal aggregate "
              "bandwidth: all-to-all vs ring vs mesh2d, load-signal vs "
              "cycle-feedback, serialized vs overlapped halos"),
    )
    topo.add_argument("--chips", type=int, default=4,
                      help="cluster size (default: 4)")
    topo.add_argument("--nodes", type=int, default=8192,
                      help="graph size (default: 8192)")
    topo.add_argument("--pes-per-chip", type=int, default=128,
                      help="PE count of each chip (default: 128)")
    topo.add_argument("--aggregate-bandwidth", type=float, default=64.0,
                      help="total fabric bandwidth in words/cycle, split "
                           "evenly over each topology's links "
                           "(default: 64.0)")
    topo.add_argument("--hop-latency", type=int, default=8,
                      help="per-hop fabric transit latency in cycles "
                           "(default: 8)")
    topo.add_argument("--blocks-per-chip", type=int, default=4,
                      help="row-block migration granularity "
                           "(default: 4 blocks per chip)")
    topo.add_argument("--seed", type=int, default=7)
    topo.add_argument("--out", default=None, metavar="DIR",
                      help="also write rows as CSV under DIR")

    mixed = sub.add_parser(
        "mixed-bench",
        help=("multi-tenant co-scheduling sweep: identical mixed "
              "traces (critical smalls + SLO'd batches + sharded "
              "jobs) served with co-scheduling off vs on, per "
              "arrival rate"),
    )
    mixed.add_argument("--requests", type=int, default=120,
                       help="requests per trace (default: 120)")
    mixed.add_argument("--rates", default="600,900,1800",
                       help="comma-separated arrival rates in req/s "
                            "(default: 600,900,1800)")
    mixed.add_argument("--workers", type=int, default=4,
                       help="simulated accelerator instances "
                            "(default: 4)")
    mixed.add_argument("--chip-capacity", type=int, default=1024,
                       help="per-instance node capacity (default: 1024)")
    mixed.add_argument("--pes-per-chip", type=int, default=64,
                       help="PE count of each instance (default: 64)")
    mixed.add_argument("--critical-fraction", type=float, default=0.25,
                       help="share of deadline-critical small queries "
                            "(default: 0.25)")
    mixed.add_argument("--sharded-fraction", type=float, default=0.15,
                       help="share of oversized sharded jobs "
                            "(default: 0.15)")
    mixed.add_argument("--critical-slo-ms", type=float, default=1.0,
                       help="SLO of the critical class, also the "
                            "class-0 threshold (default: 1.0)")
    mixed.add_argument("--seed", type=int, default=7)
    mixed.add_argument("--out", default=None, metavar="DIR",
                       help="also write rows as CSV under DIR")

    affinity = sub.add_parser(
        "affinity-bench",
        help=("cache-affinity routing sweep: identical Zipf "
              "repeat-heavy streaming traces served on a partitioned "
              "pool with cache-blind vs warm-aware dispatch, per "
              "arrival rate"),
    )
    affinity.add_argument("--requests", type=int, default=96,
                          help="requests per trace (default: 96)")
    affinity.add_argument("--rates", default="2000,4000,8000",
                          help="comma-separated arrival rates in req/s "
                               "(default: 2000,4000,8000)")
    affinity.add_argument("--workers", type=int, default=4,
                          help="simulated accelerator instances "
                               "(default: 4)")
    affinity.add_argument("--families", type=int, default=12,
                          help="graph families in the Zipf pool "
                               "(default: 12)")
    affinity.add_argument("--repeat-alpha", type=float, default=1.2,
                          help="Zipf popularity exponent of the family "
                               "pool (default: 1.2)")
    affinity.add_argument("--nodes", type=int, default=4096,
                          help="nodes per graph (default: 4096)")
    affinity.add_argument("--pes", type=int, default=96,
                          help="PE count of the serving config "
                               "(default: 96)")
    affinity.add_argument("--cache-entries", type=int, default=None,
                          help="LRU bound of each per-worker cache "
                               "shard (default: unbounded)")
    affinity.add_argument("--replicate-threshold", type=float, default=3.0,
                          help="windowed demand at which a family's "
                               "entries replicate (default: 3.0)")
    affinity.add_argument("--replicate-k", type=int, default=2,
                          help="shards hot entries replicate to "
                               "(default: 2)")
    affinity.add_argument("--seed", type=int, default=7)
    affinity.add_argument("--out", default=None, metavar="DIR",
                          help="also write rows as CSV under DIR")

    trace = sub.add_parser(
        "trace",
        help=("replay a canned serving scenario under the recording "
              "tracer and export the span-level event stream as "
              "Chrome-trace / Perfetto JSON plus a per-round "
              "chip-utilization CSV"),
    )
    trace.add_argument("--scenario", default="mixed",
                       choices=["serve", "shard", "mixed"],
                       help="which canned scenario to replay: streaming "
                            "batch traffic, sharded jobs with a "
                            "backfill, or the co-scheduled multi-tenant "
                            "mix with a backfill and a preemption "
                            "(default: mixed)")
    trace.add_argument("--seed", type=int, default=None,
                       help="override the scenario's traffic seed "
                            "(default: the scenario's pinned seed; the "
                            "shard scenario has no traffic seed and "
                            "rejects one)")
    trace.add_argument("--trace-dir", default="results", metavar="DIR",
                       help="directory for the trace JSON and the "
                            "round-timeline CSV (default: results)")
    return parser


def _parse_pe_counts(raw):
    """Parse a comma-separated --pe-counts value into a tuple of ints."""
    return tuple(int(x) for x in raw.split(",") if x.strip())


def _parse_stragglers(specs, parser):
    """Parse repeated ``--straggler CHIP:ONSET:FACTOR`` values."""
    if not specs:
        return None
    events = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            parser.error(
                f"--straggler expects CHIP:ONSET:FACTOR, got {spec!r}"
            )
        try:
            events.append((int(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError:
            parser.error(
                f"--straggler expects CHIP:ONSET:FACTOR, got {spec!r}"
            )
    return tuple(events)


def _dataset_list(args):
    if args.datasets is None:
        return None
    names = [name.strip() for name in args.datasets.split(",") if name.strip()]
    return names or None


def _emit(args, name, rows, text):
    print(text)
    if args.out:
        path = rows_to_csv(rows, f"{args.out}/{name}.csv")
        print(f"\nrows written to {path}")
    return 0


def main(argv=None):
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "serve-bench":
        streaming_flags = [
            name for name, value in (
                ("--slo-ms", args.slo_ms),
                ("--arrival", args.arrival),
                ("--max-batch", args.max_batch),
            ) if value is not None
        ]
        if args.arrival_rate is None and streaming_flags:
            parser.error(
                f"{', '.join(streaming_flags)} require(s) --arrival-rate "
                "(streaming mode); without it serve-bench runs the "
                "offline throughput comparison"
            )
        if args.arrival_rate is not None:
            from repro.serve import compare_latency

            rows, text = compare_latency(
                n_requests=args.requests,
                n_graphs=args.graphs,
                n_nodes=args.nodes,
                n_pes=args.pes,
                n_workers=args.workers,
                seed=args.seed,
                arrival_rate=args.arrival_rate,
                slo_ms=args.slo_ms,
                arrival=args.arrival or "poisson",
                max_batch=args.max_batch if args.max_batch is not None else 8,
                cache_mode=args.cache_mode,
                repeat_alpha=args.repeat_alpha,
            )
            return _emit(args, "serve_latency", rows, text)
        from repro.serve import compare_caching

        rows, text = compare_caching(
            n_requests=args.requests,
            n_graphs=args.graphs,
            n_nodes=args.nodes,
            n_pes=args.pes,
            n_workers=args.workers,
            seed=args.seed,
            cache_mode=args.cache_mode,
            repeat_alpha=args.repeat_alpha,
        )
        return _emit(args, "serve_bench", rows, text)

    if args.command == "shard-bench":
        from repro.analysis import compare_shard_scaling

        rows, text = compare_shard_scaling(
            chip_counts=_parse_pe_counts(args.chips),
            n_nodes=args.nodes,
            weak_nodes_per_chip=args.weak_nodes_per_chip,
            pes_per_chip=args.pes_per_chip,
            link_words_per_cycle=args.link_words,
            blocks_per_chip=args.blocks_per_chip,
            topology=args.topology,
            hop_latency_cycles=args.hop_latency,
            hetero=args.hetero,
            overlap=args.overlap,
            feedback=args.feedback,
            row_ceiling=args.row_ceiling,
            stragglers=_parse_stragglers(args.straggler, parser),
            seed=args.seed,
        )
        return _emit(args, "shard_scaling", rows, text)

    if args.command == "shard-topology":
        from repro.analysis import compare_shard_topology

        rows, text = compare_shard_topology(
            n_chips=args.chips,
            n_nodes=args.nodes,
            pes_per_chip=args.pes_per_chip,
            aggregate_bandwidth=args.aggregate_bandwidth,
            hop_latency_cycles=args.hop_latency,
            blocks_per_chip=args.blocks_per_chip,
            seed=args.seed,
        )
        return _emit(args, "shard_topology", rows, text)

    if args.command == "mixed-bench":
        from repro.analysis import compare_mixed_load

        rows, text = compare_mixed_load(
            n_requests=args.requests,
            rates=tuple(
                float(x) for x in args.rates.split(",") if x.strip()
            ),
            n_workers=args.workers,
            chip_capacity=args.chip_capacity,
            pes_per_chip=args.pes_per_chip,
            critical_fraction=args.critical_fraction,
            sharded_fraction=args.sharded_fraction,
            critical_slo_ms=args.critical_slo_ms,
            seed=args.seed,
        )
        return _emit(args, "mixed_load", rows, text)

    if args.command == "affinity-bench":
        from repro.analysis import compare_cache_affinity

        rows, text = compare_cache_affinity(
            n_requests=args.requests,
            rates=tuple(
                float(x) for x in args.rates.split(",") if x.strip()
            ),
            n_workers=args.workers,
            family_size=args.families,
            repeat_alpha=args.repeat_alpha,
            n_nodes=args.nodes,
            n_pes=args.pes,
            worker_cache_entries=args.cache_entries,
            replicate_threshold=args.replicate_threshold,
            replicate_k=args.replicate_k,
            seed=args.seed,
        )
        return _emit(args, "cache_affinity", rows, text)

    if args.command == "trace":
        from repro.analysis.tracescenarios import (
            run_trace_scenario,
            trace_summary,
        )
        from repro.obs import (
            chrome_trace,
            round_timeline_rows,
            validate_chrome_trace,
            write_chrome_trace,
        )

        outcome, tracer = run_trace_scenario(args.scenario, seed=args.seed)
        print(trace_summary(args.scenario, outcome, tracer))
        doc = chrome_trace(tracer.events, wall_events=tracer.wall_events)
        errors = validate_chrome_trace(doc)
        if errors:
            for error in errors:
                print(f"trace validation: {error}", file=sys.stderr)
            return 1
        path = write_chrome_trace(
            f"{args.trace_dir}/trace_{args.scenario}.json",
            tracer.events, wall_events=tracer.wall_events,
        )
        print(f"\nChrome trace written to {path} "
              "(valid; open in Perfetto or chrome://tracing)")
        timeline = round_timeline_rows(tracer.events)
        if timeline:
            csv_path = rows_to_csv(
                timeline, f"{args.trace_dir}/trace_{args.scenario}_rounds.csv"
            )
            print(f"round timeline written to {csv_path}")
        return 0

    if args.command == "bench-rebalance":
        from repro.analysis import compare_rebalance

        rows, text = compare_rebalance(
            pe_counts=_parse_pe_counts(args.pe_counts),
            rows_per_pe=args.rows_per_pe,
            hop=args.hop,
            n_rounds=args.rounds,
            repeats=args.repeats,
            seed=args.seed,
        )
        return _emit(args, "bench_rebalance", rows, text)

    datasets = _dataset_list(args)
    common = {"preset": args.preset, "seed": args.seed, "datasets": datasets}

    if args.command == "table1":
        rows, text = table1_profile(**common)
        return _emit(args, "table1", rows, text)
    if args.command == "table2":
        rows, text = table2_ordering(**common)
        return _emit(args, "table2", rows, text)
    if args.command == "table3":
        rows, text = table3_crossplatform(n_pes=args.pes, **common)
        return _emit(args, "table3", rows, text)
    if args.command == "fig-dist":
        rows, text = fig_nnz_distribution(**common)
        return _emit(args, "fig_dist", rows, text)
    if args.command == "fig14":
        rows, text = fig14_overall(n_pes=args.pes, **common)
        return _emit(args, "fig14_overall", rows, text)
    if args.command == "fig14-spmm":
        rows, text = fig14_per_spmm(n_pes=args.pes, **common)
        return _emit(args, "fig14_per_spmm", rows, text)
    if args.command == "fig14-area":
        rows, text = fig14_resources(n_pes=args.pes, **common)
        return _emit(args, "fig14_resources", rows, text)
    if args.command == "fig15":
        rows, text = fig15_scalability(
            pe_counts=_parse_pe_counts(args.pe_counts), **common
        )
        return _emit(args, "fig15", rows, text)
    if args.command == "summary":
        names = datasets or dataset_names()
        for name in names:
            ds = load_dataset(name, args.preset, seed=args.seed)
            print(ds.summary())
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
