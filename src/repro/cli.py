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
    python -m repro trace [--scenario mixed] [--trace-dir results]
    python -m repro summary           # dataset inventory

Each paper command prints the rendered table; ``--out DIR``
additionally writes the rows as CSV. ``trace`` exports a canned
serving scenario's event stream. The extension sweeps (serving,
sharding, co-scheduling, cache affinity) regenerate from their
``benchmarks/bench_*.py`` files, not from this CLI.
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
