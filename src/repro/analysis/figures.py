"""Figure regeneration: Figs. 1/13 (distributions), 14 (A-O), 15.

Figures are reproduced as data series plus ASCII renderings. Each
function returns ``(rows, text)`` like the table builders, so the bench
suite prints the series the paper plots and asserts their shape.
"""

from __future__ import annotations

from repro.accel.config import ArchConfig
from repro.accel.designs import (
    DESIGN_LABELS,
    DESIGN_NAMES,
    run_design_suite,
)
from repro.accel.gcnaccel import GcnAccelerator
from repro.accel.resources import estimate_resources, report_tq_depth
from repro.analysis.report import ascii_table, format_quantity
from repro.datasets.registry import load_dataset
from repro.datasets.specs import dataset_names
from repro.sparse.stats import distribution_stats, row_nnz_histogram


def fig_nnz_distribution(*, preset="scaled", seed=7, datasets=None,
                         n_bins=12):
    """Figs. 1 & 13: per-row non-zero distribution of the adjacency.

    Returns histogram rows (dataset, bin range, row count) and summary
    skew statistics. The paper plots Cora/Pubmed in Fig. 1 and
    Citeseer/Nell/Reddit in Fig. 13; this builder covers any subset.
    """
    if datasets is None:
        datasets = dataset_names()
    rows = []
    lines = []
    for name in datasets:
        ds = load_dataset(name, preset, seed=seed)
        counts = ds.adjacency.row_nnz()
        stats = distribution_stats(counts)
        edges, hist = row_nnz_histogram(counts, n_bins=n_bins)
        lines.append(f"{name}: {stats.describe()}")
        peak = hist.max() if hist.size else 1
        for lo, hi, count in zip(edges[:-1], edges[1:], hist):
            rows.append(
                {
                    "dataset": name,
                    "nnz_lo": int(lo),
                    "nnz_hi": int(hi),
                    "rows": int(count),
                }
            )
            bar = "#" * int(round(40 * count / peak)) if peak else ""
            lines.append(f"  [{int(lo):>6}, {int(hi):>6}) {count:>8} {bar}")
    return rows, "\n".join(lines)


def fig14_overall(*, preset="scaled", seed=7, n_pes=256, datasets=None,
                  designs=None):
    """Fig. 14 A-E: overall inference delay and PE utilization.

    One row per (dataset, design): total cycles, per-layer cycle split,
    utilization, latency and speedup over the baseline.
    """
    if datasets is None:
        datasets = dataset_names()
    if designs is None:
        designs = DESIGN_NAMES
    base = ArchConfig(n_pes=n_pes)
    rows = []
    for name in datasets:
        ds = load_dataset(name, preset, seed=seed)
        reports = run_design_suite(ds, base=base, designs=designs)
        base_cycles = reports[designs[0]].total_cycles
        for design in designs:
            report = reports[design]
            per_layer = report.per_layer_cycles()
            rows.append(
                {
                    "dataset": name,
                    "design": design,
                    "total_cycles": report.total_cycles,
                    "layer1_cycles": per_layer[0],
                    "layer2_cycles": per_layer[1],
                    "utilization": report.utilization,
                    "latency_ms": report.latency_ms,
                    "speedup_vs_baseline": base_cycles / report.total_cycles,
                }
            )
    text = ascii_table(
        [
            "dataset", "design", "cycles", "L1 cycles", "L2 cycles",
            "util", "latency ms", "speedup",
        ],
        [
            [
                r["dataset"],
                DESIGN_LABELS.get(r["design"], r["design"]),
                format_quantity(r["total_cycles"]),
                format_quantity(r["layer1_cycles"]),
                format_quantity(r["layer2_cycles"]),
                f"{r['utilization']:.1%}",
                f"{r['latency_ms']:.4g}",
                f"{r['speedup_vs_baseline']:.2f}x",
            ]
            for r in rows
        ],
        title=(
            f"Fig. 14 A-E — overall delay & PE utilization "
            f"({preset} presets, {n_pes} PEs)"
        ),
    )
    return rows, text


def fig14_per_spmm(*, preset="scaled", seed=7, n_pes=256, datasets=None,
                   designs=None):
    """Fig. 14 F-J: per-SPMM cycle breakdown (ideal vs sync) and util."""
    if datasets is None:
        datasets = dataset_names()
    if designs is None:
        designs = DESIGN_NAMES
    base = ArchConfig(n_pes=n_pes)
    rows = []
    for name in datasets:
        ds = load_dataset(name, preset, seed=seed)
        reports = run_design_suite(ds, base=base, designs=designs)
        for design in designs:
            for result in reports[design].spmm_results:
                rows.append(
                    {
                        "dataset": name,
                        "design": design,
                        "spmm": result.job_name,
                        "ideal_cycles": result.ideal_total_cycles,
                        "sync_cycles": result.sync_cycles,
                        "total_cycles": result.total_cycles,
                        "utilization": result.utilization,
                        "converged_round": result.converged_round,
                    }
                )
    text = ascii_table(
        ["dataset", "design", "SPMM", "ideal", "sync", "total", "util"],
        [
            [
                r["dataset"],
                r["design"],
                r["spmm"],
                format_quantity(r["ideal_cycles"]),
                format_quantity(r["sync_cycles"]),
                format_quantity(r["total_cycles"]),
                f"{r['utilization']:.1%}",
            ]
            for r in rows
        ],
        title=(
            f"Fig. 14 F-J — per-SPMM cycles: ideal vs sync "
            f"({preset} presets, {n_pes} PEs)"
        ),
    )
    return rows, text


def fig14_resources(*, preset="scaled", seed=7, n_pes=256, datasets=None,
                    designs=None):
    """Fig. 14 K-O: CLB area split into TQ vs other, per design."""
    if datasets is None:
        datasets = dataset_names()
    if designs is None:
        designs = DESIGN_NAMES
    base = ArchConfig(n_pes=n_pes)
    rows = []
    for name in datasets:
        ds = load_dataset(name, preset, seed=seed)
        reports = run_design_suite(ds, base=base, designs=designs)
        for design in designs:
            report = reports[design]
            depth = report_tq_depth(report)
            resources = estimate_resources(report.config, tq_depth=depth)
            rows.append(
                {
                    "dataset": name,
                    "design": design,
                    "tq_depth": depth,
                    "tq_clb": resources.tq_clb,
                    "other_clb": resources.other_clb,
                    "total_clb": resources.total_clb,
                    "tq_fraction": resources.tq_fraction,
                }
            )
    text = ascii_table(
        ["dataset", "design", "TQ depth", "TQ CLB", "other CLB", "total CLB"],
        [
            [
                r["dataset"],
                r["design"],
                r["tq_depth"],
                format_quantity(r["tq_clb"]),
                format_quantity(r["other_clb"]),
                format_quantity(r["total_clb"]),
            ]
            for r in rows
        ],
        title=(
            f"Fig. 14 K-O — CLB consumption, TQ vs other "
            f"({preset} presets, {n_pes} PEs)"
        ),
    )
    return rows, text


def fig15_scalability(*, preset="scaled", seed=7, datasets=None,
                      pe_counts=(512, 768, 1024)):
    """Fig. 15: utilization / performance / area vs PE count.

    Three designs per the paper: baseline, local sharing only (1-hop;
    3-hop for Nell), and local + remote. Performance is reported as
    throughput relative to the 512-PE baseline.
    """
    if datasets is None:
        datasets = dataset_names()
    variants = ["baseline", "local", "local+remote"]
    rows = []
    for name in datasets:
        ds = load_dataset(name, preset, seed=seed)
        hop = 3 if name == "nell" else 1
        reference_cycles = None
        for n_pes in pe_counts:
            base = ArchConfig(n_pes=n_pes)
            configs = {
                "baseline": base.with_updates(hop=0, remote_switching=False),
                "local": base.with_updates(hop=hop, remote_switching=False),
                "local+remote": base.with_updates(
                    hop=hop, remote_switching=True
                ),
            }
            for variant in variants:
                report = GcnAccelerator(ds, configs[variant]).run()
                depth = report_tq_depth(report)
                resources = estimate_resources(
                    configs[variant], tq_depth=depth
                )
                if reference_cycles is None:
                    reference_cycles = report.total_cycles
                rows.append(
                    {
                        "dataset": name,
                        "variant": variant,
                        "n_pes": n_pes,
                        "total_cycles": report.total_cycles,
                        "utilization": report.utilization,
                        "relative_perf": reference_cycles
                        / report.total_cycles,
                        "total_clb": resources.total_clb,
                    }
                )
    text = ascii_table(
        ["dataset", "variant", "PEs", "cycles", "util", "rel perf", "CLB"],
        [
            [
                r["dataset"],
                r["variant"],
                r["n_pes"],
                format_quantity(r["total_cycles"]),
                f"{r['utilization']:.1%}",
                f"{r['relative_perf']:.2f}x",
                format_quantity(r["total_clb"]),
            ]
            for r in rows
        ],
        title=f"Fig. 15 — scalability over PE count ({preset} presets)",
    )
    return rows, text
