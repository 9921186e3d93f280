"""Experiment harness: regenerates every table and figure of the paper.

Each public function returns plain data (lists of dict rows) plus an
ASCII rendering, so the benchmark suite can both print the artifact and
assert the paper's qualitative claims about it. See DESIGN.md for the
experiment-to-module index.
"""

from repro.analysis.report import ascii_table, format_quantity
from repro.analysis.profile import table1_profile
from repro.analysis.opcount import table2_ordering
from repro.analysis.crossplatform import table3_crossplatform
from repro.analysis.figures import (
    fig_nnz_distribution,
    fig14_overall,
    fig14_per_spmm,
    fig14_resources,
    fig15_scalability,
)
from repro.analysis.export import rows_to_csv, rows_to_json
from repro.analysis.rebalance import compare_rebalance, rmat_pe_loads
from repro.analysis.shardscale import (
    compare_shard_scaling,
    compare_shard_topology,
)
from repro.analysis.affinity import compare_cache_affinity
from repro.analysis.mixedload import compare_mixed_load
from repro.analysis.tracescenarios import (
    TRACE_SCENARIOS,
    run_trace_scenario,
    trace_scenario,
    trace_summary,
)
from repro.analysis.straggler import compare_straggler
from repro.analysis.heatmap import (
    heat_strip,
    rebalancing_heat_story,
    render_heat_story,
)
from repro.analysis.toy import (
    fig9_local_loads,
    fig9_remote_loads,
    toy_round_cycles,
)

__all__ = [
    "ascii_table",
    "format_quantity",
    "table1_profile",
    "table2_ordering",
    "table3_crossplatform",
    "fig_nnz_distribution",
    "fig14_overall",
    "fig14_per_spmm",
    "fig14_resources",
    "fig15_scalability",
    "rows_to_csv",
    "rows_to_json",
    "compare_rebalance",
    "compare_cache_affinity",
    "compare_mixed_load",
    "TRACE_SCENARIOS",
    "run_trace_scenario",
    "trace_scenario",
    "trace_summary",
    "compare_shard_scaling",
    "compare_shard_topology",
    "compare_straggler",
    "rmat_pe_loads",
    "heat_strip",
    "rebalancing_heat_story",
    "render_heat_story",
    "fig9_local_loads",
    "fig9_remote_loads",
    "toy_round_cycles",
]
