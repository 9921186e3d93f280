"""Serving throughput — the autotune cache under repeated-graph traffic.

Claims checked: on a request mix dominated by repeat graphs, enabling
the :class:`~repro.serve.AutotuneCache` (a) speeds the service up by at
least 5x wall-clock, because a cache hit skips the tuner warm-up: the
first hit on an entry in a drain replays its converged Eq. 5 row map
through the vectorized frozen fast path, and every later hit on it
reuses that replay, so the cached run costs little more than its cold
tunes; and (b) changes no model semantics: every cache-hit report is
cycle-identical to the cold run of the same request, and the aggregate
cycle/utilization numbers match exactly.
"""

from conftest import run_once, save_artifact

from repro.serve import compare_caching


def test_serve_throughput(benchmark, bench_seed):
    rows, text = run_once(
        benchmark,
        compare_caching,
        n_requests=96,
        n_graphs=4,
        n_nodes=16384,
        n_pes=192,
        n_workers=2,
        seed=bench_seed,
    )
    save_artifact("serve_throughput", rows, text)

    table = {r["mode"]: r for r in rows}
    cold, warm, cmp_row = table["no-cache"], table["cache"], table["speedup"]

    # The cache never changes what the hardware would do — only how fast
    # the simulator can say it. Exact equality, not approximate.
    assert cmp_row["total_cycles"] == "identical"
    assert warm["total_cycles"] == cold["total_cycles"]
    assert warm["mean_util"] == cold["mean_util"]

    # A cold service tunes every request from scratch; the warm one only
    # pays the tuner once per unique (graph, config).
    assert cold["cache_hits"] == 0
    assert warm["cache_hits"] == 96 - 4
    assert warm["hit_rate"] > 0.9

    # The acceptance bar: >= 5x serving speedup from caching alone
    # (measured 19.4x on a 2-CPU x86 VM; 5 leaves headroom for noisy
    # CI machines).
    assert cmp_row["req_per_s"] >= 5.0, text
