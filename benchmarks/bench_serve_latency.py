"""Streaming latency — SLO-aware scheduling under Poisson arrivals.

Claims checked: with requests arriving over simulated time under a
latency SLO, the event-driven service (a) keeps SLO attainment high by
cutting batches on deadline slack — visible as *more* batches than pure
size-capped batching would produce; (b) reports sane tail percentiles
(p50 <= p95 <= p99, all within the makespan); and (c) the autotune
cache stays semantically invisible: cached runs are cycle-identical
AND timeline-identical to cold runs (scheduling runs on the simulated
clock, which caching cannot touch), while still cutting the wall-clock
simulation cost severalfold.
"""

from conftest import run_once, save_artifact

from repro.serve import compare_latency

N_REQUESTS = 96
MAX_BATCH = 8


def test_serve_latency(benchmark, bench_seed):
    rows, text = run_once(
        benchmark,
        compare_latency,
        n_requests=N_REQUESTS,
        n_graphs=4,
        n_nodes=4096,
        n_pes=96,
        n_workers=2,
        seed=bench_seed,
        arrival_rate=400.0,
        slo_ms=20.0,
        max_batch=MAX_BATCH,
    )
    save_artifact("serve_latency", rows, text)

    table = {r["mode"]: r for r in rows}
    cold, warm, cmp_row = table["no-cache"], table["cache"], table["speedup"]

    # Caching must be invisible to the model AND to the simulated
    # clock: identical cycles, identical start/finish timestamps.
    assert cmp_row["makespan_s"] == "identical"  # cycle identity
    assert cmp_row["p50_ms"] == "identical"      # timeline identity
    for key in ("p50_ms", "p95_ms", "p99_ms", "queue_ms", "slo_attained",
                "makespan_s", "batches"):
        assert warm[key] == cold[key], key

    # Tail percentiles are ordered and the SLO mostly holds under a
    # load where batches routinely fill before their deadline.
    assert cold["p50_ms"] <= cold["p95_ms"] <= cold["p99_ms"]
    assert cold["slo_attained"] >= 0.9, text

    # Deadline-slack cutting is live: the schedule holds more batches
    # than pure size-capped batching (96 requests / max_batch 8 = 12)
    # because slack expiry seals some batches before they fill.
    assert cold["batches"] > N_REQUESTS // MAX_BATCH, text

    # The cache still pays for itself in wall-clock simulation cost
    # (measured ~15x; 3 leaves headroom for noisy CI machines).
    assert warm["hit_rate"] > 0.9
    assert cmp_row["wall_s"] >= 3.0, text
