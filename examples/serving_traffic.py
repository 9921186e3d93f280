"""Serving: batched multi-graph inference with autotune caching.

Simulates a production-style serving scenario: a stream of GCN inference
requests over a pool of RMAT graph snapshots (Zipf-popular, like real
query mixes) is scheduled across two simulated accelerator instances.
The shared AutotuneCache persists each graph's converged Eq. 5 row map,
so repeat graphs skip the auto-tuner warm-up through the frozen fast
path — same cycle counts, a fraction of the simulation cost. The cache
is then saved and restored to show a warm service restart.

Run:  python examples/serving_traffic.py
"""

import tempfile
from pathlib import Path

from repro.accel import ArchConfig
from repro.serve import (
    AutotuneCache,
    InferenceService,
    serve_requests,
    synthetic_traffic,
)


def main():
    configs = (
        ArchConfig(n_pes=96, hop=1, remote_switching=True,
                   convergence_patience=3),
        ArchConfig(n_pes=128, hop=2, remote_switching=True,
                   convergence_patience=3),
    )
    requests = synthetic_traffic(
        40, family_size=4, n_nodes=4096, seed=7, configs=configs,
    )
    print(f"mix: {len(requests)} requests over 4 graphs, "
          f"{len(configs)} arch configs\n")

    cache = AutotuneCache()
    service = InferenceService(n_workers=2, cache=cache)
    service.submit_many(requests)
    outcome = service.drain()

    print(f"{'req':>4} {'graph':<20} {'batch':>5} {'inst':>4} "
          f"{'cycles':>10} {'latency':>9} {'util':>7}  cache")
    for result in outcome.results[:10]:
        print(
            f"{result.request_id:>4} {result.dataset:<20} "
            f"{result.batch:>5} {result.worker:>4} "
            f"{result.total_cycles:>10,} {result.latency_ms:>7.3f}ms "
            f"{result.utilization:>7.1%}  "
            f"{'hit' if result.cache_hit else 'MISS'}"
        )
    print(f"  ... ({len(outcome.results) - 10} more)\n")

    stats = outcome.stats
    print(f"throughput : {stats.requests_per_second:8.1f} req/s "
          f"({stats.wall_seconds * 1e3:.0f} ms wall)")
    print(f"cache      : {stats.cache_hits} hits / "
          f"{stats.cache_misses} misses ({stats.hit_rate:.0%} hit rate)")
    print(f"instances  : " + ", ".join(
        f"#{w.index}: {w.requests_served} reqs in {w.batches_served} batches"
        for w in outcome.workers
    ))

    # A restarted service loaded from the saved cache starts 100% warm.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "autotune.npz"
        cache.save(path)
        restarted = serve_requests(requests, n_workers=2,
                                   cache=AutotuneCache.load(path))
    print(f"\nafter restart from {path.name}: "
          f"{restarted.stats.cache_hits}/{restarted.stats.n_requests} hits, "
          f"{restarted.stats.requests_per_second:.1f} req/s")
    identical = all(
        a.total_cycles == b.total_cycles
        for a, b in zip(outcome.results, restarted.results)
    )
    print(f"restarted results cycle-identical: {identical}")


if __name__ == "__main__":
    main()
