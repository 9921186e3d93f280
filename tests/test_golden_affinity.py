"""Golden-value regression test for the cache-affinity sweep.

The full-size :func:`~repro.analysis.compare_cache_affinity` sweep
(96 requests over 12 Zipf families at 2k/4k/8k req/s on a 4-instance
partitioned pool, seed 7) with unbounded and with 4-entry shards,
pinned to the modeled columns of ``results/cache_affinity.csv`` and
``results/cache_affinity_bounded.csv``: hit rates, placement hit rate,
replication count, p99 latency, SLO attainment and per-instance hit
rates. ``wall_s`` and ``req_per_s`` are host wall-clock and are not
pinned.

Every pinned column is a deterministic function of the traffic and
the placement policy, so a refactor of routing, replication or the
event loop must reproduce them exactly; a conscious policy change
updates these rows and the two artifacts in the same commit.
"""

import pytest

from repro.analysis import compare_cache_affinity

COLUMNS = (
    "rate", "mode", "hit_rate", "placement_hit_rate", "n_replications",
    "p99_ms", "slo_attainment", "w0_hit_rate", "w1_hit_rate",
    "w2_hit_rate", "w3_hit_rate",
)

GOLDEN = {
    # results/cache_affinity.csv (unbounded shards)
    None: [
        (2000.0, "blind", 0.8125, "", 0, 3.4123, 1.0,
         0.8421, 0.7, 0.0, 0.0),
        (2000.0, "affinity", 0.8646, 0.9583, 20, 3.4123, 1.0,
         0.8269, 0.9375, 0.875, 0.9167),
        (4000.0, "blind", 0.7292, "", 0, 1.8617, 1.0,
         0.7692, 0.75, 0.375, 0.0),
        (4000.0, "affinity", 0.875, 0.9583, 21, 2.9555, 1.0,
         0.8125, 0.9375, 1.0, 0.9),
        (8000.0, "blind", 0.7083, "", 0, 1.3031, 1.0,
         0.75, 0.6875, 0.75, 0.25),
        (8000.0, "affinity", 0.875, 0.9583, 20, 5.4174, 1.0,
         0.7955, 0.9375, 1.0, 0.9),
    ],
    # results/cache_affinity_bounded.csv (4-entry shards)
    4: [
        (2000.0, "blind", 0.5625, "", 0, 3.4123, 1.0,
         0.5263, 0.7, 0.0, 0.0),
        (2000.0, "affinity", 0.6667, 0.9583, 19, 3.4123, 1.0,
         0.6667, 0.7083, 0.6875, 0.6),
        (4000.0, "blind", 0.5625, "", 0, 1.8617, 1.0,
         0.5577, 0.6111, 0.375, 0.0),
        (4000.0, "affinity", 0.6875, 0.9583, 17, 2.282, 1.0,
         0.675, 0.7, 0.6875, 0.7),
        (8000.0, "blind", 0.5938, "", 0, 1.3031, 1.0,
         0.625, 0.5312, 0.6786, 0.25),
        (8000.0, "affinity", 0.6771, 0.9583, 15, 4.0512, 1.0,
         0.625, 0.625, 0.6875, 0.7917),
    ],
}


@pytest.mark.parametrize("worker_cache_entries", [None, 4],
                         ids=["unbounded", "bounded4"])
def test_affinity_sweep_modeled_columns_pinned(worker_cache_entries):
    rows, _text = compare_cache_affinity(
        worker_cache_entries=worker_cache_entries
    )
    assert [
        tuple(row[column] for column in COLUMNS) for row in rows
    ] == GOLDEN[worker_cache_entries]
    # Nothing but the two wall-clock columns goes unpinned.
    assert set(rows[0]) - set(COLUMNS) == {"wall_s", "req_per_s"}
