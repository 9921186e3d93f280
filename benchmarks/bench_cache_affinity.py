"""Cache-affinity routing sweep (``compare_cache_affinity``).

Claims checked on identical Zipf repeat-heavy streaming traces served
twice per arrival rate by the same partitioned instance pool — once
under the historical cache-blind dispatch, once under warm-aware
affinity routing with demand-driven hot-entry replication — for
unbounded per-instance shards (``results/cache_affinity.*``) and for
4-entry shards (``results/cache_affinity_bounded.*``), where a shard
holds a third of the families and replication has to choose what a
replica may evict:

(a) at *every* swept arrival rate, affinity routing strictly improves
    the aggregate cache hit rate, with SLO attainment no worse (the
    sweep's verdict line asserts this internally; the bench re-checks
    the rows). Wall-clock throughput is recorded, not claimed: a
    service tunes a key at most once, so a cache-blind miss on a key
    the service already tuned costs a store, and blind dispatch no
    longer pays host time for its lower hit rate;
(b) the improvement is placement, not semantics: the sweep raises if
    any per-request cycle count differs between the two modes.

That ``cache_mode="shared"`` stays the oracle is tier-1's
``tests/test_serve_affinity.py::TestSharedModeIsTheOracle``.
"""

import pytest
from conftest import run_once, save_artifact

from repro.analysis import compare_cache_affinity


@pytest.mark.parametrize("artifact, worker_cache_entries", [
    ("cache_affinity", None),
    ("cache_affinity_bounded", 4),
])
def test_bench_cache_affinity(benchmark, bench_seed, artifact,
                              worker_cache_entries):
    rows, text = run_once(
        benchmark, compare_cache_affinity, seed=bench_seed,
        worker_cache_entries=worker_cache_entries,
    )
    save_artifact(artifact, rows, text)

    blind_rows = [r for r in rows if r["mode"] == "blind"]
    affinity_rows = [r for r in rows if r["mode"] == "affinity"]
    assert blind_rows and len(blind_rows) == len(affinity_rows), text

    # (a) Affinity wins hit rate at every swept rate, SLO attainment
    # no worse; the verdict line records the same. Throughput stays a
    # reported column.
    for blind, affinity in zip(blind_rows, affinity_rows):
        assert affinity["hit_rate"] > blind["hit_rate"], (blind["rate"], text)
        assert affinity["req_per_s"] > 0 and blind["req_per_s"] > 0, text
        assert affinity["slo_attainment"] >= blind["slo_attainment"], (
            blind["rate"], text,
        )
        # Placement columns only exist (and replication only fires) in
        # affinity mode.
        assert blind["placement_hit_rate"] == "", text
        assert affinity["placement_hit_rate"] != "", text
    assert "beats cache-blind dispatch at every swept rate" in text, text

    # (b) compare_cache_affinity raises on any per-request cycle
    # mismatch between modes, so reaching here proves cycle identity.
