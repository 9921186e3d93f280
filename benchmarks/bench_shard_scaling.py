"""Sharded multi-chip weak/strong scaling (``compare_shard_scaling``).

Claims checked: on a hub-heavy power-law graph, (a) chip-level runtime
rebalancing (boundary-diffusion block migration driven by the Eq. 5
load signal) strictly beats the naive static equal-rows partition at
every multi-chip point, in both weak and strong scaling; (b) sharding
itself scales — every regime's strong-scaling speedup grows
monotonically with the chip count.
"""

from conftest import run_once, save_artifact

from repro.analysis import compare_shard_scaling

CHIP_COUNTS = (1, 2, 4, 8)


def test_bench_shard_scaling_hetero_ring(benchmark, bench_seed):
    """One heterogeneous big/little cluster on a ring fabric with halo
    overlap and cycle-feedback rebalancing — the full new-model stack in
    one sweep. The core claim carries over: runtime rebalancing beats
    the naive static partition at every multi-chip point, now measuring
    *time* on unequal chips instead of load on equal ones."""
    rows, text = run_once(
        benchmark, compare_shard_scaling, seed=bench_seed,
        topology="ring", hetero=True, overlap=True, feedback=True,
        hop_latency_cycles=8, chip_counts=CHIP_COUNTS,
    )
    save_artifact("shard_scaling_hetero", rows, text)

    by_cell = {
        (r["mode"], r["regime"], r["chips"]): r for r in rows
    }
    for mode in ("strong", "weak"):
        for chips in CHIP_COUNTS:
            if chips == 1:
                continue
            static = by_cell[(mode, "rows", chips)]
            rebal = by_cell[(mode, "rows+rebal", chips)]
            assert rebal["cycles"] < static["cycles"], (mode, chips, text)
            assert rebal["migrated_blocks"] > 0, (mode, chips, text)


def test_bench_shard_scaling(benchmark, bench_seed):
    rows, text = run_once(
        benchmark, compare_shard_scaling, seed=bench_seed,
        chip_counts=CHIP_COUNTS,
    )
    save_artifact("shard_scaling", rows, text)

    by_cell = {
        (r["mode"], r["regime"], r["chips"]): r for r in rows
    }
    modes = ("strong", "weak")

    # (a) Runtime rebalancing beats the naive static partition at every
    # multi-chip point — the subsystem's acceptance claim.
    for mode in modes:
        for chips in CHIP_COUNTS:
            if chips == 1:
                continue
            static = by_cell[(mode, "rows", chips)]
            rebal = by_cell[(mode, "rows+rebal", chips)]
            assert rebal["cycles"] < static["cycles"], (mode, chips, text)
            assert rebal["migrated_blocks"] > 0, (mode, chips, text)

    # (b) Strong scaling is monotone for every regime: more chips never
    # slow the fixed graph down.
    for regime in ("rows", "nnz", "rows+rebal"):
        cycles = [
            by_cell[("strong", regime, chips)]["cycles"]
            for chips in CHIP_COUNTS
        ]
        assert all(a >= b for a, b in zip(cycles, cycles[1:])), (
            regime, cycles, text
        )

    # Single-chip cells are identical across regimes (no partition, no
    # communication — the shared baseline).
    for mode in modes:
        base = {
            by_cell[(mode, regime, 1)]["cycles"]
            for regime in ("rows", "nnz", "rows+rebal")
        }
        assert len(base) == 1, (mode, base)
