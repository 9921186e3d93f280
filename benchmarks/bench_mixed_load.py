"""Multi-tenant co-scheduling sweep (``compare_mixed_load``).

Claims checked on identical mixed-traffic traces — deadline-critical
small queries, SLO'd batch queries and oversized sharded jobs on one
Poisson stream — served by the same instance pool with co-scheduling
off (exclusive gangs) and on (gang claims + priority classes +
boundary preemption + shared-fabric pricing):

(a) at *every* swept arrival rate, co-scheduling improves SLO
    attainment or modeled throughput — it never trades both away;
(b) the improvement is not a freebie from serving less work: both
    modes serve every request (nothing shed, same sharded count);
(c) the sweep exercises the sharded path at every point (the mix
    really is multi-tenant, not batch-only).

CI runs it at full size (about 5 s) and checks that the committed
``results/mixed_load.*`` regenerate byte-identically.
"""

from conftest import run_once, save_artifact

from repro.analysis import compare_mixed_load


def test_bench_mixed_load(benchmark, bench_seed):
    rows, text = run_once(
        benchmark, compare_mixed_load, seed=bench_seed, n_requests=120
    )
    save_artifact("mixed_load", rows, text)

    off_rows = [r for r in rows if r["mode"] == "off"]
    on_rows = [r for r in rows if r["mode"] == "on"]
    assert off_rows and len(off_rows) == len(on_rows), text

    # (a) Co-scheduling improves attainment or throughput everywhere.
    for off, on in zip(off_rows, on_rows):
        assert on["slo_attainment"] > off["slo_attainment"] or (
            on["slo_attainment"] == off["slo_attainment"]
            and on["makespan_ms"] <= off["makespan_ms"]
        ), (off["rate"], text)
    assert "improves SLO attainment or throughput" in text, text

    # (b) Same work served in both modes.
    for off, on in zip(off_rows, on_rows):
        assert on["n_sharded"] == off["n_sharded"], (off["rate"], text)

    # (c) The mix is genuinely multi-tenant at every point.
    assert all(r["n_sharded"] > 0 for r in rows), text
