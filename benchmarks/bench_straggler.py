"""Straggler-recovery sweep (``compare_straggler``).

Claims checked on a default-mix RMAT graph with one chip slowing down
mid-run (onset lands inside a feedback round, so the ``"cycles"``
signal first sees a blended mid-round measurement):

(a) the frozen plan (static load signal, which never observes measured
    cycles) pays for the straggler in full: total cycles grow strictly
    with the slowdown factor;
(b) cycle-feedback rebalancing beats the frozen plan at every factor —
    it migrates row blocks off the straggling chip and recovers a
    strictly positive fraction of the straggler-induced gap;
(c) the recovered fraction is substantial, not a rounding artifact:
    at least 10% of the gap at every factor.
"""

from conftest import run_once, save_artifact

from repro.analysis import compare_straggler


def test_bench_straggler(benchmark, bench_seed):
    rows, text = run_once(
        benchmark, compare_straggler, seed=bench_seed
    )
    save_artifact("straggler", rows, text)

    clean = next(r for r in rows if r["regime"] == "clean")["cycles"]
    frozen = [r for r in rows if r["regime"] == "frozen"]
    feedback = [r for r in rows if r["regime"] == "feedback"]
    assert frozen and len(frozen) == len(feedback), text

    # (a) The frozen plan pays for the straggler in full.
    frozen_cycles = [r["cycles"] for r in frozen]
    assert all(c > clean for c in frozen_cycles), text
    assert frozen_cycles == sorted(frozen_cycles), text

    # (b) Feedback strictly beats the frozen plan at every factor, with
    # at least one migration doing the work.
    for fr, fb in zip(frozen, feedback):
        assert fb["cycles"] < fr["cycles"], (fr["factor"], text)
        assert fb["migrated_blocks"] > 0, (fr["factor"], text)

    # (c) The recovery is substantial at every factor.
    for fb in feedback:
        assert float(fb["recovered"]) >= 0.10, (fb["factor"], text)
    assert "beats the frozen plan at every factor" in text, text
