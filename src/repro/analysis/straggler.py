"""Straggler-resilience sweep for cycle-feedback rebalancing.

AWB-GCN's rebalancer exists because imbalance is *observed at runtime*,
not predicted — and a chip that starts throttling mid-run (thermal
limits, a contended memory channel, a failing board) is the purest
case: no static profile can see it. This sweep injects one
:class:`~repro.cluster.StragglerEvent` with a *fractional* onset (the
slowdown lands inside a feedback round, so the ``"cycles"`` signal
first observes a blended mid-round measurement) and compares three
regimes per slowdown factor:

* ``clean``    — no straggler, load-signal rebalancing: the floor;
* ``frozen``   — the straggler hits a load-signal plan that cannot
  react (the static signal never sees measured cycles), so the slowed
  chip stretches every layer barrier by the full factor;
* ``feedback`` — cycle-feedback rebalancing observes the slowdown in
  its per-round measurements (including the blended onset round) and
  migrates row blocks off the straggling chip.

The recovered fraction — ``(frozen - feedback) / (frozen - clean)`` —
is the share of straggler-induced slowdown the feedback loop claws
back; the verdict asserts it is strictly positive at every factor,
which is the claim ``results/straggler.{csv,txt}`` records and the
bench suite enforces.

Unlike the scaling sweep (:mod:`.shardscale`), this sweep uses the *default*
(mildly skewed) RMAT mix rather than the hub-heavy one: the straggler
story needs a clean plan that is time-balanced, so that the measured
gap is attributable to the injected slowdown rather than to an
immovable hub block pinned on the straggling chip.
"""

from __future__ import annotations

from repro.accel.config import ArchConfig
from repro.analysis.report import ascii_table
from repro.cluster.multichip import (
    ClusterConfig,
    StragglerEvent,
    simulate_multichip_gcn,
)
from repro.errors import ConfigError
from repro.serve.traffic import RmatGraphSpec


def compare_straggler(*, n_chips=4, n_nodes=4096, avg_degree=12,
                      pes_per_chip=128, link_words_per_cycle=16.0,
                      blocks_per_chip=8, f1=64, f2=32, f3=8, seed=7,
                      straggler_chip=0, onset_round=1.5,
                      factors=(1.5, 2.0, 3.0), feedback_rounds=6):
    """Run the straggler-recovery sweep; returns ``(rows, text)``.

    One default-mix RMAT graph, one straggling chip whose compute
    slows by each of ``factors`` from ``onset_round`` on.
    ``onset_round`` defaults to a fractional round so the first
    affected measurement is the blended mid-round one — the hardest
    case for the controller, and the one the mid-round measurement
    model exists for. Every row reports total cycles and slowdown over
    the clean floor; ``feedback`` rows add migrated blocks and the
    recovered fraction of the straggler-induced gap.
    """
    if not factors:
        raise ConfigError("factors must be a non-empty sequence")
    factors = tuple(float(f) for f in factors)
    if any(f < 1.0 for f in factors):
        raise ConfigError(f"straggler factors must be >= 1.0, got {factors}")
    chip = ArchConfig(n_pes=pes_per_chip, hop=1, remote_switching=True)
    dataset = RmatGraphSpec(
        n_nodes=n_nodes, avg_degree=avg_degree,
        f1=f1, f2=f2, f3=f3, seed=seed,
    ).build()

    def run(signal, stragglers):
        cluster = ClusterConfig(
            n_chips=n_chips, chip=chip, strategy="nnz",
            rebalance_signal=signal,
            link_words_per_cycle=link_words_per_cycle,
            blocks_per_chip=blocks_per_chip,
            feedback_rounds=feedback_rounds,
            stragglers=stragglers,
        )
        return simulate_multichip_gcn(dataset, cluster)

    clean = run("load", None)
    rows = [{
        "factor": 1.0,
        "regime": "clean",
        "cycles": clean.total_cycles,
        "slowdown": 1.0,
        "migrated_blocks": clean.rebalance.migrated_blocks,
        "recovered": "",
    }]
    for factor in factors:
        event = StragglerEvent(
            chip=straggler_chip, onset_round=onset_round, factor=factor
        )
        frozen = run("load", (event,))
        feedback = run("cycles", (event,))
        gap = frozen.total_cycles - clean.total_cycles
        recovered = (
            (frozen.total_cycles - feedback.total_cycles) / gap
            if gap > 0 else 0.0
        )
        rows.append({
            "factor": factor,
            "regime": "frozen",
            "cycles": frozen.total_cycles,
            "slowdown": round(frozen.total_cycles / clean.total_cycles, 3),
            "migrated_blocks": frozen.rebalance.migrated_blocks,
            "recovered": "",
        })
        rows.append({
            "factor": factor,
            "regime": "feedback",
            "cycles": feedback.total_cycles,
            "slowdown": round(
                feedback.total_cycles / clean.total_cycles, 3
            ),
            "migrated_blocks": feedback.rebalance.migrated_blocks,
            "recovered": round(recovered, 3),
        })

    table = ascii_table(
        ["factor", "regime", "cycles", "slowdown", "migrated", "recovered"],
        [[r["factor"], r["regime"], r["cycles"], r["slowdown"],
          r["migrated_blocks"], r["recovered"]] for r in rows],
        title=(
            f"Straggler recovery: chip {straggler_chip} slows at round "
            f"{onset_round}, {n_chips} chips, RMAT "
            f"{n_nodes} nodes (seed {seed})"
        ),
    )
    text = table + "\n" + _verdict(rows)
    return rows, text


def _verdict(rows):
    """The claim line under the straggler table."""
    recovered = [
        float(r["recovered"]) for r in rows if r["regime"] == "feedback"
    ]
    beaten = all(
        feedback["cycles"] < frozen["cycles"]
        for feedback, frozen in zip(
            (r for r in rows if r["regime"] == "feedback"),
            (r for r in rows if r["regime"] == "frozen"),
        )
    )
    if not beaten:
        return (
            "cycle-feedback FAILED to beat the frozen plan on at least "
            "one factor"
        )
    return (
        "cycle-feedback with mid-round measurement beats the frozen "
        f"plan at every factor, recovering {min(recovered):.0%}-"
        f"{max(recovered):.0%} of the straggler-induced slowdown"
    )
