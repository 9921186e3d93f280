"""The paper's five design points and experiment conveniences.

Fig. 14 evaluates: the baseline (no rebalancing), Design A (1-hop local
sharing), Design B (2-hop), Design C (1-hop + remote switching) and
Design D (2-hop + remote switching) — except on Nell, where clustering
is so extreme that the local-sharing designs use 2 and 3 hops instead
("for the Nell dataset only, we use 2-hop and 3-hop local sharing").
"""

from __future__ import annotations

from repro.accel.config import ArchConfig
from repro.accel.gcnaccel import GcnAccelerator
from repro.errors import ConfigError

DESIGN_NAMES = ["baseline", "design_a", "design_b", "design_c", "design_d"]

DESIGN_LABELS = {
    "baseline": "Baseline",
    "design_a": "Design A (local h1)",
    "design_b": "Design B (local h2)",
    "design_c": "Design C (h1+remote)",
    "design_d": "Design D (h2+remote)",
}


def design_hops(dataset_name):
    """(small_hop, large_hop) used by designs A/C and B/D per dataset."""
    if dataset_name.lower() == "nell":
        return 2, 3
    return 1, 2


def design_config(design, *, dataset_name="", base=None):
    """ArchConfig for one named design point.

    ``base`` carries the shared parameters (PE count, clock, ...);
    ``dataset_name`` selects the Nell hop override.
    """
    if design not in DESIGN_NAMES:
        raise ConfigError(
            f"unknown design {design!r}; expected one of {DESIGN_NAMES}"
        )
    if base is None:
        base = ArchConfig()
    small_hop, large_hop = design_hops(dataset_name)
    if design == "baseline":
        return base.with_updates(hop=0, remote_switching=False)
    if design == "design_a":
        return base.with_updates(hop=small_hop, remote_switching=False)
    if design == "design_b":
        return base.with_updates(hop=large_hop, remote_switching=False)
    if design == "design_c":
        return base.with_updates(hop=small_hop, remote_switching=True)
    return base.with_updates(hop=large_hop, remote_switching=True)


def run_design_suite(dataset, *, base=None, designs=None):
    """Run several designs on one dataset; returns {design: report}.

    This is the workhorse behind the Fig. 14 and Fig. 15 benches.
    """
    if designs is None:
        designs = DESIGN_NAMES
    reports = {}
    for design in designs:
        config = design_config(design, dataset_name=dataset.name, base=base)
        accelerator = GcnAccelerator(dataset, config)
        reports[design] = accelerator.run()
    return reports
