"""Architecture configuration for the SPMM engine.

One frozen dataclass holds every knob of the microarchitecture. The five
published design points (baseline and designs A-D) are thin presets over
this config — see :mod:`repro.accel.designs`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class ArchConfig:
    """Microarchitecture parameters of the (U/A)WB-GCN SPMM engine.

    Hashed once: the instance keeps its (generated-equal) hash.

    Parameters
    ----------
    n_pes:
        Number of processing elements. The paper evaluates 512-1024 for
        scalability and does not pin the Fig. 14 count; experiments here
        default to 256 unless stated.
    hop:
        Local-sharing distance: tasks may execute on PEs within ``hop``
        positions of their owner (0 disables sharing; the paper evaluates
        1/2-hop generally and 2/3-hop for Nell).
    remote_switching:
        Enables the Eq. 5 runtime row-migration auto-tuner.
    mac_latency:
        MAC pipeline depth ``T`` — the RaW hazard window (Sec. 3.3).
    queues_per_pe:
        Task queues per PE (TDQ-1 allocates several so the arbiter can
        dodge RaW hazards; Fig. 6-B shows four).
    tracking_window:
        PESM slots: how many hotspot/coldspot tuples are tracked at once
        ("we have two slots ... a design tradeoff between area and
        performance").
    frequency_mhz:
        Clock for cycles -> seconds conversion (paper: 275 MHz on the
        VCU118; the EIE-like reference runs at 285 MHz).
    drain_cycles:
        Per-round pipeline fill/drain overhead: Omega network transit
        plus MAC latency. ``None`` derives ``ceil(log2(n_pes)) +
        mac_latency``.
    sharing_efficiency:
        Fraction of the ideal local-sharing bound the online queue-
        compare heuristic achieves (1.0 = ideal; the detailed simulator
        measures the true value on small inputs).
    pipeline_spmm:
        Inter-SPMM column pipelining (Fig. 8). When off, the two SPMMs of
        a layer run back to back.
    switch_damping:
        Multiplier on Eq. 5's ``R/2`` step. 1.0 is the paper's setting;
        exposed for the ablation benches.
    convergence_patience:
        Rounds without makespan improvement before the auto-tuner
        freezes the row map.
    eq5_approximate:
        Use the paper's hardware-efficient (shift-based) evaluation of
        Eq. 5 instead of the exact divide/multiply.
    """

    n_pes: int = 256
    hop: int = 0
    remote_switching: bool = False
    mac_latency: int = 5
    queues_per_pe: int = 4
    tracking_window: int = 2
    frequency_mhz: float = 275.0
    drain_cycles: int = None
    sharing_efficiency: float = 1.0
    pipeline_spmm: bool = True
    switch_damping: float = 1.0
    convergence_patience: int = 2
    eq5_approximate: bool = False

    def __post_init__(self):
        if not isinstance(self.n_pes, (int, np.integer)) or self.n_pes < 1:
            raise ConfigError(f"n_pes must be a positive int, got {self.n_pes}")
        if not isinstance(self.hop, (int, np.integer)) or self.hop < 0:
            raise ConfigError(f"hop must be a non-negative int, got {self.hop}")
        if self.mac_latency < 1:
            raise ConfigError(
                f"mac_latency must be >= 1, got {self.mac_latency}"
            )
        if self.queues_per_pe < 1:
            raise ConfigError(
                f"queues_per_pe must be >= 1, got {self.queues_per_pe}"
            )
        if self.tracking_window < 1:
            raise ConfigError(
                f"tracking_window must be >= 1, got {self.tracking_window}"
            )
        if self.frequency_mhz <= 0:
            raise ConfigError(
                f"frequency_mhz must be > 0, got {self.frequency_mhz}"
            )
        if not 0.0 < self.sharing_efficiency <= 1.0:
            raise ConfigError(
                "sharing_efficiency must be in (0, 1], got "
                f"{self.sharing_efficiency}"
            )
        if self.switch_damping <= 0:
            raise ConfigError(
                f"switch_damping must be > 0, got {self.switch_damping}"
            )
        if self.convergence_patience < 1:
            raise ConfigError(
                "convergence_patience must be >= 1, got "
                f"{self.convergence_patience}"
            )
        if self.drain_cycles is None:
            derived = int(np.ceil(np.log2(max(self.n_pes, 2)))) + self.mac_latency
            object.__setattr__(self, "drain_cycles", derived)
        elif self.drain_cycles < 0:
            raise ConfigError(
                f"drain_cycles must be >= 0, got {self.drain_cycles}"
            )

    def __hash__(self):
        # A config keys every cache, scheduler and memo lookup on the
        # serving path. The kept value is the generated hash, that of
        # the field tuple in declaration order, so no set or dict
        # order moves.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # Pickle the fields only: an unpickled copy hashes afresh.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def raw_cooldown(self):
        """Effective same-row spacing after multi-queue interleaving.

        The RaW stall buffer holds a conflicting task while the arbiter
        issues tasks from the other ``queues_per_pe`` queues, so the
        *visible* cooldown between same-row issues is
        ``max(1, mac_latency - queues_per_pe)``. At the paper's default
        (T = 5, four queues) hazards are fully hidden (cooldown 1) and
        the fast model adds no RaW penalty; the detailed simulator in
        :mod:`repro.hw` tracks the exact stalls, and the RaW ablation
        bench sweeps deeper MAC pipelines where the bound does bind.
        """
        return max(1, self.mac_latency - self.queues_per_pe)

    def cycles_to_seconds(self, cycles):
        """Convert a cycle count to seconds at the configured clock."""
        return float(cycles) / (self.frequency_mhz * 1e6)

    def cycles_to_ms(self, cycles):
        """Convert a cycle count to milliseconds at the configured clock."""
        return self.cycles_to_seconds(cycles) * 1e3

    def with_updates(self, **kwargs):
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
