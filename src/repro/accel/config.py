"""Architecture configuration for the SPMM engine.

One frozen dataclass holds every knob of the microarchitecture. The five
published design points (baseline and designs A-D) are thin presets over
this config — see :mod:`repro.accel.designs`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from repro.utils.validation import (
    check_bool,
    check_fraction,
    check_non_negative_int,
    check_positive_finite,
    check_positive_int,
)


def _kept_values(instance):
    """A frozen dataclass instance's field values in declaration order,
    kept on the instance (``_values``) after the first call."""
    try:
        return instance._values
    except AttributeError:
        values = tuple([getattr(instance, f.name) for f in fields(instance)])
        object.__setattr__(instance, "_values", values)
        return values


def kept_hash(self):
    """``__hash__`` of a frozen dataclass used as a hot key.

    The value is the generated one, the hash of the field tuple in
    declaration order, so no set or dict order moves. It is kept on the
    instance (``_hash``) at the first call, so every later call is one
    attribute read.
    """
    try:
        return self._hash
    except AttributeError:
        value = hash(_kept_values(self))
        object.__setattr__(self, "_hash", value)
        return value


def kept_eq(self, other):
    """``__eq__`` to pair with :func:`kept_hash`: the generated compare
    of the two field tuples, reading the kept ones, and
    ``NotImplemented`` for any other class."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    try:
        return self._values == other._values
    except AttributeError:
        return _kept_values(self) == _kept_values(other)


def kept_state(self):
    """``__getstate__`` that leaves the kept values out: a pickled or
    copied instance carries its fields only and fills its kept values
    afresh on first use."""
    state = dict(self.__dict__)
    state.pop("_hash", None)
    state.pop("_values", None)
    return state


_FIELD_CHECKS = (
    (check_positive_int, ("n_pes", "mac_latency", "queues_per_pe",
                          "tracking_window", "convergence_patience")),
    (check_non_negative_int, ("hop",)),
    (check_positive_finite, ("frequency_mhz", "switch_damping")),
)
"""How :meth:`ArchConfig.__post_init__` checks its numeric fields (the
switches, ``sharing_efficiency`` and ``drain_cycles`` have their own
rules)."""


@dataclass(frozen=True)
class ArchConfig:
    """Microarchitecture parameters of the (U/A)WB-GCN SPMM engine.

    Hashed and compared through one kept field tuple (see
    :func:`kept_hash`): the values are those of the generated methods.
    Every field is checked at construction through
    :mod:`repro.utils.validation`: a wrong type (a bool or a fractional
    count included), a NaN or infinite rate, or an out-of-range value
    raises :class:`~repro.errors.ConfigError` naming the field.

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
        # Checked only: every stored value but the switches' stays the
        # caller's, so no hash, repr or label moves.
        for check, names in _FIELD_CHECKS:
            for name in names:
                check(getattr(self, name), name)
        check_fraction(self.sharing_efficiency, "sharing_efficiency",
                       inclusive_low=False)
        for name in ("remote_switching", "pipeline_spmm", "eq5_approximate"):
            value = check_bool(getattr(self, name), name)
            object.__setattr__(self, name, value)
        if self.drain_cycles is None:
            derived = int(np.ceil(np.log2(max(self.n_pes, 2)))) + self.mac_latency
            object.__setattr__(self, "drain_cycles", derived)
        else:
            check_non_negative_int(self.drain_cycles, "drain_cycles")

    # A config keys every cache, scheduler and memo lookup on the
    # serving path: it keeps its field tuple and that tuple's hash.
    __hash__ = kept_hash
    __eq__ = kept_eq
    __getstate__ = kept_state

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
