"""Every public constructor checks its fields in one vocabulary.

The field tables below name each checked field of ``ArchConfig``,
``RmatGraphSpec``, ``InferenceRequest`` and ``StragglerEvent`` with the
rule it follows. One property draws a field and either a value the rule
refuses (a wrong type, NaN, an infinity, zero or a negative number where
the rule refuses them) or one it accepts: a refused value must raise a
:class:`~repro.errors.ConfigError` naming the field, and nothing else;
an accepted one must survive a ``dataclasses.replace`` round trip. The
probes after it pin, by name, the values that once constructed silently
or failed with a bare ``TypeError`` or ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import ArchConfig
from repro.cluster import StragglerEvent
from repro.errors import ConfigError
from repro.serve import (
    InferenceRequest,
    InferenceService,
    RmatGraphSpec,
    StreamingScheduler,
    mixed_traffic,
)

CONFIG = ArchConfig(n_pes=64, hop=1)
SPEC = RmatGraphSpec(n_nodes=256)

# (base object, field, rule, None allowed)
FIELDS = [
    (ArchConfig(), name, rule, name == "drain_cycles")
    for name, rule in (
        ("n_pes", "positive int"), ("hop", "non-negative int"),
        ("remote_switching", "bool"), ("mac_latency", "positive int"),
        ("queues_per_pe", "positive int"),
        ("tracking_window", "positive int"),
        ("frequency_mhz", "positive real"),
        ("drain_cycles", "non-negative int"),
        ("sharing_efficiency", "open-low fraction"),
        ("pipeline_spmm", "bool"), ("switch_damping", "positive real"),
        ("convergence_patience", "positive int"), ("eq5_approximate", "bool"),
    )
] + [
    (SPEC, name, rule, False)
    for name, rule in (
        ("n_nodes", "positive int"), ("avg_degree", "positive int"),
        ("f1", "positive int"), ("f2", "positive int"),
        ("f3", "positive int"), ("x1_density", "fraction"),
        ("x2_density", "fraction"), ("seed", "non-negative int"),
        ("abcd", "quadrant odds"),
    )
] + [
    (InferenceRequest(SPEC, CONFIG), name, rule, nullable)
    for name, rule, nullable in (
        ("graph", "graph", False), ("config", "config", False),
        ("a_hops", "positive int", False),
        ("arrival_time", "non-negative real", False),
        ("slo_ms", "positive real", True),
        ("priority", "non-negative int", True),
    )
] + [
    (StragglerEvent(1), name, rule, False)
    for name, rule in (
        ("chip", "non-negative int"), ("onset_round", "non-negative real"),
        ("factor", "slowdown"),
    )
]

_NOT_NUMBERS = st.sampled_from(["1", "0.5", b"1", [1], {"x": 1}, 1j])
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NEGATIVE_INTS = st.integers(max_value=-1)
_NEGATIVE_REALS = st.floats(max_value=-1e-9, allow_nan=False)
_FRACTIONAL = st.integers(-10**6, 10**6).map(lambda n: n + 0.5)
_BOOLS = st.sampled_from([True, False, np.True_])

BAD = {
    "positive int": st.one_of(_NOT_NUMBERS, _NOT_FINITE, _BOOLS, _FRACTIONAL,
                              _NEGATIVE_INTS, st.just(0), st.just(2.0)),
    "non-negative int": st.one_of(_NOT_NUMBERS, _NOT_FINITE, _BOOLS,
                                  _FRACTIONAL, _NEGATIVE_INTS, st.just(1.0)),
    "positive real": st.one_of(_NOT_NUMBERS, _NOT_FINITE, _BOOLS,
                               _NEGATIVE_REALS, st.just(0), st.just(0.0)),
    "non-negative real": st.one_of(_NOT_NUMBERS, _NOT_FINITE, _BOOLS,
                                   _NEGATIVE_REALS),
    "fraction": st.one_of(_NOT_NUMBERS, _NOT_FINITE, _BOOLS, _NEGATIVE_REALS,
                          st.floats(min_value=1.0 + 1e-9, allow_nan=False)),
    "open-low fraction": st.one_of(_NOT_NUMBERS, _NOT_FINITE, _BOOLS,
                                   _NEGATIVE_REALS, st.just(0.0),
                                   st.just(1.5)),
    "slowdown": st.one_of(_NOT_NUMBERS, _NOT_FINITE, _BOOLS, _NEGATIVE_REALS,
                          st.just(0.0), st.floats(0.0, 1.0,
                                                  exclude_max=True)),
    "bool": st.one_of(_NOT_NUMBERS, st.sampled_from(["False", 0, 1, 0.0])),
    "config": st.one_of(_NOT_NUMBERS, st.just(SPEC), st.just(64)),
    "graph": st.one_of(_NOT_NUMBERS, st.just(CONFIG), st.just(256)),
    "quadrant odds": st.one_of(
        _NOT_NUMBERS, st.just("abcd"), st.just(0.5),
        st.tuples(_NOT_FINITE, st.just(0.2), st.just(0.2), st.just(0.1)),
        st.tuples(st.just(0.5), _NEGATIVE_REALS, st.just(0.3), st.just(0.2)),
        st.tuples(_NOT_NUMBERS, st.just(0.2), st.just(0.2), st.just(0.1)),
        st.lists(st.floats(0.0, 1.0), min_size=0, max_size=3).map(tuple),
        st.just((0.25,) * 5), st.just((0.9,) * 4), st.just((0.1,) * 4),
        st.just([0.5, 0.2, 0.2, 0.1]),  # legal odds, but not hashable
    ),
}

LEGAL = {
    "positive int": st.one_of(st.integers(1, 10**6),
                              st.integers(1, 64).map(np.int64)),
    "non-negative int": st.integers(0, 10**6),
    "positive real": st.one_of(st.floats(1e-6, 1e6), st.integers(1, 1000)),
    "non-negative real": st.floats(0.0, 1e6),
    "fraction": st.floats(0.0, 1.0),
    "open-low fraction": st.floats(1e-9, 1.0),
    "slowdown": st.floats(1.0, 1e3),
    "bool": _BOOLS,
    "config": st.just(ArchConfig(n_pes=32)),
    "graph": st.just(RmatGraphSpec(n_nodes=128, seed=3)),
    "quadrant odds": st.sampled_from([
        (0.25, 0.25, 0.25, 0.25), (0.45, 0.22, 0.22, 0.11), (1, 0, 0, 0),
        (np.float64(0.7), 0.1, 0.1, 0.1),
    ]),
}


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_every_field_is_checked_in_one_vocabulary(data):
    base, name, rule, nullable = data.draw(st.sampled_from(FIELDS))
    if data.draw(st.booleans(), label="legal"):
        value = data.draw(LEGAL[rule], label=name)
        changed = replace(base, **{name: value})
        assert getattr(changed, name) == value
        assert replace(changed) == changed
        return
    value = data.draw(BAD[rule] if nullable
                      else st.one_of(BAD[rule], st.none()), label=name)
    with pytest.raises(ConfigError, match=name):
        replace(base, **{name: value})


PROBES = {
    "frequency-nan": (lambda: ArchConfig(frequency_mhz=math.nan),
                      "frequency_mhz"),
    "frequency-inf": (lambda: ArchConfig(frequency_mhz=math.inf),
                      "frequency_mhz"),
    "n_pes-bool": (lambda: ArchConfig(n_pes=True), "n_pes"),
    "damping-nan": (lambda: ArchConfig(switch_damping=math.nan),
                    "switch_damping"),
    "mac-fractional": (lambda: ArchConfig(mac_latency=2.5), "mac_latency"),
    "mac-string": (lambda: ArchConfig(mac_latency="5"), "mac_latency"),
    "window-fractional": (lambda: ArchConfig(tracking_window=1.5),
                          "tracking_window"),
    "queues-bool": (lambda: ArchConfig(queues_per_pe=True), "queues_per_pe"),
    "drain-fractional": (lambda: ArchConfig(drain_cycles=1.5),
                         "drain_cycles"),
    "x1-nan": (lambda: RmatGraphSpec(n_nodes=256, x1_density=math.nan),
               "x1_density"),
    "x2-above-one": (lambda: RmatGraphSpec(n_nodes=256, x2_density=2.0),
                     "x2_density"),
    "seed-negative": (lambda: RmatGraphSpec(n_nodes=256, seed=-1), "seed"),
    "abcd-nan": (lambda: RmatGraphSpec(n_nodes=64, seed=11,
                                       abcd=(math.nan, 0.2, 0.2, 0.1)),
                 "abcd"),
    "abcd-string": (lambda: RmatGraphSpec(n_nodes=64, abcd="abcd"), "abcd"),
    "abcd-not-stochastic": (
        lambda: RmatGraphSpec(n_nodes=64, abcd=(0.9, 0.9, 0.9, 0.9)),
        "abcd"),
    "a_hops-bool": (lambda: InferenceRequest(SPEC, CONFIG, a_hops=True),
                    "a_hops"),
    "priority-bool": (lambda: InferenceRequest(SPEC, CONFIG, priority=True),
                      "priority"),
    "service-shed-string": (
        lambda: InferenceService(shed_expired="false"), "shed_expired"),
    "service-coschedule-string": (
        lambda: InferenceService(coschedule="false", chip_capacity=256),
        "coschedule"),
    "scheduler-shed-string": (
        lambda: StreamingScheduler(shed_expired="no"), "shed_expired"),
    "straggler-onset-string": (lambda: StragglerEvent(0, "1", 2.0),
                               "onset_round"),
    "mixed-fraction-string": (
        lambda: mixed_traffic(4, arrival_rate=10.0, chip_capacity=256,
                              critical_fraction="x"),
        "critical_fraction"),
    "service-tracer": (lambda: InferenceService(tracer="x"), "tracer"),
    "scheduler-tracer": (lambda: StreamingScheduler(tracer=object()),
                         "tracer"),
    "options-string": (
        lambda: InferenceService(chip_capacity=256, cluster_options="ring"),
        "cluster_options"),
    "options-pairs": (
        lambda: InferenceService(chip_capacity=256,
                                 cluster_options=[("topology", "ring")]),
        "cluster_options"),
}


@pytest.mark.parametrize("build, field", PROBES.values(), ids=PROBES.keys())
def test_probe_is_a_config_error_naming_the_field(build, field):
    with pytest.raises(ConfigError, match=field):
        build()

