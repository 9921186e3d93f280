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

import json
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (
    ArchConfig,
    CachedStage,
    GcnAccelerator,
    RemoteAutoTuner,
    RowAssignment,
)
from repro.cluster import (
    ClusterConfig,
    StragglerEvent,
    make_plan,
    make_topology,
    subtopology,
)
from repro.datasets import load_dataset
from repro.errors import ConfigError
from repro.serve import (
    AutotuneCache,
    InferenceRequest,
    InferenceService,
    RmatGraphSpec,
    StreamingScheduler,
    mixed_traffic,
)
from repro.sparse import CooMatrix

CONFIG = ArchConfig(n_pes=64, hop=1)
SPEC = RmatGraphSpec(n_nodes=256)


def _tuner(**kwargs):
    """A RemoteAutoTuner over a 4-row, 2-PE map with ``kwargs`` set."""
    kwargs.setdefault("rows_per_pe_equal", 2.0)
    return RemoteAutoTuner(RowAssignment([1, 2, 3, 4], 2), **kwargs)


@lru_cache(maxsize=1)
def _cora():
    """The 300-node tiny Cora dataset at seed 3."""
    return load_dataset("cora", "tiny", seed=3)


def _stage(**kwargs):
    """A cache stage of one row that converged after two warm-up rounds,
    with ``kwargs`` set."""
    fields = dict(owner=[0], warmup_costs=(5, 4), converged_round=2,
                  final_backlog=0, total_backlog=0)
    return CachedStage(**{**fields, **kwargs})


def _ring_subtopology(chips):
    return subtopology(make_topology("ring", 4), chips)


def _mixed(**kwargs):
    """Two mixed-traffic requests at seed 7: neither is critical, so an
    SLO is refused before any draw or not at all."""
    return mixed_traffic(2, arrival_rate=10.0, chip_capacity=64, seed=7,
                         **kwargs)

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
    # The tuner follows ArchConfig's rules for the fields it is given.
    "tuner-rows-nan": (lambda: _tuner(rows_per_pe_equal=math.nan),
                       "rows_per_pe_equal"),
    "tuner-damping-negative": (lambda: _tuner(damping=-1.0), "damping"),
    "tuner-damping-nan": (lambda: _tuner(damping=math.nan), "damping"),
    "tuner-patience-zero": (lambda: _tuner(patience=0), "patience"),
    "tuner-window-zero": (lambda: _tuner(tracking_window=0),
                          "tracking_window"),
    "tuner-window-fractional": (lambda: _tuner(tracking_window=2.7),
                                "tracking_window"),
    "tuner-approximate-string": (lambda: _tuner(approximate="false"),
                                 "approximate"),
    # A chip id is a non-negative int: never truncated or coerced.
    "subtopology-chip-fractional": (lambda: _ring_subtopology((1.7, 2)),
                                    "chip"),
    "subtopology-chip-bool": (lambda: _ring_subtopology((True, 2)), "chip"),
    "subtopology-chip-string": (lambda: _ring_subtopology(("1", 2)),
                                "chip"),
    # A row ceiling is a positive int, checked entry by entry: never
    # truncated, and never a bare ValueError or a misleading sum.
    "ceilings-fractional": (
        lambda: ClusterConfig(n_chips=2, row_ceilings=(1.5, 2.5)),
        r"row_ceilings\[0\]"),
    "ceilings-bool": (
        lambda: ClusterConfig(n_chips=2, row_ceilings=(True, 5)),
        r"row_ceilings\[0\]"),
    "ceilings-nan": (
        lambda: ClusterConfig(n_chips=2, row_ceilings=(math.nan, 2)),
        r"row_ceilings\[0\]"),
    "ceilings-string": (
        lambda: ClusterConfig(n_chips=2, row_ceilings=("a", 2)),
        r"row_ceilings\[0\]"),
    "plan-ceilings-fractional": (
        lambda: make_plan(np.ones(16, dtype=int), 2,
                          row_ceilings=(8.9, 7.9)),
        r"row_ceilings\[0\]"),
    # An explicit node count is used or refused, never replaced by the
    # default; each SLO is checked whether or not its tenant is drawn.
    "mixed-small-nodes-zero": (lambda: _mixed(small_nodes=0), "small_nodes"),
    "mixed-batch-nodes-zero": (lambda: _mixed(batch_nodes=0), "batch_nodes"),
    "mixed-sharded-nodes-zero": (lambda: _mixed(sharded_nodes=0),
                                 "sharded_nodes"),
    "mixed-critical-slo-zero": (lambda: _mixed(critical_slo_ms=0.0),
                                "critical_slo_ms"),
    "mixed-critical-slo-nan": (lambda: _mixed(critical_slo_ms=math.nan),
                               "critical_slo_ms"),
    "mixed-sharded-slo-negative": (lambda: _mixed(sharded_slo_ms=-1.0),
                                   "sharded_slo_ms"),
    # Parts that do not fit one graph once priced: profiles of 5 and 3
    # rows on the 300-node graph read 5,471 cycles, and a second weight
    # that cannot follow the first's 16 columns 5,035.
    "dataset-x1-short": (
        lambda: replace(_cora(), x1_row_nnz=np.ones(5, dtype=int)),
        "x1_row_nnz"),
    "dataset-x2-short": (
        lambda: replace(_cora(), x2_row_nnz=np.ones(3, dtype=int)),
        "x2_row_nnz"),
    "dataset-x2-negative": (
        lambda: replace(_cora(), x2_row_nnz=np.full(300, -1)), "x2_row_nnz"),
    "dataset-x1-fractional": (
        lambda: replace(_cora(), x1_row_nnz=np.full(300, 1.5)), "x1_row_nnz"),
    "dataset-x1-2d": (
        lambda: replace(_cora(), x1_row_nnz=np.ones((300, 1), dtype=int)),
        "x1_row_nnz"),
    "dataset-weights-unchained": (
        lambda: replace(_cora(), weights=[_cora().weights[0],
                                          np.zeros((7, 3))]),
        "weights"),
    "dataset-weights-one": (
        lambda: replace(_cora(), weights=[_cora().weights[0]]), "weights"),
    "dataset-weights-1d": (
        lambda: replace(_cora(), weights=[_cora().weights[0],
                                          np.zeros(16)]),
        "weights"),
    "dataset-adjacency-not-square": (
        lambda: replace(_cora(), adjacency=CooMatrix(
            (300, 301), [0], [0], [1.0])),
        "adjacency"),
    "dataset-adjacency-dense": (
        lambda: replace(_cora(), adjacency=np.eye(300)), "adjacency"),
    # A cache stage no cold run can produce once replayed as a hit.
    "stage-warmup-negative": (
        lambda: _stage(warmup_costs=(-1_000_000_000, 4)),
        r"warmup_costs\[0\]"),
    "stage-warmup-fractional": (lambda: _stage(warmup_costs=(5, 4.5)),
                                r"warmup_costs\[1\]"),
    "stage-warmup-list": (lambda: _stage(warmup_costs=[5, 4]),
                          "warmup_costs"),
    "stage-converged-past-warmup": (
        lambda: _stage(converged_round=1_000_000), "converged_round"),
    "stage-converged-zero": (
        lambda: _stage(warmup_costs=(), converged_round=0),
        "converged_round"),
    "stage-converged-bool": (lambda: _stage(converged_round=True),
                             "converged_round"),
    "stage-final-backlog-negative": (lambda: _stage(final_backlog=-1),
                                     "final_backlog"),
    "stage-total-backlog-fractional": (lambda: _stage(total_backlog=2.5),
                                       "total_backlog"),
}


@pytest.mark.parametrize("build, field", PROBES.values(), ids=PROBES.keys())
def test_probe_is_a_config_error_naming_the_field(build, field):
    with pytest.raises(ConfigError, match=field):
        build()



def _negative_first_warmup(stages, arrays):
    stages[0]["warmup"][0] = -1_000_000_000


def _late_convergence(stages, arrays):
    stages[1]["converged_round"] = 1_000_000


def _fractional_warmup(stages, arrays):
    # Once truncated to 51 on load; the cold run priced that round 52.
    stages[0]["warmup"][1] = 51.5


def _fractional_owner(stages, arrays):
    # Once truncated back to the whole PE ids on load.
    arrays["e0_s1"] = arrays["e0_s1"] + 0.5


@pytest.mark.parametrize("edit, field", [
    (_negative_first_warmup, r"warmup_costs\[0\]"),
    (_late_convergence, "converged_round"),
    (_fractional_warmup, r"warmup_costs\[1\]"),
    (_fractional_owner, "owner"),
])
def test_load_refuses_a_stage_no_cold_run_produces(tmp_path, edit, field):
    # Together these once loaded, and the hit read 5,726 cycles where
    # the cold run gives 5,768.
    config = ArchConfig(n_pes=32, hop=1, remote_switching=True)
    cache = AutotuneCache()
    GcnAccelerator(RmatGraphSpec(n_nodes=256, seed=3).build(),
                   config).run(cache=cache)
    path = cache.save(tmp_path / "cache.npz")
    assert AutotuneCache.load(path).stats.entries == 1
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    index = json.loads(bytes(arrays.pop("index")).decode())
    edit(index["entries"][0]["layers"][0], arrays)
    np.savez_compressed(path, index=np.frombuffer(
        json.dumps(index).encode(), dtype=np.uint8,
    ), **arrays)
    with pytest.raises(ConfigError,
                       match=rf"entry 0 is malformed.*{field}"):
        AutotuneCache.load(path)
