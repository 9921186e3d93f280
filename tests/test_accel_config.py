"""ArchConfig validation, derived quantities and its kept hash."""

import copy
import pickle
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from repro.accel import ArchConfig
from repro.errors import ConfigError
from repro.serve import RmatGraphSpec


class TestValidation:
    def test_defaults_valid(self):
        cfg = ArchConfig()
        assert cfg.n_pes == 256
        assert cfg.hop == 0
        assert not cfg.remote_switching

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_pes": 0},
            {"n_pes": -4},
            {"hop": -1},
            {"mac_latency": 0},
            {"queues_per_pe": 0},
            {"tracking_window": 0},
            {"frequency_mhz": 0},
            {"sharing_efficiency": 0.0},
            {"sharing_efficiency": 1.5},
            {"switch_damping": 0},
            {"convergence_patience": 0},
            {"drain_cycles": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ArchConfig(**kwargs)

    @pytest.mark.parametrize("switch", [
        "remote_switching", "pipeline_spmm", "eq5_approximate",
    ])
    def test_switches_take_only_bools(self, switch):
        # "False" is truthy: accepting it would turn the switch on.
        for bad in ("False", "true", 0, 1, None):
            with pytest.raises(ConfigError, match=f"{switch} must be a bool"):
                ArchConfig(**{switch: bad})
        for value in (True, False, np.True_, np.False_):
            stored = getattr(ArchConfig(**{switch: value}), switch)
            assert type(stored) is bool and stored == value

    def test_drain_derived_from_pes_and_mac(self):
        cfg = ArchConfig(n_pes=256, mac_latency=5)
        assert cfg.drain_cycles == 8 + 5  # log2(256) + T

    def test_drain_explicit(self):
        assert ArchConfig(drain_cycles=3).drain_cycles == 3

    def test_immutable(self):
        cfg = ArchConfig()
        with pytest.raises(Exception):
            cfg.n_pes = 2


class TestDerived:
    def test_raw_cooldown_hidden_at_defaults(self):
        # T=5 with 4 queues: hazards fully hidden.
        assert ArchConfig().raw_cooldown == 1

    def test_raw_cooldown_binds_for_deep_mac(self):
        cfg = ArchConfig(mac_latency=12, queues_per_pe=4)
        assert cfg.raw_cooldown == 8

    def test_cycles_to_ms(self):
        cfg = ArchConfig(frequency_mhz=275.0)
        assert cfg.cycles_to_ms(275000) == pytest.approx(1.0)

    def test_with_updates(self):
        cfg = ArchConfig().with_updates(hop=2, remote_switching=True)
        assert cfg.hop == 2
        assert cfg.remote_switching
        assert cfg.n_pes == 256  # untouched


# One valid changed value per field, for each value type whose hash the
# instance keeps after the first call.
CHANGED = {
    ArchConfig: {
        "n_pes": 512, "hop": 1, "remote_switching": True,
        "mac_latency": 6, "queues_per_pe": 2, "tracking_window": 3,
        "frequency_mhz": 285.0, "drain_cycles": 3,
        "sharing_efficiency": 0.9, "pipeline_spmm": False,
        "switch_damping": 0.5, "convergence_patience": 3,
        "eq5_approximate": True,
    },
    RmatGraphSpec: {
        "n_nodes": 512, "avg_degree": 4, "f1": 16, "f2": 8, "f3": 4,
        "x1_density": 0.1, "x2_density": 0.5, "seed": 3,
        "abcd": (0.45, 0.25, 0.15, 0.15),
    },
}
# Pairs of equal but distinct instances: defaults spelled two ways.
TWINS = {
    ArchConfig: (
        lambda: ArchConfig(),
        lambda: ArchConfig(drain_cycles=ArchConfig().drain_cycles),
    ),
    RmatGraphSpec: (
        lambda: RmatGraphSpec(n_nodes=384),
        lambda: RmatGraphSpec(n_nodes=384, abcd=(0.5, 0.2, 0.2, 0.1)),
    ),
}

# The values an instance keeps after its first hash or compare.
KEPT = ("_hash", "_values")


def _field_tuple(instance):
    return tuple(getattr(instance, f.name) for f in fields(instance))


@pytest.mark.parametrize("cls", [ArchConfig, RmatGraphSpec],
                         ids=lambda cls: cls.__name__)
class TestKeptHash:
    """The kept hash honours the frozen-dataclass contract."""

    def test_equals_the_generated_field_tuple_hash(self, cls):
        make, _twin = TWINS[cls]
        instance = make()
        assert hash(instance) == hash(_field_tuple(instance))
        assert hash(instance) == hash(_field_tuple(instance))  # kept

    def test_equal_distinct_instances_hash_and_compare_equal(self, cls):
        make, twin = TWINS[cls]
        a, b = make(), twin()
        assert a is not b
        assert a == b and hash(a) == hash(b)

    def test_hashed_and_unhashed_instances_compare_equal(self, cls):
        make, twin = TWINS[cls]
        hashed, fresh = make(), twin()
        hash(hashed)
        assert "_hash" not in fresh.__dict__
        assert hashed == fresh and fresh == hashed
        assert len({hashed, fresh}) == 1

    def test_replacing_any_field_changes_the_hash(self, cls):
        make, _twin = TWINS[cls]
        base = make()
        hash(base)
        for name, value in CHANGED[cls].items():
            changed = replace(base, **{name: value})
            assert changed != base, name
            assert hash(changed) != hash(base), name
            assert hash(changed) == hash(_field_tuple(changed)), name

    def test_repr_asdict_and_fields_show_no_kept_hash(self, cls):
        make, twin = TWINS[cls]
        hashed = make()
        hash(hashed)
        assert "_hash" not in repr(hashed)
        assert repr(hashed) == repr(twin())
        assert "_hash" not in asdict(hashed)
        assert asdict(hashed) == asdict(twin())
        assert "_hash" not in [f.name for f in fields(hashed)]

    def test_pickle_round_trip_keeps_eq_and_hash(self, cls):
        make, twin = TWINS[cls]
        hashed = make()
        expected = hash(hashed)
        restored = pickle.loads(pickle.dumps(hashed))
        assert restored == hashed
        assert hash(restored) == expected
        # The kept hash is not part of the pickled state.
        assert pickle.dumps(hashed) == pickle.dumps(twin())

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy],
                             ids=["copy", "deepcopy"])
    def test_copies_keep_eq_and_hash_but_no_kept_value(self, cls, clone):
        make, _twin = TWINS[cls]
        kept = make()
        expected = hash(kept)
        assert kept == make()  # both kept values are filled now
        assert set(KEPT) <= set(kept.__dict__)
        duplicate = clone(kept)
        assert duplicate is not kept
        assert not set(KEPT) & set(duplicate.__dict__)
        assert duplicate == kept and kept == duplicate
        assert hash(duplicate) == expected

    def test_a_hashed_instance_reads_its_kept_hash(self, cls):
        make, _twin = TWINS[cls]
        instance = make()
        hash(instance)
        sentinel = 12345
        object.__setattr__(instance, "_hash", sentinel)
        assert hash(instance) == sentinel
        assert {instance: 1}.get(instance) == 1

    def test_eq_against_another_class_is_not_implemented(self, cls):
        make, _twin = TWINS[cls]
        instance = make()
        # The field tuple holds equal values but is another class.
        for other in (_field_tuple(instance), None, 0):
            assert instance.__eq__(other) is NotImplemented
            assert instance != other
        assert instance.__eq__(make()) is True
