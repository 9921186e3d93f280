"""RNG helpers and argument validation."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.utils import (
    check_1d_int_array,
    check_fraction,
    check_non_negative_int,
    check_positive_int,
    rng_from_seed,
    spawn_rngs,
)
from repro.utils.validation import (
    check_choice,
    check_instance,
    check_non_negative_finite,
    check_positive_finite,
)


class TestRngFromSeed:
    def test_int_seed_is_deterministic(self):
        a = rng_from_seed(42).random(5)
        b = rng_from_seed(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(1)
        assert rng_from_seed(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(rng_from_seed(None), np.random.Generator)

    def test_bad_seed_raises(self):
        with pytest.raises(ConfigError):
            rng_from_seed("not a seed")


class TestSpawnRngs:
    def test_children_are_independent(self):
        children = spawn_rngs(7, 3)
        draws = [c.random(4).tolist() for c in children]
        assert draws[0] != draws[1] != draws[2]

    def test_deterministic_across_calls(self):
        a = [c.random(3).tolist() for c in spawn_rngs(7, 2)]
        b = [c.random(3).tolist() for c in spawn_rngs(7, 2)]
        assert a == b

    def test_negative_count_raises(self):
        with pytest.raises(ConfigError):
            spawn_rngs(7, -1)

    def test_zero_count_ok(self):
        assert spawn_rngs(7, 0) == []


class TestValidation:
    def test_positive_int_accepts(self):
        assert check_positive_int(5, "x") == 5
        assert check_positive_int(np.int64(5), "x") == 5

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3", True])
    def test_positive_int_rejects(self, bad):
        with pytest.raises(ConfigError):
            check_positive_int(bad, "x")

    def test_non_negative_int_accepts_zero(self):
        assert check_non_negative_int(0, "x") == 0

    def test_non_negative_int_rejects_negative(self):
        with pytest.raises(ConfigError):
            check_non_negative_int(-1, "x")

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_fraction_accepts(self, value):
        assert check_fraction(value, "x") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_fraction_rejects_out_of_range(self, value):
        with pytest.raises(ConfigError):
            check_fraction(value, "x")

    def test_fraction_interval_is_closed(self):
        # Both ends belong to the interval; NaN and the infinities lie
        # outside it.
        assert check_fraction(0, "x") == 0.0
        assert check_fraction(1, "x") == 1.0
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="unit interval"):
                check_fraction(bad, "x")

    @pytest.mark.parametrize("bad", ["0.5", True, None, 0.5j])
    def test_fraction_takes_only_numbers(self, bad):
        with pytest.raises(ConfigError, match="x must be a number"):
            check_fraction(bad, "x")

    def test_instance_names_the_classes(self):
        assert check_instance(3, int, "x") == 3
        assert check_instance(3.0, (int, float), "x") == 3.0
        with pytest.raises(ConfigError, match="x must be int, got str"):
            check_instance("3", int, "x")
        with pytest.raises(ConfigError,
                           match="x must be int or float, got NoneType"):
            check_instance(None, (int, float), "x")

    def test_choice(self):
        assert check_choice("ring", ("ring", "mesh2d"), "x") == "ring"
        with pytest.raises(
            ConfigError, match="x must be one of 'ring', 'mesh2d', got 'torus'"
        ):
            check_choice("torus", ("ring", "mesh2d"), "x")

    def test_non_negative_finite(self):
        assert check_non_negative_finite(0, "x") == 0.0
        assert type(check_non_negative_finite(np.float32(2), "x")) is float
        for bad in (-0.5, math.nan, math.inf, True, "1"):
            with pytest.raises(ConfigError, match="x must be"):
                check_non_negative_finite(bad, "x")

    def test_positive_finite_refuses_nan_and_infinity(self):
        for bad in (math.nan, math.inf, -math.inf, 0.0):
            with pytest.raises(ConfigError, match="x must be finite"):
                check_positive_finite(bad, "x")

    def test_1d_int_array_converts(self):
        out = check_1d_int_array([1, 2, 3], "x")
        assert out.dtype == np.int64
        assert out.tolist() == [1, 2, 3]

    def test_1d_int_array_accepts_whole_floats(self):
        out = check_1d_int_array(np.array([1.0, 2.0]), "x")
        assert out.tolist() == [1, 2]

    def test_1d_int_array_rejects_2d(self):
        with pytest.raises(ConfigError):
            check_1d_int_array(np.zeros((2, 2)), "x")

    def test_1d_int_array_rejects_fractional(self):
        with pytest.raises(ConfigError):
            check_1d_int_array([1.5], "x")
