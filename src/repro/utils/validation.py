"""Small argument-validation helpers shared across the package.

These raise :class:`repro.errors.ConfigError` with a message naming the
offending argument, so user-facing constructors can validate succinctly.
Each returns the value it accepted (numbers in their plain Python type),
so a caller may keep the normalized value or ignore it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError


def check_instance(value, cls, name):
    """Return ``value`` if it is an instance of ``cls`` (a class or a
    tuple of classes), else raise."""
    if not isinstance(value, cls):
        expected = " or ".join(
            c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,))
        )
        raise ConfigError(
            f"{name} must be {expected}, got {type(value).__name__}"
        )
    return value


def check_choice(value, choices, name):
    """Return ``value`` if it is one of ``choices``, else raise."""
    if value not in choices:
        raise ConfigError(
            f"{name} must be one of {', '.join(map(repr, choices))}, "
            f"got {value!r}"
        )
    return value


def check_positive_int(value, name):
    """Return ``value`` as ``int`` if it is a positive integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ConfigError(f"{name} must be > 0, got {value}")
    return int(value)


def check_non_negative_int(value, name):
    """Return ``value`` as ``int`` if it is a non-negative integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_bool(value, name):
    """Return ``value`` as ``bool`` if it is a bool or ``numpy.bool_``.

    A switch refuses anything else: the string ``"false"`` is truthy.
    """
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(
            f"{name} must be a bool, got {type(value).__name__}"
        )
    return bool(value)


def _as_float(value, name):
    """``value`` as ``float`` if it is a real number and not a bool."""
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ConfigError(
            f"{name} must be a number, got {type(value).__name__}"
        )
    return float(value)


def check_positive_finite(value, name):
    """Return ``value`` as ``float`` if it is a finite positive number."""
    value = _as_float(value, name)
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"{name} must be finite and > 0, got {value}")
    return value


def check_non_negative_finite(value, name):
    """Return ``value`` as ``float`` if it is a finite number >= 0."""
    value = _as_float(value, name)
    if not math.isfinite(value) or value < 0:
        raise ConfigError(f"{name} must be finite and >= 0, got {value}")
    return value


def check_fraction(value, name, *, inclusive_low=True):
    """Return ``value`` as ``float`` if it lies in [0, 1] (or (0, 1])."""
    value = _as_float(value, name)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    if not (low_ok and value <= 1.0):
        raise ConfigError(f"{name} must lie in the unit interval, got {value}")
    return value


def check_1d_int_array(values, name):
    """Return ``values`` as a 1-D int64 numpy array, else raise."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ConfigError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise ConfigError(f"{name} must contain integers")
    return arr.astype(np.int64, copy=False)
