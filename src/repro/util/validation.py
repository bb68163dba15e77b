"""Small argument-validation helpers used across the library.

These raise :class:`repro.errors.ConfigurationError` (not ``ValueError``)
so that user-facing constructors surface a consistent error type.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_probability_vector",
    "check_in",
    "check_unique_ids",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0`` (and finite); return it."""
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0`` (inf allowed — limits are often unbounded)."""
    if math.isnan(value) or value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it."""
    if math.isnan(value) or not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_probability_vector(name: str, values: Sequence[float]) -> np.ndarray:
    """Require a non-empty vector of non-negative weights summing to ~1."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError(f"{name} must be a non-empty 1-D vector")
    if np.any(arr < 0) or not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} must contain finite non-negative entries")
    total = float(arr.sum())
    if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
        raise ConfigurationError(f"{name} must sum to 1, got {total}")
    return arr


def check_in(name: str, value, allowed) -> object:
    """Require ``value`` to be a member of ``allowed``; return it."""
    if value not in allowed:
        raise ConfigurationError(f"{name} must be one of {sorted(map(str, allowed))}, got {value!r}")
    return value


def check_unique_ids(what: str, ids: np.ndarray) -> None:
    """Require non-negative, unique event ids: one sort and one
    neighbour compare, not ``np.unique``'s hashing."""
    ids = np.sort(ids)
    if ids.size and ids[0] < 0:
        raise ConfigurationError(f"{what} event ids must be non-negative")
    if (ids[1:] == ids[:-1]).any():
        raise ConfigurationError(f"{what} event ids must be unique")
