"""Shared low-level utilities: RNG hierarchy, validation, statistics, tables."""

from repro.util.rng import RngHierarchy, spawn_generator
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability_vector,
)

__all__ = [
    "RngHierarchy",
    "spawn_generator",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability_vector",
]
