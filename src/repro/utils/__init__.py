"""Shared utilities: seeded RNG helpers and validation."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
