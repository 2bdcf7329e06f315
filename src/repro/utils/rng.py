"""Deterministic random-number-generator plumbing.

Every stochastic component in the library takes a ``seed`` or ``rng``
argument and converts it through :func:`ensure_rng`, so experiments are
reproducible end to end from a single integer.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from repro.exceptions import ValidationError

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from a seed, generator, or None.

    Passing an existing generator returns it unchanged so callers can
    thread one RNG through a pipeline; passing an int gives a fresh,
    deterministic generator; ``None`` gives an OS-seeded generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: RngLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from one seed.

    Used by the parallel driver so worker processes draw from
    non-overlapping streams.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    root = ensure_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(s)) for s in seeds]


def derive_seed(seed: RngLike, *tags: object) -> int:
    """Derive a deterministic sub-seed from a base seed and hashable tags.

    Lets independent components (e.g. each graph in a database) get
    stable, distinct randomness without sharing generator state.
    """
    base = 0 if seed is None else (seed if isinstance(seed, int) else 0)
    h = np.uint64(base)
    for tag in tags:
        h = np.uint64(h * np.uint64(1000003)) ^ np.uint64(abs(hash(tag)) & 0xFFFFFFFF)
    return int(h % np.uint64(2**31 - 1))


__all__ = ["RngLike", "ensure_rng", "spawn_rngs", "derive_seed"]
