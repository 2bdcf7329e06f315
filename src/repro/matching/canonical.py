"""Exact pattern deduplication.

Pattern WL keys (:meth:`repro.graphs.Pattern.key`) are cheap but only
*necessary* for isomorphism; this module buckets candidates by key and
resolves collisions with the exact matcher, giving a correct canonical
set of unique patterns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.graphs.pattern import Pattern
from repro.matching.isomorphism import are_isomorphic


def deduplicate_patterns(patterns: Iterable[Pattern]) -> List[Pattern]:
    """Unique patterns up to isomorphism, preserving first-seen order."""
    buckets: Dict[str, List[Pattern]] = {}
    unique: List[Pattern] = []
    for p in patterns:
        bucket = buckets.setdefault(p.key(), [])
        if not any(are_isomorphic(p, q) for q in bucket):
            bucket.append(p)
            unique.append(p)
    return unique


def pattern_identity(pattern: Pattern, known: Dict[str, List[Pattern]]) -> Pattern:
    """Return the canonical representative of ``pattern`` in ``known``.

    Registers the pattern if unseen. ``known`` maps WL key -> the
    distinct patterns sharing it.
    """
    bucket = known.setdefault(pattern.key(), [])
    for q in bucket:
        # content-identical graphs are isomorphic under the identity
        # mapping — the common case when serve paths re-create the
        # same pattern per request; the search runs only on genuine
        # relabellings
        if (
            q is pattern
            or q.graph.content_key() == pattern.graph.content_key()
            or are_isomorphic(pattern, q)
        ):
            return q
    bucket.append(pattern)
    return pattern


__all__ = ["deduplicate_patterns", "pattern_identity"]
