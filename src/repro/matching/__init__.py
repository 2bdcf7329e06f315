"""Matching substrate: induced subgraph isomorphism and pattern coverage.

One matcher: per-host :class:`MatchContext`\\ s with int adjacency
rows, a process-wide :data:`PLAN_CACHE`, and database-batched
:func:`pmatch`. It enumerates matchings in the seed VF2's deterministic
order; see ``docs/matching.md`` for the contract and
:mod:`repro.reference` for the parity reference.
"""

from repro.matching.canonical import deduplicate_patterns, pattern_identity
from repro.matching.context import (
    MatchContext,
    MatchPlan,
    graph_content_key,
    matching_order,
)
from repro.matching.coverage import (
    CoverageIndex,
    PatternCoverage,
    covered_node_count,
    match_coverage,
    pmatch,
)
from repro.matching.isomorphism import (
    are_isomorphic,
    find_isomorphisms,
    first_isomorphism,
    is_subgraph_isomorphic,
)
from repro.matching.plan_cache import PLAN_CACHE, MatchPlanCache

__all__ = [
    "find_isomorphisms",
    "first_isomorphism",
    "is_subgraph_isomorphic",
    "are_isomorphic",
    "deduplicate_patterns",
    "pattern_identity",
    "CoverageIndex",
    "PatternCoverage",
    "match_coverage",
    "pmatch",
    "covered_node_count",
    "MatchContext",
    "MatchPlan",
    "MatchPlanCache",
    "PLAN_CACHE",
    "graph_content_key",
    "matching_order",
]
