"""Procedure ``Psum`` — summarize explanation subgraphs into patterns (§4).

Given the explanation subgraphs ``G_s^l`` of one label group, find a
pattern set ``P^l`` that (1) covers every subgraph node and (2)
minimizes the total edge-miss penalty ``w(P) = 1 - |P_ES| / |E_S|``.
This is minimum-weight set cover; the greedy rule "maximize newly
covered nodes per unit weight" gives the H_{u_l}-approximation of
Lemma 4.3.

Candidates come from :func:`repro.mining.mine_patterns` (``PGen``),
which always includes singleton patterns, so full node coverage is
always reachable. ``PGen`` also prices them: each mined candidate
carries the coverage its enumeration saw, which is the matcher's
(``PMatch`` is induced), so a summarize runs the matcher only for a
candidate ``PGen`` could not price or a pool the caller injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, List, Optional, Sequence, Set, Tuple

from repro.config import GvexConfig
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.coverage import CoverageIndex, EdgeRef, NodeRef
from repro.mining.mdl import MinedPattern
from repro.mining.pgen import mine_patterns

#: tie-break epsilon so zero-weight patterns stay strictly preferable
_EPS = 1e-9


@dataclass
class PsumResult:
    """Outcome of the summarize phase."""

    patterns: List[Pattern] = field(default_factory=list)
    covered_nodes: int = 0
    total_nodes: int = 0
    covered_edges: int = 0
    total_edges: int = 0

    @property
    def node_coverage_complete(self) -> bool:
        return self.covered_nodes == self.total_nodes

    @property
    def edge_loss(self) -> float:
        """Fraction of subgraph edges the pattern set fails to cover
        (Fig. 8c-d's metric)."""
        if self.total_edges == 0:
            return 0.0
        return 1.0 - self.covered_edges / self.total_edges


def summarize(
    subgraphs: Sequence[Graph],
    config: GvexConfig,
    candidates: Optional[Sequence[MinedPattern]] = None,
) -> PsumResult:
    """Run Psum over explanation subgraphs; returns the selected patterns.

    ``candidates`` can inject a pre-mined pool (StreamGVEX's
    ``IncUpdateP`` pool), which the matcher prices; by default ``PGen``
    mines fresh ones and prices them from its own enumeration, leaving
    the matcher only the candidates it could not price.
    """
    hosts = [g for g in subgraphs if g.n_nodes > 0]
    if not hosts:
        return PsumResult()
    injected = candidates is not None
    if candidates is None:
        candidates = mine_patterns(
            hosts,
            max_size=config.max_pattern_size,
            min_support=config.min_pattern_support,
        )

    index = CoverageIndex(hosts)
    coverage = [
        index.coverage(m.pattern) if injected or m.coverage is None else m.coverage
        for m in candidates
    ]
    chosen = weighted_cover(
        [(cov.nodes, cov.edges) for cov in coverage], index.n_nodes, index.n_edges
    )
    covered: Set[NodeRef] = set()
    covered_edges: Set[EdgeRef] = set()
    for i in chosen:
        covered |= coverage[i].nodes
        covered_edges |= coverage[i].edges
    return PsumResult(
        patterns=[candidates[i].pattern for i in chosen],
        covered_nodes=len(covered),
        total_nodes=index.n_nodes,
        covered_edges=len(covered_edges),
        total_edges=index.n_edges,
    )


def weighted_cover(
    coverage: Sequence[Tuple[AbstractSet, AbstractSet]],
    n_nodes: int,
    n_edges: int,
) -> List[int]:
    """Psum's weighted-cover greedy: the positions it selects, in order.

    ``coverage[i]`` holds the nodes and the edges candidate ``i``
    covers in hosts of ``n_nodes`` nodes and ``n_edges`` edges (every
    covered node is a host node). Each round takes the candidate with
    the most newly covered nodes per unit weight ``w(P)``, the earliest
    on a tie, until every node is covered or no candidate adds one.
    """
    remaining = [i for i, (nodes, _) in enumerate(coverage) if nodes]
    chosen: List[int] = []
    covered: Set = set()
    while len(covered) < n_nodes and remaining:
        best_i = -1
        best_ratio = -1.0
        for i in remaining:
            nodes, edges = coverage[i]
            new_nodes = len(nodes - covered)
            if new_nodes == 0:
                continue
            weight = _edge_miss_weight(edges, n_edges)
            ratio = new_nodes / (weight + _EPS)
            if ratio > best_ratio:
                best_ratio = ratio
                best_i = i
        if best_i < 0:
            break  # no candidate adds coverage
        remaining.remove(best_i)
        chosen.append(best_i)
        covered |= coverage[best_i][0]
    return chosen


def _edge_miss_weight(pattern_edges: AbstractSet, total_edges: int) -> float:
    """``w(P) = 1 - |P_ES| / |E_S|`` (Jaccard-style edge penalty)."""
    if total_edges == 0:
        return 0.0
    return 1.0 - len(pattern_edges) / total_edges


__all__ = ["summarize", "weighted_cover", "PsumResult"]
