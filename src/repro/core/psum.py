"""Procedure ``Psum`` — summarize explanation subgraphs into patterns (§4).

Given the explanation subgraphs ``G_s^l`` of one label group, find a
pattern set ``P^l`` that (1) covers every subgraph node and (2)
minimizes the total edge-miss penalty ``w(P) = 1 - |P_ES| / |E_S|``.
This is minimum-weight set cover; the greedy rule "maximize newly
covered nodes per unit weight" gives the H_{u_l}-approximation of
Lemma 4.3.

Candidates come from :func:`repro.mining.mine_patterns` (``PGen``),
which always includes singleton patterns, so full node coverage is
always reachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.config import GvexConfig
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.coverage import CoverageIndex, NodeRef
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

    ``candidates`` can inject a pre-mined pool (StreamGVEX's ΔP); by
    default ``PGen`` mines fresh ones.
    """
    hosts = [g for g in subgraphs if g.n_nodes > 0]
    if not hosts:
        return PsumResult()
    if candidates is None:
        candidates = mine_patterns(
            hosts,
            max_size=config.max_pattern_size,
            min_support=config.min_pattern_support,
        )

    index = CoverageIndex(hosts)
    total_edges = index.n_edges
    universe = set(index.all_nodes)
    total_nodes = len(universe)

    # precompute coverage and weights per candidate
    pool: List[Tuple[Pattern, Set[NodeRef], Set]] = []
    for mined in candidates:
        cov = index.coverage(mined.pattern)
        if cov.n_nodes == 0:
            continue
        pool.append((mined.pattern, set(cov.nodes), set(cov.edges)))

    selected: List[Pattern] = []
    covered: Set[NodeRef] = set()
    covered_edges: Set = set()
    while covered != universe and pool:
        best_i = -1
        best_ratio = -1.0
        for i, (pattern, nodes, edges) in enumerate(pool):
            new_nodes = len(nodes - covered)
            if new_nodes == 0:
                continue
            weight = _edge_miss_weight(edges, total_edges)
            ratio = new_nodes / (weight + _EPS)
            if ratio > best_ratio:
                best_ratio = ratio
                best_i = i
        if best_i < 0:
            break  # no candidate adds coverage
        pattern, nodes, edges = pool.pop(best_i)
        selected.append(pattern)
        covered |= nodes
        covered_edges |= edges

    return PsumResult(
        patterns=selected,
        covered_nodes=len(covered),
        total_nodes=total_nodes,
        covered_edges=len(covered_edges),
        total_edges=total_edges,
    )


def _edge_miss_weight(pattern_edges: Set, total_edges: int) -> float:
    """``w(P) = 1 - |P_ES| / |E_S|`` (Jaccard-style edge penalty)."""
    if total_edges == 0:
        return 0.0
    return 1.0 - len(pattern_edges) / total_edges


__all__ = ["summarize", "PsumResult"]
