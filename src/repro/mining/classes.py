"""Isomorphism classes of host subsets, read from the host's adjacency.

Mining classifies every enumerated connected subset up to isomorphism.
Building a :class:`~repro.graphs.pattern.Pattern` per subset (two
``Graph`` objects, each scanning the host's edges) and canonizing it is
what made mining expensive. A subset's *signature* is instead read
straight from the host: two subsets have equal signatures exactly when
their ``Pattern.from_induced`` graphs have equal content keys. So a
pattern is built from the signature, and canonized, only for a
signature not seen before; every later subset with that signature is a
dict hit. Signatures depend only on content, so one
:class:`SubsetClassifier` serves every host it is handed.

The classifier's patterns stand for their classes: their edges are in
signature order, not in the host's. Callers that return a pattern to
the user build ``Pattern.from_induced`` of the subset they report.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.canonical import pattern_identity

#: ``(directed, node types in order, sorted (pos u, pos w, edge type))``
Signature = Tuple[bool, Tuple[int, ...], Tuple[Tuple[int, int, int], ...]]


def subset_signature(host: Graph, subset: Sequence[int]) -> Signature:
    """The content of ``host``'s subgraph induced by the sorted ``subset``.

    Positions in ``subset`` are the node ids ``Pattern.from_induced``
    assigns. On undirected hosts each edge is read once, in its
    canonical orientation (lower position first). Pairs are visited in
    position order, so the edge triples come out sorted.
    """
    edge_types = host.edge_types
    edges: List[Tuple[int, int, int]] = []
    k = len(subset)
    for i in range(k):
        u = subset[i]
        out = host.neighbors(u)
        for j in range(0 if host.directed else i + 1, k):
            w = subset[j]
            if w in out:
                edges.append((i, j, edge_types[(u, w)]))
    types = tuple(host.node_types[list(subset)].tolist())
    return (host.directed, types, tuple(edges))


class SubsetClassifier:
    """Maps subsets and patterns to dense isomorphism-class ids.

    A class id indexes :attr:`patterns`, whose entry is the first
    pattern registered for that class. ``pattern_identity`` runs once
    per new signature or pattern content; every other lookup is a dict
    hit.
    """

    def __init__(self) -> None:
        self.patterns: List[Pattern] = []
        self._identity: Dict[str, List[Pattern]] = {}
        self._by_content: Dict[str, int] = {}
        self._by_signature: Dict[Signature, int] = {}

    def class_of(self, pattern: Pattern) -> int:
        """The class of ``pattern``, registering it if it starts one."""
        content = pattern.graph.content_key()
        cls = self._by_content.get(content)
        if cls is None:
            canon = pattern_identity(pattern, self._identity)
            if canon is pattern:
                cls = len(self.patterns)
                self.patterns.append(pattern)
            else:
                cls = self._by_content[canon.graph.content_key()]
            self._by_content[content] = cls
        return cls

    def classify(self, host: Graph, subset: Sequence[int]) -> int:
        """The class of the connected, sorted ``subset`` of ``host``."""
        return self.of_signature(subset_signature(host, subset))

    def of_signature(self, signature: Signature) -> int:
        """The class of the connected subsets whose signature this is."""
        cls = self._by_signature.get(signature)
        if cls is None:
            directed, types, edges = signature
            pattern = Pattern.from_parts(
                types,
                [(i, j) for i, j, _ in edges],
                directed=directed,
                edge_types=[t for _, _, t in edges],
            )
            cls = self._by_signature[signature] = self.class_of(pattern)
        return cls


__all__ = ["Signature", "SubsetClassifier", "subset_signature"]
