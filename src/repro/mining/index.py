"""IncUpdateP's subset index: ``V_S``'s connected subsets, kept by add/drop.

StreamGVEX's ``IncUpdateP`` (§5, Procedure 5) draws its candidate
patterns from the selected set ``V_S``, which changes one node at a
time. :class:`SubsetIndex` keeps every connected subset of ``V_S``
with 2 to ``max_size`` nodes, each with its isomorphism class and its
ESU path (:func:`~repro.mining.enumerate.esu_path`). Admitting a node
adds the subsets that contain it; evicting one drops them. Nothing is
re-enumerated or re-classified for the nodes that stay.

:meth:`SubsetIndex.mined` equals
``mine_patterns([G[V_S]], max_size, 1, max_candidates, enumeration_cap)``
element for element. ESU emits subsets in lexicographic order of their
paths, so ``mine_patterns``' first-seen order is the order of each
class's smallest path, and its cap keeps the smallest paths.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.mining.classes import SubsetClassifier
from repro.mining.enumerate import connected_node_subsets, esu_path
from repro.mining.mdl import MinedPattern, mdl_score
from repro.mining.pgen import _singletons

Subset = Tuple[int, ...]


class SubsetIndex:
    """The connected subsets of a node set of ``graph``, by class.

    Other mining over the same stream may share :attr:`classifier`:
    classes are content-defined, so sharing only saves work.
    """

    def __init__(
        self, graph: Graph, max_size: int, enumeration_cap: int = 100_000
    ) -> None:
        self.graph = graph
        self.max_size = max_size
        self.enumeration_cap = enumeration_cap
        self.classifier = SubsetClassifier()
        self.nodes: Set[int] = set()
        #: live subset -> (its ESU path, its class)
        self._live: Dict[Subset, Tuple[Subset, int]] = {}
        #: ``Pattern.from_induced`` of live subsets, built on demand
        self._induced: Dict[Subset, Pattern] = {}

    def add(self, node: int) -> None:
        """Admit ``node``: index the connected subsets that contain it."""
        self.nodes.add(node)
        graph = self.graph
        for subset in connected_node_subsets(
            graph, self.max_size, min_size=2, cap=None, nodes=self.nodes,
            containing=node,
        ):
            self._live[subset] = (
                esu_path(graph, subset),
                self.classifier.classify(graph, subset),
            )

    def drop(self, node: int) -> None:
        """Evict ``node``: forget the subsets that contain it."""
        self.nodes.discard(node)
        for subset in [s for s in self._live if node in s]:
            del self._live[subset]
            self._induced.pop(subset, None)

    def mined(self, max_candidates: int = 50) -> List[MinedPattern]:
        """``mine_patterns`` over ``G[nodes]``, from the index."""
        entries = list(self._live.items())
        if len(entries) > self.enumeration_cap:
            entries.sort(key=lambda item: item[1][0])
            del entries[self.enumeration_cap :]
        counts: Dict[int, int] = {}
        first: Dict[int, Tuple[Subset, Subset]] = {}
        for subset, (path, cls) in entries:
            counts[cls] = counts.get(cls, 0) + 1
            best = first.get(cls)
            if best is None or path < best[0]:
                first[cls] = (path, subset)
        patterns = self.classifier.patterns

        def rank(cls: int) -> Tuple[int, int, str, Subset]:
            p = patterns[cls]
            return (-mdl_score(p, counts[cls]), p.size, p.key(), first[cls][0])

        top = sorted(first, key=rank)[:max_candidates]
        mined = [
            MinedPattern(self._pattern(first[cls][1]), support=1, embeddings=counts[cls])
            for cls in top
        ]
        mined.extend(_singletons([[self.graph.node_type(v) for v in sorted(self.nodes)]]))
        return mined

    def _pattern(self, subset: Subset) -> Pattern:
        pattern = self._induced.get(subset)
        if pattern is None:
            pattern = self._induced[subset] = Pattern.from_induced(self.graph, subset)
        return pattern


__all__ = ["SubsetIndex"]
