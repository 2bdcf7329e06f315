"""IncUpdateP's subset index: ``V_S``'s connected subsets, kept by add/drop.

StreamGVEX's ``IncUpdateP`` (§5, Procedure 5) draws its candidate
patterns from the selected set ``V_S``, which changes one node at a
time. :class:`SubsetIndex` keeps every connected subset of ``V_S``
with 2 to ``max_size`` nodes, each with its isomorphism class, its
ESU path (:func:`~repro.mining.enumerate.esu_path`) and its induced
edges. Admitting a node adds the subsets that contain it; evicting one
drops them. Nothing is re-enumerated or re-classified for the nodes
that stay.

:meth:`SubsetIndex.pool` lists the incumbent patterns, then
``mine_patterns([G[V_S]], max_size, 1, max_candidates, enumeration_cap)``
element for element. ESU emits subsets in lexicographic order of their
paths, so ``mine_patterns``' first-seen order is the order of each
class's smallest path, and its cap keeps the smallest paths.

The index is also the paper's ``IncPMatch``: each candidate carries its
coverage of ``G[V_S]``. The matcher is induced, so a class's matches in
``G[V_S]`` are its live subsets, each matched once per automorphism:
the class covers the union of their nodes and of their induced edges.
A one-node pattern matches the ``V_S`` nodes of its type, on hosts of
its own directedness only. So pricing a candidate builds and matches
no ``Pattern``; :attr:`Candidate.pattern` builds one on demand.

ApproxGVEX's novelty tie-break keeps one index of its selection too,
and reads only :meth:`SubsetIndex.top_classes`: the classes that
``mine_patterns`` over ``G[S]`` would keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import factorial
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.mining.classes import SubsetClassifier, subset_signature
from repro.mining.enumerate import connected_node_subsets, esu_path
from repro.mining.mdl import mdl_score

Subset = Tuple[int, ...]
#: a host edge, in the host's canonical orientation
Edge = Tuple[int, int]


@dataclass(frozen=True)
class Candidate:
    """One ``IncUpdateP`` candidate and what its matches in ``G[V_S]`` cover."""

    nodes: FrozenSet[int]
    edges: FrozenSet[Edge]
    #: matched subsets × k!: at least the number of its matches
    mappings: int
    #: its occurrences as ``mine_patterns`` counts them (MDL's input)
    embeddings: int
    #: builds the pattern; an incumbent is returned as it is
    pattern: Callable[[], Pattern]


class SubsetIndex:
    """The connected subsets of a node set of ``graph``, by class.

    ``classifier`` (a new one by default) may be shared with other
    mining and with other indexes, on any hosts: classes are
    content-defined and nothing ranks by their ids, so sharing only
    saves work. It is not thread-safe.
    """

    def __init__(
        self,
        graph: Graph,
        max_size: int,
        enumeration_cap: int = 100_000,
        classifier: Optional[SubsetClassifier] = None,
    ) -> None:
        self.graph = graph
        self.max_size = max_size
        self.enumeration_cap = enumeration_cap
        self.classifier = classifier if classifier is not None else SubsetClassifier()
        self.nodes: Set[int] = set()
        #: live subset -> (its ESU path, its class, its induced edges)
        self._live: Dict[Subset, Tuple[Subset, int, Tuple[Edge, ...]]] = {}
        #: ``Pattern.from_induced`` of live subsets, built on demand
        self._induced: Dict[Subset, Pattern] = {}

    def add(self, node: int) -> None:
        """Admit ``node``: index the connected subsets that contain it."""
        graph = self.graph
        if not 0 <= node < graph.n_nodes:
            raise GraphError(f"node {node} not in graph (n={graph.n_nodes})")
        self.nodes.add(node)
        for subset in connected_node_subsets(
            graph, self.max_size, min_size=2, cap=None, nodes=self.nodes,
            containing=node,
        ):
            signature = subset_signature(graph, subset)
            self._live[subset] = (
                esu_path(graph, subset),
                self.classifier.of_signature(signature),
                # subsets are sorted, so undirected edges come out (low, high)
                tuple((subset[i], subset[j]) for i, j, _ in signature[2]),
            )

    def drop(self, node: int) -> None:
        """Evict ``node``: forget the subsets that contain it."""
        self.nodes.discard(node)
        for subset in [s for s in self._live if node in s]:
            del self._live[subset]
            self._induced.pop(subset, None)

    @property
    def n_edges(self) -> int:
        """The number of edges of ``G[nodes]``."""
        nodes = self.nodes
        ends = sum(len(self.graph.neighbors(v) & nodes) for v in nodes)
        return ends if self.graph.directed else ends // 2

    def pool(
        self, incumbents: Sequence[Pattern] = (), max_candidates: int = 50
    ) -> List[Candidate]:
        """``IncUpdateP``'s candidates over ``G[nodes]``, in order.

        The ``incumbents`` (patterns of at most ``max_size`` nodes), then
        the top ``max_candidates`` classes as ``mine_patterns`` ranks
        them, then one singleton per node type.
        """
        # coverage counts every live subset; the ranking may count fewer
        members: Dict[int, List[Subset]] = {}
        for subset, (_, cls, _) in self._live.items():
            members.setdefault(cls, []).append(subset)
        top, counts, first = self._ranked(max_candidates)
        by_type: Dict[int, List[int]] = {}
        for v in sorted(self.nodes):
            by_type.setdefault(self.graph.node_type(v), []).append(v)

        def incumbent(p: Pattern) -> Candidate:
            if p.n_nodes == 1:
                cover = self._one_node(by_type, p.node_type(0), p.graph.directed)
            else:
                cover = self._covered(members.get(self.classifier.class_of(p), []))
            return Candidate(*cover, embeddings=1, pattern=lambda: p)

        pool = [incumbent(p) for p in incumbents]
        pool.extend(
            Candidate(
                *self._covered(members[cls]),
                embeddings=counts[cls],
                pattern=partial(self._pattern, first[cls][1]),
            )
            for cls in top
        )
        # ``Pattern.singleton`` builds an undirected pattern
        pool.extend(
            Candidate(
                *self._one_node(by_type, t, False),
                embeddings=len(by_type[t]),
                pattern=partial(Pattern.singleton, t),
            )
            for t in sorted(by_type)
        )
        return pool

    def top_classes(self, max_candidates: int) -> Set[int]:
        """The classes among ``mine_patterns``' top ``max_candidates``."""
        return set(self._ranked(max_candidates)[0])

    def _ranked(
        self, max_candidates: int
    ) -> Tuple[List[int], Dict[int, int], Dict[int, Tuple[Subset, Subset]]]:
        """The top classes in ``mine_patterns``' order, each class's
        count, and its smallest ESU path with that path's subset."""
        # the ranking counts only the cap smallest paths
        entries: Iterable = self._live.items()
        if len(self._live) > self.enumeration_cap:
            entries = sorted(entries, key=lambda item: item[1][0])
            entries = entries[: self.enumeration_cap]
        counts: Dict[int, int] = {}
        first: Dict[int, Tuple[Subset, Subset]] = {}
        for subset, (path, cls, _) in entries:
            counts[cls] = counts.get(cls, 0) + 1
            best = first.get(cls)
            if best is None or path < best[0]:
                first[cls] = (path, subset)
        patterns = self.classifier.patterns

        def rank(cls: int) -> Tuple[float, int, str, Subset]:
            p = patterns[cls]
            return (-mdl_score(p, counts[cls]), p.size, p.key(), first[cls][0])

        return sorted(first, key=rank)[:max_candidates], counts, first

    def _covered(
        self, subsets: Sequence[Subset]
    ) -> Tuple[FrozenSet[int], FrozenSet[Edge], int]:
        """Nodes, edges and a bound on the matches of one class's subsets."""
        if not subsets:
            return frozenset(), frozenset(), 0
        live = self._live
        return (
            frozenset().union(*subsets),
            frozenset().union(*[live[s][2] for s in subsets]),
            len(subsets) * factorial(len(subsets[0])),
        )

    def _one_node(
        self, by_type: Dict[int, List[int]], node_type: int, directed: bool
    ) -> Tuple[FrozenSet[int], FrozenSet[Edge], int]:
        """What a one-node pattern covers: its type's nodes, when it has
        the host's directedness (the matcher's rule)."""
        if directed != self.graph.directed:
            return frozenset(), frozenset(), 0
        nodes = by_type.get(node_type, [])
        return frozenset(nodes), frozenset(), len(nodes)

    def _pattern(self, subset: Subset) -> Pattern:
        pattern = self._induced.get(subset)
        if pattern is None:
            pattern = self._induced[subset] = Pattern.from_induced(self.graph, subset)
        return pattern


__all__ = ["Candidate", "SubsetIndex"]
