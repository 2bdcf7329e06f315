"""The ``PGen`` pattern-candidate generator (§4).

Mines connected patterns from a set of explanation subgraphs by
exhaustive ESU enumeration (exact for the small subgraphs GVEX
produces), deduplicates them up to isomorphism, keeps those meeting the
support threshold, and ranks by MDL saving. Single-node patterns for
every node type present are always included, which keeps Psum's
node-coverage problem feasible (Lemma 4.3's precondition; see
DESIGN.md §3).

Every enumerated subset is classified by its content signature
(:mod:`repro.mining.classes`), so a ``Pattern`` is canonized only for
a signature not seen before, and :func:`mine_patterns` builds one
``Pattern.from_induced`` per class to represent it.
:func:`fresh_classes` is ``IncPGen``'s ΔP as a lazy generator: callers
that only ask whether ΔP is empty stop at its first element.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import MiningError
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.mining.classes import SubsetClassifier
from repro.mining.enumerate import connected_node_subsets
from repro.mining.mdl import MinedPattern


#: how many subsets of a new node's ball ``IncPGen`` enumerates at most
FRESH_CAP = 20_000


def mine_patterns(
    hosts: Sequence[Graph],
    max_size: int = 5,
    min_support: int = 1,
    max_candidates: Optional[int] = 200,
    enumeration_cap: int = 100_000,
) -> List[MinedPattern]:
    """Mine frequent connected patterns from host graphs.

    Parameters
    ----------
    hosts:
        The explanation subgraphs to summarize.
    max_size:
        Maximum pattern node count.
    min_support:
        Minimum number of distinct hosts a (non-singleton) pattern must
        occur in.
    max_candidates:
        Keep only the top candidates by MDL saving (singletons are
        appended afterwards and never dropped).
    enumeration_cap:
        Per-host cap on enumerated subsets (safety bound).

    Returns
    -------
    Mined patterns sorted by decreasing MDL saving, then size, then WL
    key, then first occurrence; singleton patterns for every observed
    node type are always present at the end. Each class is represented
    by ``Pattern.from_induced`` of its first subset (hosts in order,
    each host in ESU order), built once per class.
    """
    if max_size < 1:
        raise MiningError(f"max_size must be >= 1, got {max_size}")
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")

    classifier = SubsetClassifier()
    represented: Dict[int, Pattern] = {}
    support: Dict[int, Set[int]] = {}
    embeddings: Dict[int, int] = {}

    for h, host in enumerate(hosts):
        for subset in connected_node_subsets(
            host, max_size, min_size=2, cap=enumeration_cap
        ):
            cls = classifier.classify(host, subset)
            if cls not in represented:
                represented[cls] = Pattern.from_induced(host, subset)
            support.setdefault(cls, set()).add(h)
            embeddings[cls] = embeddings.get(cls, 0) + 1

    mined = [
        MinedPattern(represented[c], support=len(s), embeddings=embeddings[c])
        for c, s in support.items()
        if len(s) >= min_support
    ]
    mined.sort(key=lambda m: (-m.mdl_score, m.pattern.size, m.pattern.key()))
    if max_candidates is not None:
        mined = mined[:max_candidates]

    mined.extend(_singletons([host.node_types.tolist() for host in hosts]))
    return mined


def _singletons(host_types: Sequence[Sequence[int]]) -> List[MinedPattern]:
    """One singleton candidate per node type, with its occurrence counts.

    ``host_types[h]`` lists the node types of host ``h``.
    """
    counts: Dict[int, int] = {}
    host_sets: Dict[int, Set[int]] = {}
    for h, types in enumerate(host_types):
        for t in types:
            counts[t] = counts.get(t, 0) + 1
            host_sets.setdefault(t, set()).add(h)
    return [
        MinedPattern(
            Pattern.singleton(t), support=len(host_sets[t]), embeddings=counts[t]
        )
        for t in sorted(counts)
    ]


def fresh_classes(
    host: Graph,
    new_node: int,
    radius: int,
    known: Iterable[Pattern],
    max_size: int = 5,
    enumeration_cap: int = FRESH_CAP,
    classifier: Optional[SubsetClassifier] = None,
    nodes: Optional[Iterable[int]] = None,
) -> Iterator[Tuple[int, ...]]:
    """``IncPGen``'s ΔP, lazily: classes around a new node not in ``known``.

    Runs ESU over the connected subsets of ``new_node``'s
    ``radius``-hop neighborhood (``enumeration_cap`` bounds the subsets
    enumerated there, containing the node or not). Yields the first
    subset of each class met in a subset containing ``new_node`` that
    is not isomorphic to any pattern in ``known``. Stopping early skips
    the rest of the enumeration.

    ``nodes`` (which must hold ``new_node``) restricts the host to the
    subgraph those nodes induce, without building it: the ball is
    taken inside ``nodes``, and the subsets and their order are those
    over ``host.induced_subgraph(nodes)``, in ``host``'s ids
    (relabelling keeps node order; see
    :func:`~repro.mining.enumerate.connected_node_subsets`).
    """
    if classifier is None:
        classifier = SubsetClassifier()
    met = {classifier.class_of(p) for p in known}
    within = None if nodes is None else set(nodes)
    ball = host.k_hop_nodes(new_node, radius, within=within)
    for subset in connected_node_subsets(
        host, max_size, cap=enumeration_cap, nodes=ball
    ):
        if new_node not in subset:
            continue
        cls = classifier.classify(host, subset)
        if cls not in met:
            met.add(cls)
            yield subset


def mine_incremental(
    host: Graph,
    new_node: int,
    radius: int,
    known: Iterable[Pattern],
    max_size: int = 5,
    enumeration_cap: int = FRESH_CAP,
) -> List[Pattern]:
    """The ``IncPGen`` operator (§5): new patterns around a new node.

    Enumerates connected subsets inside the ``radius``-hop neighborhood
    of ``new_node`` that *contain* the new node, and returns the
    patterns not isomorphic to any in ``known`` (the paper's ΔP): the
    pattern each subset of :func:`fresh_classes` induces.
    """
    return [
        Pattern.from_induced(host, subset)
        for subset in fresh_classes(
            host, new_node, radius, known, max_size, enumeration_cap
        )
    ]


__all__ = ["FRESH_CAP", "mine_patterns", "mine_incremental", "fresh_classes"]
