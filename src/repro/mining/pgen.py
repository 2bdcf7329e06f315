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

The same pass prices Psum's pool. ``PMatch`` is induced, so a class's
matches in a host are exactly the subsets the enumeration put in that
class: :func:`mine_patterns` keeps, per class and host, the union of
their nodes and of their induced edges and their count (never the
subsets themselves), and hands each kept candidate its ``coverage``.
Where the matcher's answer could differ (a host that reached
``enumeration_cap``, or more than ``MATCH_CAP`` possible mappings of
a candidate in one host) the coverage is ``None`` and Psum asks the
matcher.
"""

from __future__ import annotations

from math import factorial
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import MiningError
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.coverage import MATCH_CAP, PatternCoverage
from repro.mining.classes import SubsetClassifier, subset_signature
from repro.mining.enumerate import connected_node_subsets
from repro.mining.mdl import MinedPattern, mdl_score


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
    each host in ESU order), built once per class. Each candidate's
    ``coverage`` is what the matcher would find in ``hosts``, read from
    the enumeration, or ``None`` where the matcher's answer could
    differ (see :func:`_covered`); a host that reaches
    ``enumeration_cap`` leaves every class's ``coverage`` ``None``.
    """
    if max_size < 1:
        raise MiningError(f"max_size must be >= 1, got {max_size}")
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")

    classifier = SubsetClassifier()
    represented: Dict[int, Pattern] = {}
    #: class -> host -> what the class's subsets cover in that host
    occurrences: Dict[int, Dict[int, _Seen]] = {}
    capped = False

    for h, host in enumerate(hosts):
        in_host: Dict[int, _Seen] = {}
        emitted = 0
        for subset in connected_node_subsets(
            host, max_size, min_size=2, cap=enumeration_cap
        ):
            emitted += 1
            signature = subset_signature(host, subset)
            cls = classifier.of_signature(signature)
            seen = in_host.get(cls)
            if seen is None:
                if cls not in represented:
                    represented[cls] = Pattern.from_induced(host, subset)
                seen = in_host[cls] = _Seen()
                occurrences.setdefault(cls, {})[h] = seen
            seen.nodes.update(subset)
            # subsets are sorted, so undirected edges come out (low, high)
            seen.edges.update([(subset[i], subset[j]) for i, j, _ in signature[2]])
            seen.subsets += 1
        if enumeration_cap is not None and emitted >= enumeration_cap:
            capped = True

    embeddings = {
        c: sum(seen.subsets for seen in in_hosts.values())
        for c, in_hosts in occurrences.items()
    }

    def rank(cls: int) -> Tuple[float, int, str]:
        pattern = represented[cls]
        return (-mdl_score(pattern, embeddings[cls]), pattern.size, pattern.key())

    kept = sorted(
        (c for c, in_hosts in occurrences.items() if len(in_hosts) >= min_support),
        key=rank,
    )
    if max_candidates is not None:
        kept = kept[:max_candidates]
    mined = [
        MinedPattern(
            represented[c],
            support=len(occurrences[c]),
            embeddings=embeddings[c],
            coverage=None if capped else _covered(occurrences[c], represented[c]),
        )
        for c in kept
    ]
    mined.extend(_singletons(hosts))
    return mined


class _Seen:
    """One class's subsets in one host: the union of their nodes and of
    their induced edges, in the matcher's edge keys, and their count."""

    __slots__ = ("nodes", "edges", "subsets")

    def __init__(self) -> None:
        self.nodes: Set[int] = set()
        self.edges: Set[Tuple[int, int]] = set()
        self.subsets = 0


def _covered(in_hosts: Dict[int, _Seen], pattern: Pattern) -> Optional[PatternCoverage]:
    """What the matcher finds for ``pattern`` given its class's subsets.

    The matcher is induced, so the pattern's matches in a host are the
    subsets of its class there, each once per automorphism: it covers
    their nodes and their induced edges. It stops at ``MATCH_CAP``
    mappings per host, so a host where the subsets × k! could exceed
    that gives ``None``.
    """
    bound = factorial(pattern.n_nodes)
    if any(seen.subsets * bound > MATCH_CAP for seen in in_hosts.values()):
        return None
    return PatternCoverage(
        frozenset((h, v) for h, seen in in_hosts.items() for v in seen.nodes),
        frozenset((h, e) for h, seen in in_hosts.items() for e in seen.edges),
    )


def _singletons(hosts: Sequence[Graph]) -> List[MinedPattern]:
    """One singleton candidate per node type, with its occurrence counts
    and its coverage: the nodes of its type in every host of its own
    directedness (``Pattern.singleton`` is undirected, and the matcher
    matches a pattern only on hosts of its directedness)."""
    by_type: Dict[int, Dict[int, _Seen]] = {}
    for h, host in enumerate(hosts):
        for v, t in enumerate(host.node_types.tolist()):
            in_hosts = by_type.setdefault(t, {})
            seen = in_hosts.get(h)
            if seen is None:
                seen = in_hosts[h] = _Seen()
            seen.nodes.add(v)
            seen.subsets += 1
    singletons = []
    for t in sorted(by_type):
        pattern = Pattern.singleton(t)
        in_hosts = by_type[t]
        matched = {
            h: seen
            for h, seen in in_hosts.items()
            if hosts[h].directed == pattern.graph.directed
        }
        singletons.append(
            MinedPattern(
                pattern,
                support=len(in_hosts),
                embeddings=sum(seen.subsets for seen in in_hosts.values()),
                coverage=_covered(matched, pattern),
            )
        )
    return singletons


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
