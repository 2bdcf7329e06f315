"""The ``PGen`` pattern-candidate generator (§4).

Mines connected patterns from a set of explanation subgraphs by
exhaustive ESU enumeration (exact for the small subgraphs GVEX
produces), deduplicates them up to isomorphism, keeps those meeting the
support threshold, and ranks by MDL saving. Single-node patterns for
every node type present are always included, which keeps Psum's
node-coverage problem feasible (Lemma 4.3's precondition; see
DESIGN.md §3).
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import MiningError
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.canonical import pattern_identity
from repro.mining.enumerate import connected_node_subsets
from repro.mining.mdl import MinedPattern


def mine_patterns(
    hosts: Sequence[Graph],
    max_size: int = 5,
    min_support: int = 1,
    max_candidates: Optional[int] = 200,
    enumeration_cap: int = 100_000,
    subset_keys: Optional[Sequence[Sequence[int]]] = None,
    pattern_memo: Optional[MutableMapping[Tuple[int, ...], Pattern]] = None,
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
    subset_keys / pattern_memo:
        Cross-call canonization memo. ``subset_keys[h][v]`` names host
        ``h``'s node ``v`` in a caller-stable id space (e.g. the
        source-graph node ids of a streamed ``V_S`` subgraph);
        ``pattern_memo`` then caches the induced :class:`Pattern` (and
        with it, its WL key) per stable subset, so re-mining a host
        that shares subsets with earlier calls stops re-canonizing
        them. Memoized patterns are byte-identical to fresh ones
        (``Pattern.from_induced`` is deterministic), so results never
        change — only the repeated hashing goes away.

    Returns
    -------
    Mined patterns sorted by decreasing MDL saving; singleton patterns
    for every observed node type are always present at the end.
    """
    if max_size < 1:
        raise MiningError(f"max_size must be >= 1, got {max_size}")
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")

    identity: Dict[str, List[Pattern]] = {}
    support: Dict[Pattern, Set[int]] = {}
    embeddings: Dict[Pattern, int] = {}

    for h, host in enumerate(hosts):
        keys = None if subset_keys is None else subset_keys[h]
        for subset in connected_node_subsets(
            host, max_size, min_size=2, cap=enumeration_cap
        ):
            if pattern_memo is not None and keys is not None:
                memo_key = tuple(keys[v] for v in subset)
                candidate = pattern_memo.get(memo_key)
                if candidate is None:
                    candidate = Pattern.from_induced(host, subset)
                    pattern_memo[memo_key] = candidate
            else:
                candidate = Pattern.from_induced(host, subset)
            canon = pattern_identity(candidate, identity)
            key = canon
            support.setdefault(key, set()).add(h)
            embeddings[key] = embeddings.get(key, 0) + 1

    mined = [
        MinedPattern(k, support=len(s), embeddings=embeddings[k])
        for k, s in support.items()
        if len(s) >= min_support
    ]
    mined.sort(key=lambda m: (-m.mdl_score, m.pattern.size, m.pattern.key()))
    if max_candidates is not None:
        mined = mined[:max_candidates]

    mined.extend(_singletons(hosts))
    return mined


def _singletons(hosts: Sequence[Graph]) -> List[MinedPattern]:
    """One singleton candidate per node type, with its occurrence counts."""
    counts: Dict[int, int] = {}
    host_sets: Dict[int, Set[int]] = {}
    for h, host in enumerate(hosts):
        for v in host.nodes():
            t = host.node_type(v)
            counts[t] = counts.get(t, 0) + 1
            host_sets.setdefault(t, set()).add(h)
    return [
        MinedPattern(
            Pattern.singleton(t), support=len(host_sets[t]), embeddings=counts[t]
        )
        for t in sorted(counts)
    ]


def mine_incremental(
    host: Graph,
    new_node: int,
    radius: int,
    known: Iterable[Pattern],
    max_size: int = 5,
    enumeration_cap: int = 20_000,
) -> List[Pattern]:
    """The ``IncPGen`` operator (§5): new patterns around a new node.

    Enumerates connected subsets inside the ``radius``-hop neighborhood
    of ``new_node`` that *contain* the new node, and returns the
    patterns not isomorphic to any in ``known`` (the paper's ΔP).
    """
    identity: Dict[str, List[Pattern]] = {}
    for p in known:
        pattern_identity(p, identity)
    known_ids = {id(p) for bucket in identity.values() for p in bucket}

    hood = sorted(host.k_hop_nodes(new_node, radius))
    sub, mapping = host.induced_subgraph(hood)
    local_new = mapping.index(new_node)

    fresh: List[Pattern] = []
    for subset in connected_node_subsets(sub, max_size, cap=enumeration_cap):
        if local_new not in subset:
            continue
        candidate = Pattern.from_induced(sub, subset)
        canon = pattern_identity(candidate, identity)
        if id(canon) not in known_ids:
            known_ids.add(id(canon))
            fresh.append(canon)
    return fresh


__all__ = ["mine_patterns", "mine_incremental"]
