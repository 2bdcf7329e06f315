"""Connected-subgraph enumeration (ESU / FANMOD algorithm).

The pattern generator needs every connected node subset of a host graph
up to a size bound. ESU (Wernicke 2006) enumerates each connected
subset exactly once via an enumeration tree: subsets are rooted at
their minimum node id and only extended by larger-id nodes outside the
current exclusive neighborhood.

Explanation subgraphs are small (|V_s| ≤ u_l), so exhaustive
enumeration with a safety cap is both exact and fast — this replaces
the external gSpan dependency the paper cites for ``PGen``.

This module owns ESU's order. Every subset ``S`` is reached by one
path: the sequence of nodes the enumeration appends, starting from its
root ``min(S)`` (:func:`esu_path`). Subsets are emitted in
lexicographic order of their paths, a prefix first, so sorting any set
of subsets by :func:`esu_path` puts them in emission order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graphs.graph import Graph


def connected_node_subsets(
    graph: Graph,
    max_size: int,
    min_size: int = 1,
    cap: Optional[int] = 200_000,
    nodes: Optional[Iterable[int]] = None,
    containing: Optional[int] = None,
) -> Iterator[Tuple[int, ...]]:
    """Yield each connected node subset with ``min_size <= |S| <= max_size``.

    Subsets are emitted as sorted tuples, each exactly once. ``cap``
    bounds the total number of *emitted* subsets; hitting it truncates
    enumeration (callers treat mined candidates as a best-effort pool,
    never as a completeness guarantee). ``nodes`` restricts the
    enumeration to the subgraph those nodes induce, without building
    it: the subsets and their order are those of
    ``graph.induced_subgraph(nodes)``, in ``graph``'s ids, because
    relabelling keeps node order.

    ``containing`` keeps only the subsets that contain that node, by
    running the one ESU tree rooted at it with every other node
    eligible (as if it were the smallest node). Their order is then
    not the order of their paths.
    """
    if max_size < 1 or min_size < 1 or min_size > max_size:
        return
    roots: Sequence[int]
    neighbors: Callable[[int], Set[int]]
    if nodes is None:
        roots = graph.nodes()
        neighbors = graph.all_neighbors
    else:
        allowed = set(nodes)
        roots = sorted(allowed)
        adjacency = {v: graph.all_neighbors(v) & allowed for v in roots}
        neighbors = adjacency.__getitem__
    emitted = 0
    # the current subset as a set, maintained incrementally alongside
    # the ordered list — exclusive-neighborhood checks run once per
    # extension candidate, so rebuilding set(sub) there is the hot spot
    sub_set: Set[int] = set()

    def extend(
        sub: List[int],
        ext: Set[int],
        sub_neigh: Set[int],
        root: int,
    ) -> Iterator[Tuple[int, ...]]:
        nonlocal emitted
        if len(sub) >= min_size:
            emitted += 1
            yield tuple(sorted(sub))
        if len(sub) == max_size:
            return
        ext_pool = sorted(ext)
        remaining = set(ext_pool)
        for w in ext_pool:
            if cap is not None and emitted >= cap:
                return
            remaining.discard(w)
            w_neigh = neighbors(w)
            new_excl = {
                u
                for u in w_neigh
                if u not in sub_set and u not in sub_neigh and u > root and u != w
            }
            sub.append(w)
            sub_set.add(w)
            yield from extend(sub, remaining | new_excl, sub_neigh | w_neigh, root)
            sub.pop()
            sub_set.discard(w)

    # (start node, root): extensions take only nodes above the root.
    # Node ids are >= 0, so root -1 makes every node eligible.
    starts = [(containing, -1)] if containing is not None else [(v, v) for v in roots]
    for v, root in starts:
        if cap is not None and emitted >= cap:
            return
        v_neigh = neighbors(v)
        ext0 = {u for u in v_neigh if u > root}
        sub_set = {v}
        yield from extend([v], ext0, v_neigh | {v}, root)


def esu_path(graph: Graph, subset: Sequence[int]) -> Tuple[int, ...]:
    """The nodes :func:`connected_node_subsets` appends to reach ``subset``.

    The path starts at the root ``min(subset)``; each next node is the
    smallest member adjacent (ignoring direction) to the nodes already
    on it. Any other choice would leave that smallest member behind in
    the exclusive neighborhood, where ESU never picks it up again. The
    path depends only on the subgraph ``subset`` induces and on node
    order, so it is the same in every host (or restriction) containing
    that subgraph. ``subset`` must be connected.
    """
    members = set(subset)
    path = [min(members)]
    members.discard(path[0])
    frontier: Set[int] = set()
    while members:
        frontier |= graph.all_neighbors(path[-1]) & members
        w = min(frontier)
        frontier.discard(w)
        members.discard(w)
        path.append(w)
    return tuple(path)


def count_connected_subsets(graph: Graph, max_size: int) -> int:
    """Number of connected subsets up to ``max_size`` (testing helper)."""
    return sum(1 for _ in connected_node_subsets(graph, max_size, cap=None))


__all__ = ["connected_node_subsets", "count_connected_subsets", "esu_path"]
