"""Reference implementations of GVEX's operators: parity oracles only.

Production runs one implementation per operator — the plan-cached
``PMatch`` matcher, :class:`~repro.core.verifiers.BatchedGnnVerifier`
and :class:`~repro.core.inc_everify.IncrementalEVerify`. This module
keeps the slow, obviously correct counterparts the parity suites and
benches compare them against:

* :func:`find_isomorphisms` — the seed VF2 backtracking matcher:
  candidates from a mapped neighbor's neighborhood, feasibility from
  per-pair set probes, no precomputation and no caching;
* :func:`match_coverage` — one pattern's coverage of one host over that
  matcher, with the production ``match_cap`` and stop-early rules;
* :func:`influenced_set`, :func:`influence_score` and
  :func:`diversity_score` — Eq. 2's set functions ``Inf(V_s)``,
  ``I(V_s)`` and ``D(V_s)`` as dense row unions of ``B`` and ``R``,
  the definitions the bitset oracle's property tests check against;
* :class:`RebuildEVerify` — StreamGVEX's ``IncEVerify`` on the seen
  prefix built as a graph every chunk, where production slices the
  host's arrays;
* :func:`remined_delta` and :func:`remine_inc_update_p` — StreamGVEX's
  pattern side by re-mining: ``IncPGen``'s ΔP as a full list, one
  ``Pattern`` built and canonized per enumerated subset of the ball's
  induced subgraph, and ``IncUpdateP`` re-mining ``V_S`` with
  ``mine_patterns`` on every admission;
* :func:`remined_novelty` — ApproxGVEX's novelty tie-break by
  re-mining ``G[S]`` and listing ΔP over ``G[S ∪ {v}]`` per candidate;
* :func:`unpriced_patterns` — ``PGen`` without the coverage its
  enumeration saw, so Psum prices every candidate with the matcher.

The serial ``EVerify`` reference is
:class:`~repro.core.verifiers.GnnVerifier` itself, the batched
verifier's base class.

No production module imports this one (``tests/test_reference_isolation.py``
parses the package to check), and nothing here is in any ``__all__``.
Tests and benches reach production through substitution: each of
:func:`reference_matcher`, :func:`serial_verifier`,
:func:`rebuild_everify`, :func:`remine_patterns` and
:func:`rematch_coverage` patches the production entry points with a
reference for the duration of a ``with`` block.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple
from unittest import mock

import numpy as np

from repro.config import GvexConfig
from repro.core.explainability import ExplainabilityOracle
from repro.core.inc_everify import OracleStats
from repro.core.psum import summarize
from repro.core.verifiers import GnnVerifier
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.canonical import pattern_identity
from repro.matching.context import matching_order
from repro.matching.coverage import PatternCoverage
from repro.matching.isomorphism import Mapping
from repro.matching.plan_cache import MATCH_CAP, LocalCoverage
from repro.mining.enumerate import connected_node_subsets
from repro.mining.mdl import MinedPattern
from repro.mining.pgen import mine_patterns


# ----------------------------------------------------------------------
# PMatch: the seed VF2 and per-host coverage
# ----------------------------------------------------------------------
def find_isomorphisms(
    pattern: Pattern,
    graph: Graph,
    limit: Optional[int] = None,
    **_carriers: object,
) -> Iterator[Mapping]:
    """The seed VF2: matchings ``{pattern node -> host node}``.

    Same signature and enumeration order as the production matcher
    (host candidates ascending at every depth of
    :func:`~repro.matching.context.matching_order`); the production
    ``context``/``plan`` carriers are accepted and ignored.
    """
    if pattern.graph.directed != graph.directed:
        return
    if limit is not None and limit <= 0:
        return
    p = pattern.graph
    if p.n_nodes > graph.n_nodes:
        return

    order = matching_order(p)
    count = 0
    mapping: Mapping = {}
    used: Set[int] = set()

    def candidates(pos: int) -> Iterator[int]:
        pv = order[pos]
        anchor = _mapped_neighbor(p, pv, mapping)
        if anchor is None:
            yield from graph.nodes()
        else:
            yield from sorted(graph.all_neighbors(mapping[anchor]))

    def feasible(pv: int, hv: int) -> bool:
        if hv in used:
            return False
        if graph.node_type(hv) != p.node_type(pv):
            return False
        # check edges against every already mapped pattern node
        for qv, hq in mapping.items():
            p_fwd = p.has_edge(pv, qv) if not p.directed else (qv in p.neighbors(pv))
            g_fwd = (
                graph.has_edge(hv, hq)
                if not graph.directed
                else (hq in graph.neighbors(hv))
            )
            if p.directed:
                p_bwd = pv in p.neighbors(qv)
                g_bwd = hv in graph.neighbors(hq)
                if p_fwd != g_fwd or p_bwd != g_bwd:
                    return False
                if p_fwd and p.edge_type(pv, qv) != graph.edge_type(hv, hq):
                    return False
                if p_bwd and p.edge_type(qv, pv) != graph.edge_type(hq, hv):
                    return False
            else:
                if p_fwd != g_fwd:
                    return False
                if p_fwd and p.edge_type(pv, qv) != graph.edge_type(hv, hq):
                    return False
        return True

    def backtrack(pos: int) -> Iterator[Mapping]:
        nonlocal count
        if pos == len(order):
            count += 1
            yield dict(mapping)
            return
        pv = order[pos]
        for hv in candidates(pos):
            if limit is not None and count >= limit:
                return
            if feasible(pv, hv):
                mapping[pv] = hv
                used.add(hv)
                yield from backtrack(pos + 1)
                del mapping[pv]
                used.discard(hv)

    yield from backtrack(0)


def _mapped_neighbor(p: Graph, pv: int, mapping: Mapping) -> Optional[int]:
    for w in p.all_neighbors(pv):
        if w in mapping:
            return w
    return None


def _local_coverage(pattern: Pattern, host: Graph, match_cap: int) -> LocalCoverage:
    """Covered host nodes/edges in host-local ids, uncached."""
    covered_nodes: Set[int] = set()
    covered_edges: Set[Tuple[int, int]] = set()
    count = 0
    for mapping in find_isomorphisms(pattern, host):
        count += 1
        covered_nodes.update(mapping.values())
        for (pu, pv) in pattern.graph.edge_types:
            hu, hv = mapping[pu], mapping[pv]
            if not host.directed and hu > hv:
                hu, hv = hv, hu
            covered_edges.add((hu, hv))
        if count >= match_cap:
            break
        if (
            len(covered_nodes) == host.n_nodes
            and len(covered_edges) == host.n_edges
        ):
            break
    return frozenset(covered_nodes), frozenset(covered_edges)


def match_coverage(
    pattern: Pattern,
    host: Graph,
    host_index: int = 0,
    match_cap: int = MATCH_CAP,
) -> PatternCoverage:
    """Coverage of one pattern over one host, by the seed VF2."""
    nodes, edges = _local_coverage(pattern, host, match_cap)
    return PatternCoverage(
        frozenset((host_index, v) for v in nodes),
        frozenset((host_index, e) for e in edges),
    )


class _UncachedMatches:
    """Stand-in for ``PLAN_CACHE``: every answer recomputed by the seed
    VF2 on the caller's own pattern, nothing memoized."""

    def coverage(
        self, pattern: Pattern, host: Graph, match_cap: int = MATCH_CAP, **_: object
    ) -> LocalCoverage:
        return _local_coverage(pattern, host, match_cap)

    def contains(self, pattern: Pattern, host: Graph, **_: object) -> bool:
        return any(True for _ in find_isomorphisms(pattern, host, limit=1))

    def coverage_many(
        self, pattern: Pattern, hosts, match_cap: int = MATCH_CAP, **_: object
    ) -> List[LocalCoverage]:
        return [_local_coverage(pattern, h, match_cap) for h in hosts]

    def contains_many(self, pattern: Pattern, hosts, **_: object) -> List[bool]:
        return [self.contains(pattern, h) for h in hosts]


# ----------------------------------------------------------------------
# Eq. 2's set functions, by definition
# ----------------------------------------------------------------------
def influenced_set(B: np.ndarray, nodes: Iterable[int]) -> np.ndarray:
    """Boolean mask of ``Inf(V_s)``: the nodes some node of ``V_s``
    influences (``B[u, v]``)."""
    idx = list(nodes)
    if not idx:
        return np.zeros(B.shape[1], dtype=bool)
    return B[idx].any(axis=0)


def influence_score(B: np.ndarray, nodes: Iterable[int]) -> int:
    """``I(V_s)`` of Eq. 5: how many nodes ``V_s`` influences."""
    return int(influenced_set(B, nodes).sum())


def diversity_score(R: np.ndarray, influenced_mask: np.ndarray) -> int:
    """``D(V_s)`` of Eq. 6: the size of the union of the balls ``R``
    around the influenced nodes."""
    if not influenced_mask.any():
        return 0
    return int(R[influenced_mask].any(axis=0).sum())


# ----------------------------------------------------------------------
# IncEVerify: the oracle on the induced prefix, every chunk
# ----------------------------------------------------------------------
class RebuildEVerify:
    """``IncEVerify`` on the induced prefix: an oracle per chunk.

    Drop-in for :class:`~repro.core.inc_everify.IncrementalEVerify`
    (same constructor, :meth:`refresh` and ``stats``). Every chunk
    builds the seen prefix's induced subgraph and the explainability
    oracle on it, and counts one full refresh. Production reads the
    same arrays off the host's slices, so both give the same ``B`` and
    ``R`` bit for bit and the same refresh count.
    """

    def __init__(self, model: GnnClassifier, config: GvexConfig) -> None:
        self.model = model
        self.config = config
        self.stats = OracleStats()

    def refresh(self, graph: Graph, seen_ids: Sequence[int]) -> ExplainabilityOracle:
        self.stats.full_refreshes += 1
        seen_sub, _ = graph.induced_subgraph(seen_ids)
        return ExplainabilityOracle(self.model, seen_sub, self.config)


# ----------------------------------------------------------------------
# IncPGen and IncUpdateP: re-mine, one Pattern per subset
# ----------------------------------------------------------------------
def remined_delta(
    host: Graph,
    new_node: int,
    radius: int,
    known: Iterable[Pattern],
    max_size: int = 5,
    enumeration_cap: int = 20_000,
) -> List[Tuple[Tuple[int, ...], Pattern]]:
    """``IncPGen``'s ΔP in full, classifying subset by subset.

    Builds the ball's induced subgraph, then a ``Pattern`` per
    enumerated subset containing ``new_node``, canonized against
    ``known`` and the patterns already returned. Returns each fresh
    class's first subset, in ``host``'s ids, with its pattern; the
    patterns are the value of :func:`~repro.mining.pgen.mine_incremental`.
    """
    identity: Dict[str, List[Pattern]] = {}
    met = [pattern_identity(p, identity) for p in known]
    hood = sorted(host.k_hop_nodes(new_node, radius))
    sub, mapping = host.induced_subgraph(hood)
    local_new = mapping.index(new_node)
    fresh: List[Tuple[Tuple[int, ...], Pattern]] = []
    for subset in connected_node_subsets(sub, max_size, cap=enumeration_cap):
        if local_new not in subset:
            continue
        canon = pattern_identity(Pattern.from_induced(sub, subset), identity)
        if not any(canon is q for q in met):
            met.append(canon)
            fresh.append((tuple(mapping[v] for v in subset), canon))
    return fresh


def _listed_fresh_classes(
    host: Graph,
    new_node: int,
    radius: int,
    known: Iterable[Pattern],
    max_size: int = 5,
    enumeration_cap: int = 20_000,
    classifier: object = None,
    nodes: Optional[Iterable[int]] = None,
) -> Iterator[Tuple[int, ...]]:
    """Stand-in for ``fresh_classes``: the whole ΔP, listed first, over
    ``host.induced_subgraph(nodes)`` when ``nodes`` is given."""
    ids = list(host.nodes())
    if nodes is not None:
        host, ids = host.induced_subgraph(nodes)
        new_node = ids.index(new_node)
    delta = remined_delta(host, new_node, radius, known, max_size, enumeration_cap)
    return iter([tuple(ids[v] for v in subset) for subset, _ in delta])


def remine_inc_update_p(
    self: object,
    graph: Graph,
    selected: Set[int],
    patterns: List[Pattern],
    config: GvexConfig,
    index: object,
) -> None:
    """``IncUpdateP`` by re-mining: ``mine_patterns`` over ``V_S`` per call.

    Drop-in for ``StreamGvex._inc_update_p``; ``index`` is ignored.
    """
    if not selected:
        return
    vs_sub, _ = graph.induced_subgraph(selected)
    pool = [MinedPattern(p, support=1, embeddings=1) for p in patterns]
    pool.extend(
        mine_patterns(
            [vs_sub],
            max_size=config.max_pattern_size,
            min_support=1,
            max_candidates=50,
        )
    )
    patterns[:] = summarize([vs_sub], config, candidates=pool).patterns


def remined_novelty(
    graph: Graph,
    index: object,
    selected: Set[int],
    pool: Dict[int, float],
) -> Dict[int, bool]:
    """ApproxGVEX's novelty tie-break by re-mining, per call.

    Drop-in for ``repro.core.approx._pattern_novelty``; ``index`` is
    ignored. Mines ``G[S]`` with ``mine_patterns`` for the known
    patterns, then builds ``G[S ∪ {v}]`` for each candidate and lists
    its ΔP over ``v``'s 2-hop ball with :func:`remined_delta`: ``v``
    is novel when ΔP has a pattern of two or more nodes.
    """
    if not selected:
        return {v: True for v in pool}
    sel_sub, _ = graph.induced_subgraph(selected)
    known = [m.pattern for m in mine_patterns([sel_sub], max_size=3)]
    known.extend(
        Pattern.singleton(int(t))
        for t in sorted(set(graph.node_types.tolist()))
    )
    out: Dict[int, bool] = {}
    for v in pool:
        ext_sub, ids = graph.induced_subgraph(sorted(selected | {v}))
        delta = remined_delta(ext_sub, ids.index(v), 2, known, max_size=3)
        out[v] = any(p.n_nodes >= 2 for _, p in delta)
    return out


def unpriced_patterns(hosts: Sequence[Graph], *args, **kwargs) -> List[MinedPattern]:
    """``mine_patterns`` with every candidate's ``coverage`` dropped.

    Same arguments and candidates; ``summarize`` then prices each one
    with :class:`~repro.matching.coverage.CoverageIndex`, as Psum did
    before ``PGen`` priced its own pool.
    """
    return [replace(m, coverage=None) for m in mine_patterns(hosts, *args, **kwargs)]


# ----------------------------------------------------------------------
# substitution
# ----------------------------------------------------------------------
@contextmanager
def _patched(targets: Dict[str, object]) -> Iterator[None]:
    with ExitStack() as stack:
        for target, value in targets.items():
            stack.enter_context(mock.patch(target, value))
        yield


def reference_matcher():
    """Run the block's ``PMatch`` work on the seed VF2.

    Every search goes through :func:`find_isomorphisms`, and coverage
    and containment bypass the process-wide plan cache: nothing in the
    block reads or fills it.
    """
    uncached = _UncachedMatches()
    return _patched(
        {
            "repro.matching.isomorphism.find_isomorphisms": find_isomorphisms,
            "repro.matching.coverage.PLAN_CACHE": uncached,
            "repro.query.index.PLAN_CACHE": uncached,
        }
    )


def serial_verifier():
    """Run the block's ``EVerify`` work on the serial schedule.

    The explainers construct :class:`~repro.core.verifiers.GnnVerifier`
    (one forward per memo-cache miss, lazy probes) where production
    constructs the batched verifier.
    """
    return _patched(
        {
            "repro.core.approx.BatchedGnnVerifier": GnnVerifier,
            "repro.core.streaming.BatchedGnnVerifier": GnnVerifier,
        }
    )


def rebuild_everify():
    """Run the block's StreamGVEX chunks on :class:`RebuildEVerify`."""
    return _patched({"repro.core.streaming.IncrementalEVerify": RebuildEVerify})


def remine_patterns():
    """Run the block's pattern side by re-mining.

    StreamGVEX's ``IncUpdateVS`` lists all of ΔP through
    :func:`remined_delta` instead of stopping at its first class, and
    ``IncUpdateP`` re-mines ``V_S`` through :func:`remine_inc_update_p`
    instead of reading the subset index. ApproxGVEX's novelty tie-break
    re-mines ``G[S]`` and lists each candidate's ΔP through
    :func:`remined_novelty` instead of reading its class index.
    """
    return _patched(
        {
            "repro.core.streaming.fresh_classes": _listed_fresh_classes,
            "repro.core.streaming.StreamGvex._inc_update_p": remine_inc_update_p,
            "repro.core.approx._pattern_novelty": remined_novelty,
        }
    )


def rematch_coverage():
    """Run the block's Psum with every candidate priced by the matcher.

    ``summarize`` mines through :func:`unpriced_patterns`, so no
    candidate carries the coverage ``PGen``'s enumeration saw. Inside
    :func:`reference_matcher` too, that matcher is the seed VF2.
    """
    return _patched({"repro.core.psum.mine_patterns": unpriced_patterns})
