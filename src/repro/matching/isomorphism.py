"""Node-induced subgraph isomorphism (§2.1, "Graph Pattern Matching").

A pattern ``P`` matches a host graph ``G`` through an injective mapping
``h`` such that (1) node types agree, (2) every pattern edge maps to a
host edge with the same type, and (3) — *induced* semantics — every host
edge between mapped nodes corresponds to a pattern edge. This is the
matching relation the paper fixes for pattern coverage, so a pattern
like a bare ring will not match a ring-with-chord.

The search is VF2-style backtracking over a precomputed
:class:`~repro.matching.context.MatchContext`. Candidate sets are
Python ints with one bit per host node, so feasibility against every
mapped node is one ``&`` (or ``& ~``) of an adjacency row per
constraint, with degree and neighborhood type-signature pruning
cutting the candidate tree. Python ints have arbitrary width, so one
loop serves every host size.

Matchings come out in a **deterministic order** — host candidates
ascending at every depth of
:func:`~repro.matching.context.matching_order` — which is exactly the
seed VF2's sequence, so callers that consume mapping streams, truncate
at ``limit``, or cap coverage enumeration get the same results as the
reference in :mod:`repro.reference` (``tests/test_matching_parity.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.context import (
    KIND_ALL,
    KIND_IN,
    KIND_OUT,
    MatchContext,
    MatchPlan,
    Rows,
)

Mapping = Dict[int, int]

#: one search step ``(prev_pos, rows, invert)``: ``mask &= rows[image]``
#: (or its complement) applies one edge / non-edge / edge-type
#: constraint to the whole candidate frontier
Op = Tuple[int, Rows, bool]


def find_isomorphisms(
    pattern: Pattern,
    graph: Graph,
    limit: Optional[int] = None,
    *,
    context: Optional[MatchContext] = None,
    plan: Optional[MatchPlan] = None,
) -> Iterator[Mapping]:
    """Yield matchings ``{pattern node -> host node}`` up to ``limit``.

    Matches are enumerated deterministically (ascending host candidate
    order at every depth). ``context`` and ``plan`` let batched callers
    (``pmatch``, the plan cache) share host/pattern precomputation;
    calls without them draw both from the process-wide plan cache.
    """
    if pattern.graph.directed != graph.directed:
        return
    if limit is not None and limit <= 0:
        return
    if pattern.graph.n_nodes > graph.n_nodes:
        return
    if context is None or plan is None:
        # ad-hoc call: share host contexts and per-content plans through
        # the process-wide cache (deferred import; plan_cache imports
        # this module)
        from repro.matching.plan_cache import PLAN_CACHE

        if context is None:
            context = PLAN_CACHE.context(graph)[0]
        if plan is None:
            plan = PLAN_CACHE.plan(pattern)
    if not plan.host_can_match(context):
        return
    yield from _search(plan, _search_state(context, plan), limit)


def _search_state(
    ctx: MatchContext, mp: MatchPlan
) -> Tuple[List[int], List[List[Op]]]:
    """Candidate masks and per-position row ops, memoized on the context."""
    key = mp.plan_key()
    state = ctx._states.get(key)
    if state is not None:
        return state  # type: ignore[return-value]
    ops: List[List[Op]] = []
    if ctx.directed:
        for cons in mp.dir_cons:
            pos_ops: List[Op] = []
            for j, fwd, bwd in cons:
                # hv -> hq of the pattern's type iff pv -> qv
                if fwd is not None:
                    pos_ops.append((j, ctx.rows(KIND_IN, fwd), False))
                else:
                    pos_ops.append((j, ctx.rows(KIND_IN), True))
                # hq -> hv of the pattern's type iff qv -> pv
                if bwd is not None:
                    pos_ops.append((j, ctx.rows(KIND_OUT, bwd), False))
                else:
                    pos_ops.append((j, ctx.rows(KIND_OUT), True))
            ops.append(pos_ops)
    else:
        for adj, nonadj in zip(mp.adj, mp.nonadj):
            pos_ops = [(j, ctx.rows(KIND_ALL, etype), False) for j, etype in adj]
            pos_ops.extend((j, ctx.rows(KIND_ALL), True) for j in nonadj)
            ops.append(pos_ops)
    state = (ctx.compat(mp), ops)
    ctx._states[key] = state
    return state


def _search(
    mp: MatchPlan, state: Tuple[List[int], List[List[Op]]], limit: Optional[int]
) -> Iterator[Mapping]:
    """Backtracking over int candidate masks.

    Bits are extracted in ascending order (``mask & -mask``), so the
    emitted matchings are exactly the seed enumeration sequence.
    """
    compat, ops = state
    order = mp.order
    k = len(order)
    images = [0] * k
    used = 0
    count = 0

    def backtrack(pos: int) -> Iterator[Mapping]:
        nonlocal used, count
        if pos == k:
            count += 1
            yield {order[i]: images[i] for i in range(k)}
            return
        mask = compat[pos] & ~used
        for j, tbl, invert in ops[pos]:
            row = tbl[images[j]]
            mask &= ~row if invert else row
        while mask:
            if limit is not None and count >= limit:
                return
            low = mask & -mask
            mask ^= low
            images[pos] = low.bit_length() - 1
            used |= low
            yield from backtrack(pos + 1)
            used ^= low

    yield from backtrack(0)


def first_isomorphism(pattern: Pattern, graph: Graph) -> Optional[Mapping]:
    """First matching or ``None``."""
    for m in find_isomorphisms(pattern, graph, limit=1):
        return m
    return None


def is_subgraph_isomorphic(pattern: Pattern, graph: Graph) -> bool:
    """Whether the pattern occurs in the host graph (induced semantics)."""
    return first_isomorphism(pattern, graph) is not None


def are_isomorphic(a: Pattern, b: Pattern) -> bool:
    """Exact isomorphism between two patterns.

    Same node/edge counts plus an induced-subgraph matching of equal
    size is exactly graph isomorphism.
    """
    if a.n_nodes != b.n_nodes or a.n_edges != b.n_edges:
        return False
    return first_isomorphism(a, b.graph) is not None


__all__ = [
    "find_isomorphisms",
    "first_isomorphism",
    "is_subgraph_isomorphic",
    "are_isomorphic",
]
