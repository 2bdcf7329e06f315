"""``ApproxGVEX`` — the explain-and-summarize algorithm (Algorithm 1, §4).

Per graph: greedily select nodes with maximum marginal explainability
gain (lazy greedy — valid because ``f`` is monotone submodular, Lemma
3.3), gated by ``VpExtend`` under the configured verification mode and
the coverage bounds ``[b_l, u_l]``. Per label group: run the per-graph
phase for every member, then summarize the selected subgraphs into
patterns with ``Psum``; ``repro.runtime``'s shard loop drives that
outer loop for every executor, and :class:`ApproxGvex` is its serial
facade. The greedy-under-cardinality-range scheme carries the paper's
1/2-approximation (Theorem 4.1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import GvexConfig, VERIFY_PAPER, VERIFY_SOFT
from repro.core.explainability import ExplainabilityOracle, SelectionState
from repro.core.verifiers import BatchedGnnVerifier, GnnVerifier, vp_extend_frontier
from repro.gnn.model import GnnClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.view import ExplanationSubgraph, ExplanationView, ViewSet
from repro.mining.classes import SubsetClassifier
from repro.mining.enumerate import connected_node_subsets
from repro.mining.index import SubsetIndex
from repro.mining.pgen import FRESH_CAP, fresh_classes

#: the novelty test's largest pattern, and how many of ``G[S]``'s
#: classes count as known (``mine_patterns``' default top 200)
NOVELTY_SIZE = 3
NOVELTY_KNOWN = 200


@dataclass
class GraphExplainResult:
    """Per-graph output of the explanation phase."""

    subgraph: Optional[ExplanationSubgraph]
    backup_candidates: Set[int] = field(default_factory=set)
    inference_calls: int = 0


def database_predictions(
    model: GnnClassifier,
    db,
    indices: Optional[Sequence[int]] = None,
) -> "List[Optional[int]]":
    """``M(G)`` for every graph of a database in stacked forwards.

    Uses :meth:`GnnClassifier.predict_db` when the model supports it
    (size-grouped ``(B, n, ·)`` stacked passes) and falls back to the
    serial per-graph loop for foreign models. Entry ``i`` equals
    ``model.predict(db[i])`` exactly either way. ``db`` may be a
    :class:`~repro.graphs.database.GraphDatabase` or a plain graph
    sequence; ``indices`` restricts the pass to those database indices
    (shard execution), and entries then align with ``indices``.
    """
    graphs = list(db.graphs if hasattr(db, "graphs") else db)
    if indices is not None:
        graphs = [graphs[int(i)] for i in indices]
    predict_db = getattr(model, "predict_db", None)
    if predict_db is None:
        return [model.predict(g) for g in graphs]
    return predict_db(graphs)


def explain_graph(
    model: GnnClassifier,
    graph: Graph,
    label: int,
    config: GvexConfig,
    graph_index: int = 0,
    lower: Optional[int] = None,
    upper: Optional[int] = None,
    oracle: Optional[ExplainabilityOracle] = None,
    seed_nodes: Sequence[int] = (),
    classifier: Optional[SubsetClassifier] = None,
) -> GraphExplainResult:
    """Explanation phase of Algorithm 1 for a single graph.

    ``lower``/``upper`` override the configured coverage bounds (the
    per-group scope passes remaining budgets). ``seed_nodes`` are
    pre-selected before the greedy starts (node explanation seeds the
    center node). ``classifier`` is the novelty test's subset
    classifier, which callers explaining many graphs share (a new one
    by default). Returns a result whose ``subgraph`` is ``None`` when
    the lower bound could not be met (Algorithm 1 lines 16-17).
    """
    bounds = config.coverage_for(label)
    lower = bounds.lower if lower is None else lower
    upper = bounds.upper if upper is None else upper
    upper = min(upper, graph.n_nodes)
    if graph.n_nodes == 0 or upper == 0:
        return GraphExplainResult(subgraph=None)

    if oracle is None:
        oracle = ExplainabilityOracle(model, graph, config)
    verifier = BatchedGnnVerifier(model, graph)
    state = oracle.new_state()
    for v in seed_nodes:
        if len(state.selected) < upper:
            oracle.add(state, int(v))
    backup: Set[int] = set()
    mode = config.verification

    if mode == VERIFY_PAPER:
        _grow_paper_mode(graph, verifier, oracle, state, backup, label, lower, upper)
    else:
        _grow_lazy(
            graph, verifier, oracle, state, backup, label, lower, upper, mode,
            classifier,
        )

    # lower-bound phase: keep growing from the backup pool (lines 10-15),
    # verifying the whole pool as one frontier per round
    while len(state.selected) < lower and backup:
        feasible = vp_extend_frontier(
            sorted(backup), frozenset(state.selected), verifier, label, upper, mode
        )
        if not feasible:
            break
        v_star = oracle.best_candidate(state, feasible)
        if v_star is None:
            break
        oracle.add(state, v_star)
        backup.discard(v_star)

    if len(state.selected) < lower or not state.selected:
        return GraphExplainResult(
            subgraph=None,
            backup_candidates=backup,
            inference_calls=verifier.inference_calls,
        )

    nodes = tuple(sorted(state.selected))
    sub, _ = graph.induced_subgraph(nodes)
    consistent, counterfactual = verifier.check(nodes, label)
    return GraphExplainResult(
        subgraph=ExplanationSubgraph(
            graph_index=graph_index,
            nodes=nodes,
            subgraph=sub,
            consistent=consistent,
            counterfactual=counterfactual,
            score=oracle.value_of_state(state),
        ),
        backup_candidates=backup,
        inference_calls=verifier.inference_calls,
    )


def _grow_lazy(
    graph: Graph,
    verifier: GnnVerifier,
    oracle: ExplainabilityOracle,
    state: SelectionState,
    backup: Set[int],
    label: int,
    lower: int,
    upper: int,
    mode: str,
    classifier: Optional[SubsetClassifier] = None,
) -> None:
    """Lazy-greedy growth for the soft/none modes.

    Gains are served from a lazy heap — submodularity makes stale
    entries upper bounds, so re-evaluating only the popped head
    preserves exact greedy selection.

    In ``soft`` mode each round ranks a candidate pool (top-gain nodes
    plus neighbors of the selection) lexicographically:

    1. **confidence** — while the selection's class probability
       ``P(M(V_S ∪ {v}) = l)`` is below a target ``τ``, grow whatever
       most raises it (assembling the class-evidencing region);
    2. **counterfactual steering** — once confident, prefer the
       candidate that most depresses the remainder's class probability
       ``P(M(G \\ (V_S ∪ {v})) = l)``;
    3. ties break toward pattern novelty (ΔP ≠ ∅, the streaming
       algorithm's criterion) and then explainability gain.

    Growth stops early once the selection is consistent, counterfactual,
    and confident with at least ``b_l`` nodes — the §2.2 properties plus
    the probability margins the fidelity metrics (Eqs. 8-9) measure.
    ``none`` mode skips all verification and runs the pure lazy greedy.
    """
    soft = mode == VERIFY_SOFT
    beam = 6
    # novelty's view of G[S]
    index = SubsetIndex(graph, NOVELTY_SIZE, classifier=classifier)
    orig_prob = verifier.subset_probability(graph.nodes(), label)
    tau = min(0.9, orig_prob)
    heap: List[Tuple[float, int, int]] = []  # (-gain, node, version)
    for v in graph.nodes():
        heapq.heappush(heap, (-oracle.gain(state, v), v, 0))
        backup.add(v)
    version = 0
    while len(state.selected) < upper and heap:
        # assemble this round's candidate pool
        pool: Dict[int, float] = {}  # node -> -gain
        popped: List[Tuple[float, int]] = []
        while heap and len(popped) < beam:
            neg_gain, v, ver = heapq.heappop(heap)
            if v in state.selected:
                continue
            if ver < version:
                heapq.heappush(heap, (-oracle.gain(state, v), v, version))
                continue
            popped.append((neg_gain, v))
            pool[v] = neg_gain
        if soft:
            frontier = sorted(
                {w for u in state.selected for w in graph.all_neighbors(u)}
                - state.selected
            )
            neg_gains = {w: -oracle.gain(state, w) for w in frontier}
            frontier.sort(key=neg_gains.__getitem__)
            for w in frontier[: 2 * beam]:
                pool.setdefault(w, neg_gains[w])
        if not pool:
            break

        if not soft:
            chosen = popped[0][1]
        else:
            # the whole frontier's subset probas are needed below — fill
            # the verifier cache with one stacked pass per round; the
            # frontier's index rows are one vectorized splice into the
            # sorted selection, not per-subset sorting
            verifier.prefetch_extensions(state.selected, pool)
            conf = {}
            for v in pool:
                p = verifier.subset_probability(state.selected | {v}, label)
                # degenerate inputs (e.g. NaN features) yield non-finite
                # probabilities; rank them below every real candidate
                conf[v] = p if np.isfinite(p) else -1.0
            adjacent = {
                v: any(w in state.selected for w in graph.all_neighbors(v))
                for v in pool
            }
            top_conf = max(conf.values())
            if top_conf < tau - 1e-9:
                # confidence phase: hill-climb the class probability;
                # on plateaus prefer neighbors of the selection — the
                # class-evidencing region is connected under message
                # passing, and scattering never assembles it
                chosen = max(
                    pool,
                    key=lambda v: (
                        round(conf[v], 3),
                        adjacent[v],
                        -pool[v],
                        -v,
                    ),
                )
            else:
                top = [v for v in pool if conf[v] >= tau - 1e-9]
                verifier.prefetch_remainders(
                    [state.selected | {v} for v in top]
                )
                rest = {
                    v: verifier.remainder_probability(state.selected | {v}, label)
                    for v in top
                }
                # novelty is the key's second element, so it only decides
                # between candidates tied exactly at the lowest remainder
                # probability; min() never moves onto a NaN (nor off a
                # leading one), so a NaN never ties. Everyone else gets a
                # placeholder that can only reorder losing candidates.
                low = min((p for p in rest.values() if p == p), default=None)
                tied = [v for v in top if rest[v] == low]
                novelty = (
                    _pattern_novelty(
                        graph, index, state.selected, {v: pool[v] for v in tied}
                    )
                    if len(tied) > 1
                    else {}
                )
                chosen = min(
                    top,
                    key=lambda v: (
                        rest[v],
                        0 if novelty.get(v, True) else 1,
                        pool[v],
                        v,
                    ),
                )
        for neg_gain, v in popped:  # gains only shrink: still valid bounds
            if v != chosen:
                heapq.heappush(heap, (neg_gain, v, version))
        oracle.add(state, chosen)
        backup.discard(chosen)
        version += 1
        if soft and len(state.selected) >= max(lower, 1):
            consistent, counterfactual = verifier.check(state.selected, label)
            confident = (
                verifier.subset_probability(state.selected, label)
                >= orig_prob - 0.1
            )
            if consistent and counterfactual and confident:
                break


def _pattern_novelty(
    graph: Graph, index: SubsetIndex, selected: Set[int], pool: Dict[int, float]
) -> Dict[int, bool]:
    """Whether each candidate contributes a new (>=2-node) pattern.

    The streaming algorithm's ``IncUpdateVS`` prizes nodes whose
    neighborhood adds structure not yet represented in ``V_S`` (ΔP ≠ ∅);
    applying the same test as a tie-break here steers the batch greedy
    toward structurally distinctive nodes (e.g. the O's completing an
    NO2 group) when the remainder-probability signal is flat.

    ``index`` classifies ``G[S]``'s connected subsets of 2 to
    ``NOVELTY_SIZE`` nodes, and is caught up here with the nodes
    selected since the last call. The known classes are those
    ``mine_patterns`` over ``G[S]`` keeps. ``v`` is novel when a
    connected subset of ``S ∪ {v}`` with ``v`` and 2 to ``NOVELTY_SIZE``
    nodes has a class outside them. ``IncPGen`` enumerates at most
    ``FRESH_CAP`` subsets of ``v``'s 2-hop ball in ``G[S ∪ {v}]``, so
    where ``S ∪ {v}`` has more subsets than that, the cap can hide a
    novel one: there ``fresh_classes`` runs the capped walk itself,
    inside ``S ∪ {v}`` on the host.
    """
    if not selected:
        return {v: True for v in pool}
    for u in sorted(selected - index.nodes):
        index.add(u)
    known = index.top_classes(NOVELTY_KNOWN)
    classifier = index.classifier
    n = len(selected) + 1  # candidates are outside the selection
    capped = sum(comb(n, k) for k in range(1, NOVELTY_SIZE + 1)) > FRESH_CAP
    out: Dict[int, bool] = {}
    for v in pool:
        nodes = selected | {v}
        if not capped:
            out[v] = any(
                classifier.classify(graph, subset) not in known
                for subset in connected_node_subsets(
                    graph, NOVELTY_SIZE, min_size=2, cap=None, nodes=nodes,
                    containing=v,
                )
            )
        else:
            delta = fresh_classes(
                graph,
                new_node=v,
                radius=2,
                known=[classifier.patterns[c] for c in known],
                max_size=NOVELTY_SIZE,
                classifier=classifier,
                nodes=nodes,
            )
            out[v] = any(len(subset) >= 2 for subset in delta)
    return out


def _grow_paper_mode(
    graph: Graph,
    verifier: GnnVerifier,
    oracle: ExplainabilityOracle,
    state: SelectionState,
    backup: Set[int],
    label: int,
    lower: int,
    upper: int,
) -> None:
    """Literal Algorithm 1 loop: re-verify every candidate each round.

    Each round verifies the entire remaining-node frontier in one
    ``vp_extend_frontier`` call — two stacked forward passes instead
    of two per candidate.
    """
    while len(state.selected) < upper:
        candidates = [v for v in graph.nodes() if v not in state.selected]
        feasible = vp_extend_frontier(
            candidates, frozenset(state.selected), verifier, label, upper, VERIFY_PAPER
        )
        backup.update(feasible)
        if not feasible:
            break
        v_star = oracle.best_candidate(state, feasible)
        if v_star is None:
            break
        oracle.add(state, v_star)
        backup.discard(v_star)


class ApproxGvex:
    """Explain-and-summarize view generation over a graph database.

    A facade over :mod:`repro.runtime`: each call builds an
    :class:`~repro.runtime.plan.ExplainPlan` and runs it through the
    serial shard loop, the one view-generation driver, so its views
    equal every executor's.

    Parameters
    ----------
    model:
        The trained (fixed) GNN classifier ``M``.
    config:
        GVEX configuration ``C``.
    labels:
        Optional subset of (model-space integer) labels of interest Ł;
        defaults to every label the model assigns on the database.
    """

    def __init__(
        self,
        model: GnnClassifier,
        config: Optional[GvexConfig] = None,
        labels: Optional[Iterable[int]] = None,
    ) -> None:
        self.model = model
        self.config = config if config is not None else GvexConfig()
        self.labels = None if labels is None else sorted(set(labels))
        self.total_inference_calls = 0

    # ------------------------------------------------------------------
    def explain(
        self,
        db: GraphDatabase,
        predicted: Optional[Sequence[Optional[int]]] = None,
    ) -> ViewSet:
        """Generate one explanation view per label of interest (Problem 1)."""
        return self._run(db, self.labels, predicted)

    def explain_label_group(
        self, db: GraphDatabase, label: int, indices: Sequence[int]
    ) -> ExplanationView:
        """Build the explanation view for one label group ``G^l``.

        ``indices`` are the group's database indices, explained in
        ascending order.
        """
        members = set(indices)
        predicted = [label if i in members else None for i in range(len(db))]
        return self._run(db, [label], predicted)[label]

    def _run(self, db, labels, predicted) -> ViewSet:
        from repro.runtime import SerialExecutor, build_plan

        plan = build_plan(
            db, self.model, self.config, labels=labels, predicted=predicted
        )
        views, stats = SerialExecutor().run(plan)
        self.total_inference_calls += stats["inference_calls"]
        return views


def explain_database(
    db: GraphDatabase,
    model: GnnClassifier,
    config: Optional[GvexConfig] = None,
    labels: Optional[Iterable[int]] = None,
) -> ViewSet:
    """One-call convenience wrapper around :class:`ApproxGvex`."""
    return ApproxGvex(model, config, labels).explain(db)


__all__ = [
    "ApproxGvex",
    "explain_graph",
    "explain_database",
    "database_predictions",
    "GraphExplainResult",
]
