"""``StreamGVEX`` — single-pass streaming view maintenance (Algorithm 3, §5).

Processes each graph's nodes as a stream in batches. The selected set
``V_S`` acts as a size-``u_l`` cache maintained by ``IncUpdateVS``
(Procedure 4): once full, an arriving node ``v`` replaces the
cheapest-to-lose incumbent ``v⁻`` only when ``gain(v) >= 2 · loss(v⁻)``
— the swap rule that preserves the streaming 1/4-approximation
(Theorem 5.1). The swap is tried only when the arriving node adds
pattern structure: ``IncPGen``'s ΔP over its ``r``-hop neighborhood is
non-empty. The incumbent side of the rule is priced once per oracle
and ``V_S``, and ΔP is tested only for an arrival whose gain passes
it; ΔP stops at the first fresh isomorphism class
(:func:`~repro.mining.pgen.fresh_classes`). ``IncUpdateP``
(Procedure 5) keeps the higher-tier pattern set covering ``V_S``. Its
candidates, and what each covers in ``G[V_S]`` (``IncPMatch``), come
from one :class:`~repro.mining.index.SubsetIndex` per stream, which
adds the subsets an admitted node brings and drops the subsets an
evicted node takes, instead of re-mining and re-matching ``V_S`` on
every admission. ΔP and every stream of one shard (``repro.runtime``'s
shard loop drives the streams of a database) classify through one
:class:`~repro.mining.classes.SubsetClassifier`, which builds a
``Pattern`` only for subset content it has not seen; the re-mining
schedule survives as the parity reference
:func:`repro.reference.remine_patterns`.

``IncEVerify`` — the per-chunk refresh of the influence/diversity
oracle on the seen prefix — is :class:`~repro.core.inc_everify.
IncrementalEVerify`: it builds each chunk's oracle from scratch off
the host's slices (see docs/streaming.md). The prefix is read from the
host by its sorted ids, as is ΔP's ball; neither builds it as a graph.
Building the induced prefix as a graph gives the same oracle bit for
bit; that schedule survives as the parity reference
:class:`repro.reference.RebuildEVerify`.

Every batch boundary records an :class:`AnytimeSnapshot`, giving the
"anytime" view quality/runtime curves of Figures 9(f) and 12;
:class:`StreamResult.oracle_stats` counts the oracle builds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.config import GvexConfig, VERIFY_PAPER
from repro.core.explainability import ExplainabilityOracle, SelectionState
from repro.core.inc_everify import IncrementalEVerify, OracleStats
from repro.core.psum import summarize, weighted_cover
from repro.core.verifiers import BatchedGnnVerifier, vp_extend
from repro.gnn.model import GnnClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.graphs.view import ExplanationSubgraph, ViewSet
from repro.matching.coverage import MATCH_CAP
from repro.mining.classes import SubsetClassifier
from repro.mining.index import SubsetIndex
from repro.mining.mdl import MinedPattern
from repro.mining.pgen import fresh_classes
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class AnytimeSnapshot:
    """State of the stream after one batch (for anytime curves)."""

    fraction_seen: float
    selected_nodes: int
    objective: float
    patterns: int
    elapsed_seconds: float


@dataclass
class StreamResult:
    """Per-graph streaming outcome.

    ``oracle_stats`` accounts the ``IncEVerify`` builds: one full
    refresh per chunk, as the rebuild reference counts
    (``bench_fig12_node_order.py`` compares them).
    ``inference_calls`` counts the stream's EVerify forward launches.
    """

    subgraph: Optional[ExplanationSubgraph]
    patterns: List[Pattern] = field(default_factory=list)
    snapshots: List[AnytimeSnapshot] = field(default_factory=list)
    oracle_stats: OracleStats = field(default_factory=OracleStats)
    inference_calls: int = 0


class _Incumbent(NamedTuple):
    """The swap rule's incumbent side for one oracle and one ``V_S``."""

    #: ``v⁻``, the cheapest incumbent to lose, in the oracle's ids
    local: int
    #: the selection state without ``v⁻``
    reduced: SelectionState
    #: ``gain(v⁻)`` in that state: its loss
    gain: float


class StreamGvex:
    """Streaming view generation with anytime guarantees (Algorithm 3).

    Maintains an explanation view over a single pass of each graph's
    node stream; any prefix of the stream yields a valid (1/4-
    approximate, Theorem 5.1) view, which is what makes the algorithm
    "anytime".
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

    # ------------------------------------------------------------------
    # per-graph stream (Algorithm 3)
    # ------------------------------------------------------------------
    def explain_graph_stream(
        self,
        graph: Graph,
        label: int,
        graph_index: int = 0,
        order: Optional[Sequence[int]] = None,
        lower: Optional[int] = None,
        upper: Optional[int] = None,
        classifier: Optional[SubsetClassifier] = None,
    ) -> StreamResult:
        """Run the node stream for one graph.

        ``order`` fixes the arrival order (default: natural node order);
        StreamGVEX's guarantees are order-independent (§A.8), which
        Figure 12's bench verifies empirically. ``classifier`` is the
        subset classifier the worker state's streams share (a new one
        by default).
        """
        bounds = self.config.coverage_for(label)
        lower = bounds.lower if lower is None else lower
        upper = bounds.upper if upper is None else upper
        upper = min(upper, graph.n_nodes)
        if graph.n_nodes == 0 or upper == 0:
            return StreamResult(subgraph=None)
        stream = list(order) if order is not None else list(graph.nodes())
        if sorted(stream) != list(graph.nodes()):
            raise ValidationError("order must be a permutation of the graph's nodes")

        start = time.perf_counter()
        config = self.config
        batch = config.stream_batch_size
        verifier = BatchedGnnVerifier(self.model, graph)
        mode = config.verification
        engine = IncrementalEVerify(self.model, config)

        seen: List[int] = []
        selected: Set[int] = set()  # global node ids
        backup: Set[int] = set()
        patterns: List[Pattern] = []
        # V_S's connected subsets by class, updated wherever `selected`
        # changes; its classifier also serves the ΔP tests
        index = SubsetIndex(graph, config.max_pattern_size, classifier=classifier)
        snapshots: List[AnytimeSnapshot] = []
        oracle: Optional[ExplainabilityOracle] = None
        state: Optional[SelectionState] = None
        seen_ids: List[int] = []
        to_local: Dict[int, int] = {}
        # the swap rule's incumbent side, kept while the oracle and V_S do
        incumbent: Optional[_Incumbent] = None

        for batch_start in range(0, len(stream), batch):
            chunk = stream[batch_start : batch_start + batch]
            seen.extend(chunk)
            # IncEVerify: the oracle on the seen prefix, oracle id i
            # being node seen_ids[i]
            seen_ids = sorted(seen)
            to_local = {g: l for l, g in enumerate(seen_ids)}
            oracle = engine.refresh(graph, seen_ids)
            state = oracle.state_for([to_local[v] for v in selected])
            incumbent = None

            if mode == VERIFY_PAPER:
                # speculative frontier fill for the arriving chunk: the
                # selected set rarely changes mid-chunk once the cache
                # is warm, so most per-node vp_extend probes hit
                fresh = [v for v in chunk if v not in selected]
                verifier.prefetch_extensions(selected, fresh)
                verifier.prefetch_remainders(
                    [frozenset(selected | {v}) for v in fresh]
                )
            for v in chunk:
                backup.add(v)
                if mode == VERIFY_PAPER and not vp_extend(
                    v,
                    frozenset(selected),
                    verifier,
                    label,
                    graph.n_nodes + 1,  # size handled by IncUpdateVS
                    mode,
                ):
                    continue
                took, incumbent = self._inc_update_vs(
                    v, selected, backup, oracle, state, to_local, upper,
                    graph, seen_ids, patterns, index, incumbent,
                )
                if took:
                    self._inc_update_p(graph, selected, patterns, config, index)
            assert oracle is not None and state is not None
            snapshots.append(
                AnytimeSnapshot(
                    fraction_seen=len(seen) / graph.n_nodes,
                    selected_nodes=len(selected),
                    objective=oracle.value_of_state(state),
                    patterns=len(patterns),
                    elapsed_seconds=time.perf_counter() - start,
                )
            )

        # post-processing: meet the lower bound from the backup pool
        assert oracle is not None and state is not None
        while len(selected) < lower:
            candidates = [
                to_local[v] for v in backup - selected if v in to_local
            ]
            v_local = oracle.best_candidate(state, candidates)
            if v_local is None:
                break
            oracle.add(state, v_local)
            selected.add(seen_ids[v_local])
            index.add(seen_ids[v_local])
        if len(selected) < lower or not selected:
            return StreamResult(
                subgraph=None,
                patterns=patterns,
                snapshots=snapshots,
                oracle_stats=engine.stats,
                inference_calls=verifier.inference_calls,
            )

        # consistency repair: the stream admits nodes in arrival order, so
        # the cache may lack the class-evidencing region; extend toward it
        # (hill-climb on the subgraph's class probability) within u_l
        while (
            len(selected) < upper
            and verifier.label_of_nodes(selected) != label
        ):
            pool = sorted(set(graph.nodes()) - selected)
            if not pool:
                break
            # every pool extension is probed by the argmax below — fill
            # the cache with one stacked pass per repair round; the
            # frontier's index rows are one vectorized splice into the
            # sorted selection, not per-subset sorting
            verifier.prefetch_extensions(selected, pool)
            best = max(
                pool,
                key=lambda v: (
                    verifier.subset_probability(selected | {v}, label),
                    -v,
                ),
            )
            if (
                verifier.subset_probability(selected | {best}, label)
                <= verifier.subset_probability(selected, label) + 1e-12
            ):
                break
            selected.add(best)
            index.add(best)
            if best in to_local:
                oracle.add(state, to_local[best])

        nodes = tuple(sorted(selected))
        sub, _ = graph.induced_subgraph(nodes)
        consistent, counterfactual = verifier.check(nodes, label)
        self._inc_update_p(graph, selected, patterns, config, index)
        score = oracle.value_of_state(state)
        return StreamResult(
            subgraph=ExplanationSubgraph(
                graph_index=graph_index,
                nodes=nodes,
                subgraph=sub,
                consistent=consistent,
                counterfactual=counterfactual,
                score=score,
            ),
            patterns=patterns,
            snapshots=snapshots,
            oracle_stats=engine.stats,
            inference_calls=verifier.inference_calls,
        )

    # ------------------------------------------------------------------
    def _inc_update_vs(
        self,
        v: int,
        selected: Set[int],
        backup: Set[int],
        oracle: ExplainabilityOracle,
        state: SelectionState,
        to_local: Dict[int, int],
        upper: int,
        graph: Graph,
        seen_ids: List[int],
        patterns: Sequence[Pattern],
        index: SubsetIndex,
        incumbent: Optional[_Incumbent],
    ) -> Tuple[bool, Optional[_Incumbent]]:
        """``IncUpdateVS`` (Procedure 4): maintain the size-``u_l`` cache.

        An arriving node with fresh pattern structure replaces the
        cheapest-to-lose incumbent ``v⁻`` only when ``gain(v) >=
        2·loss(v⁻)`` — the Theorem 5.1 swap rule, whose doubled-loss
        margin is what bounds the value surrendered over the stream
        and preserves the 1/4-approximation. Gains and losses are the
        submodular marginals of Eq. 2 (Lemma 3.3), served by the
        chunk's ``IncEVerify`` oracle; ``seen_ids`` maps its ids to
        ``graph``'s. ``index`` follows every change to ``selected``.

        The rule's incumbent side depends only on the oracle and
        ``V_S``: ``incumbent`` carries it from an earlier arrival, or is
        None when either has changed since. The gain test runs before
        ΔP, and ΔP changes nothing a decision reads, so the order
        decides nothing. Returns whether ``v`` entered ``V_S``, and the
        incumbent side for the next arrival (None once ``V_S`` changed).
        """
        v_local = to_local[v]
        # (a) cache not full: just add
        if len(selected) < upper:
            oracle.add(state, v_local)
            selected.add(v)
            index.add(v)
            return True, None
        # (b) swap against the cheapest incumbent only when gain >= 2 * loss
        if incumbent is None:
            losses = oracle.losses(state, state.selected)
            v_minus = min(state.selected, key=lambda u: (losses[u], u))
            reduced = oracle.remove(state, v_minus)
            incumbent = _Incumbent(v_minus, reduced, oracle.gain(reduced, v_minus))
        if oracle.gain(incumbent.reduced, v_local) < 2.0 * incumbent.gain:
            return False, incumbent
        # (c) ... and only when v contributes new pattern structure. Only
        # ΔP's emptiness matters, so stop at its first class.
        delta = fresh_classes(
            graph,
            new_node=v,
            radius=self.config.stream_radius,
            known=patterns,
            max_size=self.config.max_pattern_size,
            classifier=index.classifier,
            nodes=seen_ids,
        )
        if next(delta, None) is None:
            return False, incumbent
        v_minus_global = seen_ids[incumbent.local]
        selected.discard(v_minus_global)
        index.drop(v_minus_global)
        backup.add(v_minus_global)
        reduced = incumbent.reduced
        oracle.add(reduced, v_local)
        selected.add(v)
        index.add(v)
        state.selected = reduced.selected
        state.influenced = reduced.influenced
        state.diversity = reduced.diversity
        return True, None

    def _inc_update_p(
        self,
        graph: Graph,
        selected: Set[int],
        patterns: List[Pattern],
        config: GvexConfig,
        index: SubsetIndex,
    ) -> None:
        """Procedure 5: keep patterns covering ``V_S`` with small edge loss.

        Re-runs Psum's weighted-cover greedy on the (≤ u_l node) induced
        subgraph of ``V_S``, with the incumbent patterns first and then
        the candidates ``mine_patterns`` would mine from ``V_S`` (the
        top 50 by MDL, then one singleton per node type); incumbents
        that no longer contribute coverage are swapped out exactly as
        the paper's case analysis prescribes. ``index`` already holds
        ``V_S``'s classified subsets, so it hands over the candidates
        with their coverage: nothing is re-mined or matched, and a
        pattern is built only for a candidate the greedy selects. The
        matcher stops at ``MATCH_CAP`` mappings, so a call with a
        candidate that may have more runs Psum on ``G[V_S]`` instead.
        """
        if not selected:
            return
        pool = index.pool(patterns, max_candidates=50)
        if any(c.mappings > MATCH_CAP for c in pool):
            vs_sub, _ = graph.induced_subgraph(selected)
            mined = [
                MinedPattern(c.pattern(), support=1, embeddings=c.embeddings)
                for c in pool
            ]
            patterns[:] = summarize([vs_sub], config, candidates=mined).patterns
            return
        chosen = weighted_cover(
            [(c.nodes, c.edges) for c in pool], len(selected), index.n_edges
        )
        patterns[:] = [pool[i].pattern() for i in chosen]

    # ------------------------------------------------------------------
    def explain(
        self,
        db: GraphDatabase,
        predicted: Optional[Sequence[Optional[int]]] = None,
    ) -> ViewSet:
        """Generate explanation views for every label of interest.

        Groups the database by (given or predicted) label, streams each
        graph through :meth:`explain_graph_stream`, then summarizes each
        label group's subgraphs with one ``Psum``. A facade over
        :mod:`repro.runtime`: it builds a ``gvex-stream`` plan and runs
        the serial shard loop, so its views equal every executor's.
        """
        from repro.runtime import SerialExecutor
        from repro.runtime.plan import STREAM_METHOD, build_plan

        plan = build_plan(
            db, self.model, self.config, labels=self.labels,
            predicted=predicted, method=STREAM_METHOD,
        )
        return SerialExecutor().run(plan)[0]


__all__ = ["StreamGvex", "StreamResult", "AnytimeSnapshot"]
