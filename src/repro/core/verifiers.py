"""Verification primitives: ``EVerify``, ``VpExtend``, and full view
verification (§3.3, §4).

``GnnVerifier`` is the paper's ``EVerify`` operator — it answers "what
label does M assign to this node-induced subgraph / to the remainder of
the graph" with memoization, since the greedy loop re-queries the same
sets. ``vp_extend`` is Procedure 2 with the three operating modes
discussed in DESIGN.md §3. ``verify_view`` is the Lemma 3.1 decision
procedure (constraints C1-C3), used as a correctness oracle in tests
and exposed for users who assemble views by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.config import GvexConfig, VERIFY_NONE, VERIFY_PAPER, VERIFY_SOFT
from repro.gnn.batch import DELTA_MAX_ROWS
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph
from repro.graphs.view import ExplanationView
from repro.matching.coverage import CoverageIndex
from repro.exceptions import ValidationError


def uniform_prior(n_classes: int) -> np.ndarray:
    """``M(∅)`` — the uniform class prior used for degenerate queries.

    Shared by the empty-subset and empty-remainder fallbacks so both
    code paths (and :meth:`GnnClassifier.predict_proba` on the empty
    graph) agree on the same distribution.
    """
    n = int(n_classes)
    if n < 1:
        raise ValidationError(f"n_classes must be >= 1, got {n_classes}")
    return np.full(n, 1.0 / n)


#: sentinel distinguishing "compute M(G) now" from an explicit label
#: (which may legitimately be ``None`` for the empty graph)
_AUTO = object()


class GnnVerifier:
    """Cached GNN inference on node subsets of one graph (``EVerify``).

    This class is the serial schedule: one forward pass per memo-cache
    miss. Production runs :class:`BatchedGnnVerifier`; this base class
    stays as ``verify_view``'s C2 checker and as the serial reference
    the parity suites compare the batched schedule against.

    ``inference_calls`` counts forward-pass launches; ``subsets_evaluated``
    counts the node subsets those launches covered. Here the two are
    equal — :class:`BatchedGnnVerifier` launches one stacked pass per
    frontier, so its ``inference_calls`` is much smaller for the same
    ``subsets_evaluated``.
    """

    #: whether prefetches are filled with stacked batch passes
    is_batched = False

    def __init__(
        self, model: GnnClassifier, graph: Graph, original_label: object = _AUTO
    ) -> None:
        self.model = model
        self.graph = graph
        #: ``M(G)`` — callers that already know the prediction (e.g. a
        #: whole-shard ``predict_db`` pass) seed it to skip the serial
        #: forward the default would launch here
        self.original_label: Optional[int] = (
            model.predict(graph) if original_label is _AUTO else original_label  # type: ignore[assignment]
        )
        self._subset_probas: Dict[FrozenSet[int], np.ndarray] = {}
        self._remainder_probas: Dict[FrozenSet[int], np.ndarray] = {}
        self.inference_calls = 0
        self.subsets_evaluated = 0

    # ------------------------------------------------------------------
    def _subset_proba(self, key: FrozenSet[int]) -> np.ndarray:
        if key not in self._subset_probas:
            sub, _ = self.graph.induced_subgraph(key)
            self.inference_calls += 1
            self.subsets_evaluated += 1
            self._subset_probas[key] = self.model.predict_proba(sub)
        return self._subset_probas[key]

    def _remainder_proba(self, key: FrozenSet[int]) -> np.ndarray:
        if key not in self._remainder_probas:
            rest, _ = self.graph.remove_nodes(key)
            self.inference_calls += 1
            self.subsets_evaluated += 1
            self._remainder_probas[key] = self.model.predict_proba(rest)
        return self._remainder_probas[key]

    # ------------------------------------------------------------------
    # frontier prefetch API (no-op batching in the serial reference:
    # each miss still costs one forward, exactly as a lazy query would)
    # ------------------------------------------------------------------
    def _normalize_keys(
        self, keys: Iterable[Iterable[int]]
    ) -> "list[FrozenSet[int]]":
        seen = {}
        for key in keys:
            fs = frozenset(int(v) for v in key)
            if fs not in seen:
                seen[fs] = None
        return list(seen)

    def _subset_misses(
        self, keys: Iterable[Iterable[int]]
    ) -> "list[FrozenSet[int]]":
        """Uncached, non-degenerate subset keys. The empty set is
        degenerate: queries answer it from :func:`uniform_prior`."""
        return [
            key
            for key in self._normalize_keys(keys)
            if key and key not in self._subset_probas
        ]

    def _remainder_misses(
        self, keys: Iterable[Iterable[int]]
    ) -> "list[FrozenSet[int]]":
        """Uncached remainder keys with a non-empty remainder. Keys
        covering the whole graph fall back to :func:`uniform_prior`."""
        return [
            key
            for key in self._normalize_keys(keys)
            if len(key) < self.graph.n_nodes
            and key not in self._remainder_probas
        ]

    def prefetch_subsets(self, keys: Iterable[Iterable[int]]) -> int:
        """Ensure ``P(M(G_s))`` is cached for every key; returns #misses."""
        misses = self._subset_misses(keys)
        for key in misses:
            self._subset_proba(key)
        return len(misses)

    def prefetch_remainders(self, keys: Iterable[Iterable[int]]) -> int:
        """Ensure ``P(M(G \\ G_s))`` is cached; returns #misses."""
        misses = self._remainder_misses(keys)
        for key in misses:
            self._remainder_proba(key)
        return len(misses)

    def prefetch_extensions(
        self, base: Iterable[int], candidates: Iterable[int]
    ) -> int:
        """Cache ``P(M(G_s))`` for ``base ∪ {v}`` per candidate ``v``.

        The shape every greedy frontier takes: consecutive rounds grow
        ``base`` by one node, so :class:`BatchedGnnVerifier` splices the
        new column into the previous round's stacked index arrangement
        instead of re-sorting every subset (frontier tensor reuse).
        This serial schedule keeps the lazy one-forward-per-miss fill;
        decisions are identical either way.
        """
        base_key = frozenset(int(v) for v in base)
        return self.prefetch_subsets(
            [base_key | {int(v)} for v in candidates]
        )

    def label_of_nodes(self, nodes: Iterable[int]) -> Optional[int]:
        """``M(G_s)`` for the node-induced subgraph on ``nodes``."""
        key = frozenset(int(v) for v in nodes)
        if not key:
            return None
        return int(np.argmax(self._subset_proba(key)))

    def label_of_remainder(self, nodes: Iterable[int]) -> Optional[int]:
        """``M(G \\ G_s)`` — label of the graph with ``nodes`` removed."""
        key = frozenset(int(v) for v in nodes)
        if len(key) >= self.graph.n_nodes:
            return None  # empty remainder: M(∅)
        return int(np.argmax(self._remainder_proba(key)))

    def subset_probability(self, nodes: Iterable[int], label: int) -> float:
        """``P(M(G_s) = label)`` — drives consistency hill-climbing.

        The empty subset is ``M(∅)``: a uniform prior, no inference.
        """
        key = frozenset(int(v) for v in nodes)
        if not key:
            return float(uniform_prior(self.model.n_classes)[label])
        return float(self._subset_proba(key)[label])

    def remainder_probability(self, nodes: Iterable[int], label: int) -> float:
        """``P(M(G \\ G_s) = label)`` — drives counterfactual steering.

        When ``nodes`` covers the whole graph the remainder is empty
        (``M(∅)``): a uniform prior, no inference.
        """
        key = frozenset(int(v) for v in nodes)
        if len(key) >= self.graph.n_nodes:
            return float(uniform_prior(self.model.n_classes)[label])
        return float(self._remainder_proba(key)[label])

    def check(self, nodes: Iterable[int], label: int) -> Tuple[bool, bool]:
        """(consistent, counterfactual) for ``nodes`` w.r.t. ``label`` (§2.2)."""
        key = frozenset(int(v) for v in nodes)
        if not key:
            return False, False
        consistent = self.label_of_nodes(key) == label
        counterfactual = self.label_of_remainder(key) != label
        return consistent, counterfactual


class BatchedGnnVerifier(GnnVerifier):
    """``EVerify`` with frontier-at-a-time cache fills.

    Same memoization semantics and bit-identical probabilities as the
    serial :class:`GnnVerifier` — only the schedule differs: prefetches
    evaluate every cache miss in one stacked forward pass
    (:meth:`GnnClassifier.predict_proba_batch`), so ``inference_calls``
    counts one launch per frontier instead of one per subset. Lazy
    subset misses outside a prefetch take the inherited serial path;
    lazy remainder misses do too unless the graph is above the delta
    crossover, where they are one-key :meth:`prefetch_remainders`.

    Remainder frontiers on graphs above the crossover are computed as
    deltas (docs/verification.md, "Delta remainder forwards"): the
    verifier keeps the per-layer hidden rows of the latest computed
    remainder frontier, and each miss ``G \\ (S ∪ {v})`` whose base
    ``G \\ S`` is among them recomputes only the rows within reach of
    ``v`` (:meth:`GnnClassifier.predict_proba_delta`). Only GCN
    :class:`GnnClassifier` models (``delta_capable``) take it.

    Models without a ``predict_proba_batch`` method (the relational
    classifier) degrade gracefully to the serial schedule; batch-capable
    models take the ``cache`` and ``presorted`` arguments.
    """

    is_batched = True

    #: peak-memory cap: one stacked launch materializes ``(B, k, k)``
    #: tensors, so the frontier is split into launches of at most
    #: ``BATCH_ELEMENT_BUDGET / k^2`` subsets (≈128 MB of float64 at
    #: the cap). Chunking changes scheduling only, never values.
    BATCH_ELEMENT_BUDGET = 16_000_000

    #: Delta crossover, from ``results/BENCH_remainder_delta.json``
    #: (``benchmarks/bench_remainder_delta.py``): a base group of ``B``
    #: remainders of ``K`` rows whose widest layer's ball spans ``D``
    #: rows takes the delta when ``B·K·(K − D/2)`` reaches this much
    #: work. The delta's fixed cost (ball search, index building) loses
    #: below it; about half of what it saves does not depend on the
    #: ball (the full path's ``K²`` adjacency gather and normalization).
    DELTA_MIN_WORK = 40_000

    def __init__(
        self, model: GnnClassifier, graph: Graph, original_label: object = _AUTO
    ) -> None:
        super().__init__(model, graph, original_label=original_label)
        self._can_batch = hasattr(model, "predict_proba_batch")
        #: dense gather sources (features / symmetrized adjacency) are
        #: immutable per graph; reusing them across launches avoids an
        #: O(n²) rebuild every prefetch
        self._gather_cache: dict = {}
        #: whether remainder frontiers keep hidden rows for deltas: GCN
        #: models on graphs where a frontier can reach the crossover
        #: (at most n-1 remainders of n-2 rows, an empty ball) and
        #: whose bases fit the bitwise row cap
        n = graph.n_nodes
        self._keeps_bases = (
            n <= DELTA_MAX_ROWS + 1
            and self._delta_pays(n - 2, n - 1, 0)
            and bool(getattr(model, "delta_capable", False))
        )
        #: remainder key -> (sorted nodes, layer outputs) of the latest
        #: computed remainder frontier: the candidate delta bases
        self._frontier: Dict[FrozenSet[int], Tuple[np.ndarray, list]] = {}

    def _remainder_proba(self, key: FrozenSet[int]) -> np.ndarray:
        if self._keeps_bases and key not in self._remainder_probas:
            self.prefetch_remainders([key])
        return super()._remainder_proba(key)

    def _launch(self, subsets: "list[list[int]]") -> "list[np.ndarray]":
        """Stacked forwards over ``subsets``, chunked to the memory cap."""
        rows: "list[np.ndarray]" = []
        start = 0
        while start < len(subsets):
            widest = max(
                (len(s) for s in subsets[start:]), default=1
            )
            chunk = max(1, self.BATCH_ELEMENT_BUDGET // max(1, widest * widest))
            batch = subsets[start : start + chunk]
            probas = self.model.predict_proba_batch(
                self.graph, batch, cache=self._gather_cache
            )
            rows.extend(probas)
            self.inference_calls += 1
            self.subsets_evaluated += len(batch)
            start += chunk
        return rows

    def prefetch_subsets(self, keys: Iterable[Iterable[int]]) -> int:
        misses = self._subset_misses(keys)
        if not misses:
            return 0
        if not self._can_batch:
            for key in misses:
                self._subset_proba(key)
            return len(misses)
        rows = self._launch([sorted(key) for key in misses])
        for key, row in zip(misses, rows):
            self._subset_probas[key] = row
        return len(misses)

    def prefetch_remainders(self, keys: Iterable[Iterable[int]]) -> int:
        misses = self._remainder_misses(keys)
        if not misses:
            return 0
        if not self._can_batch:
            for key in misses:
                self._remainder_proba(key)
            return len(misses)
        if not self._keeps_bases:
            all_nodes = range(self.graph.n_nodes)
            rows = self._launch(
                [[v for v in all_nodes if v not in key] for key in misses]
            )
            for key, row in zip(misses, rows):
                self._remainder_probas[key] = row
            return len(misses)
        frontier: Dict[FrozenSet[int], Tuple[np.ndarray, list]] = {}
        rest = misses
        base = self._shared_base(misses)
        if base is not None:
            group = [k for k in misses if len(k) == len(base) + 1 and base < k]
            if self._delta_launch(base, group, frontier):
                taken = set(group)
                rest = [k for k in misses if k not in taken]
        if rest:
            self._hidden_launch(rest, frontier)
        self._frontier = frontier
        return len(misses)

    def _shared_base(self, misses: "list[FrozenSet[int]]") -> Optional[FrozenSet[int]]:
        """The kept base (a remainder key one node smaller) most misses share.

        Greedy frontiers share one base, the round's selection ``S``,
        so the frontier stays one delta launch; a key can have several
        kept bases, and picking per key could split it. Misses under
        another base or none take the full path.
        """
        counts: Dict[FrozenSet[int], int] = {}
        for key in misses:
            for u in sorted(key):
                base = key - {u}
                if base in self._frontier:
                    counts[base] = counts.get(base, 0) + 1
        return max(counts, key=counts.__getitem__) if counts else None

    def _delta_pays(self, rows: int, frontier: int, widest: int) -> bool:
        """The crossover: is the delta faster than the full forward?

        ``rows`` is the remainders' size, ``frontier`` the number of
        remainders under the base and ``widest`` the widest layer's
        ball (most rows any candidate recomputes). Constants and
        measurements: ``results/BENCH_remainder_delta.json``.
        """
        return frontier * rows * (rows - widest / 2) >= self.DELTA_MIN_WORK

    def _delta_launch(
        self,
        base: FrozenSet[int],
        group: "list[FrozenSet[int]]",
        frontier: Dict[FrozenSet[int], Tuple[np.ndarray, list]],
    ) -> bool:
        """Fill ``group`` as deltas from ``base``; False if the crossover says no."""
        base_nodes, base_hiddens = self._frontier[base]
        rows = base_nodes.size - 1
        if not self._delta_pays(rows, len(group), 0):
            return False  # too little work even with empty balls
        removed = np.searchsorted(
            base_nodes, [next(iter(key - base)) for key in group]
        )
        balls = self.model.removal_balls(
            self.graph, base_nodes, removed, cache=self._gather_cache
        )
        if not self._delta_pays(rows, len(group), balls.widest):
            return False
        width = max(2, balls.widest, *(h.shape[1] for h in base_hiddens))
        chunk = max(1, self.BATCH_ELEMENT_BUDGET // max(1, rows * width))
        for start in range(0, len(group), chunk):
            part = slice(start, start + chunk)
            probas, idx, hiddens = self.model.predict_proba_delta(
                self.graph,
                base_nodes,
                base_hiddens,
                balls.take(part),
                cache=self._gather_cache,
            )
            self._store_remainders(group[part], probas, idx, hiddens, frontier)
        return True

    def _hidden_launch(
        self,
        keys: "list[FrozenSet[int]]",
        frontier: Dict[FrozenSet[int], Tuple[np.ndarray, list]],
    ) -> None:
        """Full stacked forwards over ``keys`` that keep each layer's rows."""
        by_size: Dict[int, "list[FrozenSet[int]]"] = {}
        for key in keys:
            by_size.setdefault(len(key), []).append(key)
        n = self.graph.n_nodes
        for group in by_size.values():
            rows = n - len(group[0])
            chunk = max(1, self.BATCH_ELEMENT_BUDGET // max(1, rows * rows))
            for start in range(0, len(group), chunk):
                part = group[start : start + chunk]
                kept = np.ones((len(part), n), dtype=bool)
                for j, key in enumerate(part):
                    kept[j, list(key)] = False
                idx = np.nonzero(kept)[1].reshape(len(part), rows)
                probas, hiddens = self.model.predict_proba_hiddens(
                    self.graph, idx, cache=self._gather_cache
                )
                self._store_remainders(part, probas, idx, hiddens, frontier)

    def _store_remainders(
        self,
        keys: "list[FrozenSet[int]]",
        probas: np.ndarray,
        idx: np.ndarray,
        hiddens: "list[np.ndarray]",
        frontier: Dict[FrozenSet[int], Tuple[np.ndarray, list]],
    ) -> None:
        """Cache one launch's probabilities and keep its finite rows as bases.

        A base with a non-finite row would poison the copied rows
        (``0 · inf`` is NaN where the full forward has no such term),
        so such remainders are cached but never used as a base.
        """
        self.inference_calls += 1
        self.subsets_evaluated += len(keys)
        finite = np.isfinite(hiddens[-1]).all(axis=(1, 2))
        for j, key in enumerate(keys):
            self._remainder_probas[key] = probas[j]
            if finite[j]:
                frontier[key] = (idx[j], [h[j] for h in hiddens])

    def prefetch_extensions(
        self, base: Iterable[int], candidates: Iterable[int]
    ) -> int:
        """Stacked fill of ``base ∪ {v}`` probes via the splice fast path.

        Builds the frontier's sorted index matrix with one vectorized
        splice into the shared ``base`` arrangement
        (:func:`repro.gnn.batch.extension_index_matrix`) — skipping the
        per-subset sorting and validation of the generic prefetch — and
        launches it through the presorted fast path. No state is
        carried between rounds (the gathers read the per-graph ``X``/
        ``A`` cache, which costs the same as splicing old tensors
        would). Cached values are bit-identical to
        :meth:`prefetch_subsets`'s.
        """
        base_key = frozenset(int(v) for v in base)
        fresh = [
            v
            for v in dict.fromkeys(int(v) for v in candidates)
            if v not in base_key
        ]
        misses = [v for v in fresh if base_key | {v} not in self._subset_probas]
        if not misses:
            return 0
        if not self._can_batch:
            return super().prefetch_extensions(base_key, misses)
        from repro.gnn.batch import extension_index_matrix

        idx = extension_index_matrix(base_key, misses)
        width = idx.shape[1]
        chunk = max(1, self.BATCH_ELEMENT_BUDGET // max(1, width * width))
        start = 0
        while start < len(misses):
            part = idx[start : start + chunk]
            probas = self.model.predict_proba_batch(
                self.graph, part, cache=self._gather_cache, presorted=True
            )
            for v, row in zip(misses[start : start + chunk], probas):
                self._subset_probas[base_key | {v}] = row
            self.inference_calls += 1
            self.subsets_evaluated += len(part)
            start += chunk
        return len(misses)


def vp_extend(
    v: int,
    selected: FrozenSet[int],
    verifier: GnnVerifier,
    label: int,
    upper_bound: int,
    mode: str = VERIFY_SOFT,
) -> bool:
    """Procedure 2: may ``selected ∪ {v}`` extend the explanation subgraph?

    * ``paper`` — literal Procedure 2: the extension must already be
      consistent (``M(G_t) = M(G)``) and counterfactual
      (``M(G \\ G_t) ≠ M(G)``), and stay under the size bound.
    * ``soft`` — only the size bound gates extension; consistency /
      counterfactual are recorded by the caller after each step.
    * ``none`` — size bound only (alias of soft at this level).
    """
    if v in selected:
        return False
    if len(selected) + 1 > upper_bound:
        return False
    if mode in (VERIFY_SOFT, VERIFY_NONE):
        return True
    if mode == VERIFY_PAPER:
        consistent, counterfactual = verifier.check(selected | {v}, label)
        return consistent and counterfactual
    raise ValidationError(f"unknown verification mode {mode!r}")


def vp_extend_frontier(
    candidates: Iterable[int],
    selected: FrozenSet[int],
    verifier: GnnVerifier,
    label: int,
    upper_bound: int,
    mode: str = VERIFY_SOFT,
) -> "list[int]":
    """Procedure 2 over a whole candidate frontier.

    Returns the candidates (in input order) whose extension passes
    :func:`vp_extend`. In ``paper`` mode the consistency and
    counterfactual probes for every extension are prefetched first —
    with a batched verifier that is two stacked forward passes for the
    entire frontier; with the serial reference it degenerates to the
    per-candidate schedule. Decisions are identical either way.
    """
    cands = [int(v) for v in candidates]
    if mode == VERIFY_PAPER:
        feasible = [
            v
            for v in cands
            if v not in selected and len(selected) + 1 <= upper_bound
        ]
        verifier.prefetch_extensions(selected, feasible)
        verifier.prefetch_remainders([selected | {v} for v in feasible])
    return [
        v for v in cands if vp_extend(v, selected, verifier, label, upper_bound, mode)
    ]


@dataclass(frozen=True)
class ViewVerification:
    """Outcome of the Lemma 3.1 three-constraint check."""

    c1_patterns_cover_nodes: bool
    c2_explanations_valid: bool
    c3_properly_covers: bool
    total_nodes: int

    @property
    def ok(self) -> bool:
        return (
            self.c1_patterns_cover_nodes
            and self.c2_explanations_valid
            and self.c3_properly_covers
        )


def verify_view(
    view: ExplanationView,
    graphs: Sequence[Graph],
    model: GnnClassifier,
    config: GvexConfig,
    label: Optional[int] = None,
    per_graph_coverage: bool = True,
) -> ViewVerification:
    """Check constraints C1-C3 for an assembled explanation view.

    ``graphs`` is the label group, indexed by each subgraph's
    ``graph_index``. ``label`` defaults to the model's prediction per
    graph. ``per_graph_coverage`` selects the coverage-scope reading
    (DESIGN.md §3): per graph (default, matches Algorithm 1's stopping
    rule) or per label group (Problem 1's aggregate range).
    """
    # C2: every subgraph consistent + counterfactual
    c2 = True
    for s in view.subgraphs:
        graph = graphs[s.graph_index]
        verifier = GnnVerifier(model, graph)
        target = label if label is not None else verifier.original_label
        consistent, counterfactual = verifier.check(s.nodes, target)
        if not (consistent and counterfactual):
            c2 = False
            break

    # C1: patterns cover all subgraph nodes
    hosts = [s.subgraph for s in view.subgraphs]
    if hosts:
        index = CoverageIndex(hosts)
        c1 = index.covers_all_nodes(view.patterns)
    else:
        c1 = not view.patterns  # empty view is vacuously a graph view

    # C3: proper coverage
    bounds = config.coverage_for(view.label)
    total = view.n_subgraph_nodes
    if per_graph_coverage:
        c3 = all(bounds.contains(s.n_nodes) for s in view.subgraphs)
    else:
        c3 = bounds.contains(total)

    return ViewVerification(c1, c2, c3, total)


__all__ = [
    "GnnVerifier",
    "BatchedGnnVerifier",
    "uniform_prior",
    "vp_extend",
    "vp_extend_frontier",
    "ViewVerification",
    "verify_view",
]
