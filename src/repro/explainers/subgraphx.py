"""SubgraphX baseline (Yuan et al., ICML 2021).

Explores connected subgraphs with Monte-Carlo tree search, scoring
candidates by a Monte-Carlo Shapley estimate: the marginal effect of a
subgraph on the predicted class probability, averaged over random
coalitions of the remaining nodes. The search starts from the input
graph and prunes one node per tree edge; the best small subgraph found
within the rollout budget becomes the explanation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.explainers.base import Explainer, ExplainerCapabilities
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph
from repro.graphs.view import ExplanationSubgraph
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class _TreeNode:
    nodes: Tuple[int, ...]
    children: List["_TreeNode"] = field(default_factory=list)
    expanded: bool = False
    visits: int = 0
    total_reward: float = 0.0

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0


class SubgraphX(Explainer):
    """MCTS + Shapley subgraph explainer ("SX" in the figures)."""

    capabilities = ExplainerCapabilities(
        name="SubgraphX",
        short_name="SX",
        requires_learning=False,
        tasks="GC/NC",
        target="Subgraph",
        model_agnostic=True,
        label_specific=False,
        size_bound=False,
        coverage=False,
        configurable=False,
        queryable=False,
    )

    def __init__(
        self,
        model: GnnClassifier,
        rollouts: int = 30,
        shapley_samples: int = 8,
        exploration: float = 1.0,
        prune_candidates: int = 4,
        seed: RngLike = 0,
    ) -> None:
        super().__init__(model)
        self.rollouts = rollouts
        self.shapley_samples = shapley_samples
        self.exploration = exploration
        self.prune_candidates = prune_candidates
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------------
    def explain_graph(
        self,
        graph: Graph,
        label: Optional[int] = None,
        max_nodes: Optional[int] = None,
        graph_index: int = 0,
    ) -> Optional[ExplanationSubgraph]:
        if graph.n_nodes == 0:
            return None
        label = self._resolve_label(graph, label)
        budget = max_nodes if max_nodes is not None else max(graph.n_nodes // 2, 1)

        root_nodes = tuple(sorted(max(graph.connected_components(), key=len)))
        root = _TreeNode(nodes=root_nodes)
        best: Optional[Tuple[float, Tuple[int, ...]]] = None
        reward_cache: Dict[Tuple[int, ...], float] = {}

        for _ in range(self.rollouts):
            path = self._select_path(root, graph)
            leaf = path[-1]
            reward = self._shapley(graph, leaf.nodes, label, reward_cache)
            for node in path:
                node.visits += 1
                node.total_reward += reward
            if len(leaf.nodes) <= budget:
                candidate = (reward, leaf.nodes)
                if best is None or candidate[0] > best[0]:
                    best = candidate

        if best is None:
            # no leaf within budget: take the highest-reward node set and
            # truncate by dropping lowest-degree nodes while connected
            best_nodes = self._truncate(graph, root_nodes, budget)
        else:
            best_nodes = best[1]
        if not best_nodes:
            return None
        return self._finalize(graph, best_nodes, label, graph_index, score=0.0)

    # ------------------------------------------------------------------
    def _select_path(self, root: _TreeNode, graph: Graph) -> List[_TreeNode]:
        path = [root]
        node = root
        while len(node.nodes) > 2:
            if not node.expanded:
                node.children = self._expand(node, graph)
                node.expanded = True
            if not node.children:
                break
            node = self._ucb_child(node)
            path.append(node)
            if node.visits == 0:
                break  # simulate from the first unvisited child
        return path

    def _expand(self, node: _TreeNode, graph: Graph) -> List["_TreeNode"]:
        """Children = prune one low-degree node, keeping connectivity."""
        subset = set(node.nodes)
        removable: List[Tuple[int, int]] = []
        for v in node.nodes:
            rest = subset - {v}
            if rest and graph.is_connected_subset(rest):
                degree = sum(1 for w in graph.all_neighbors(v) if w in subset)
                removable.append((degree, v))
        removable.sort()
        children = []
        for _, v in removable[: self.prune_candidates]:
            children.append(_TreeNode(nodes=tuple(sorted(subset - {v}))))
        return children

    def _ucb_child(self, node: _TreeNode) -> _TreeNode:
        total = max(node.visits, 1)
        best_child = node.children[0]
        best_score = -math.inf
        for child in node.children:
            if child.visits == 0:
                return child
            score = child.mean_reward + self.exploration * math.sqrt(
                math.log(total) / child.visits
            )
            if score > best_score:
                best_score = score
                best_child = child
        return best_child

    def _shapley(
        self,
        graph: Graph,
        nodes: Tuple[int, ...],
        label: int,
        cache: Dict[Tuple[int, ...], float],
    ) -> float:
        """MC Shapley: E_T[ P(S ∪ T) - P(T) ] over random outside coalitions."""
        if nodes in cache:
            return cache[nodes]
        subset = set(nodes)
        outside = [v for v in graph.nodes() if v not in subset]
        total = 0.0
        for _ in range(self.shapley_samples):
            if outside:
                k = int(self._rng.integers(0, len(outside) + 1))
                coalition = set(
                    self._rng.choice(outside, size=k, replace=False).tolist()
                ) if k else set()
            else:
                coalition = set()
            with_s = self._subset_probability(graph, subset | coalition, label)
            without_s = (
                self._subset_probability(graph, coalition, label)
                if coalition
                else 1.0 / self.model.n_classes
            )
            total += with_s - without_s
        reward = total / self.shapley_samples
        cache[nodes] = reward
        return reward

    def _truncate(
        self, graph: Graph, nodes: Tuple[int, ...], budget: int
    ) -> Tuple[int, ...]:
        subset = set(nodes)
        while len(subset) > budget:
            removable = [
                v
                for v in subset
                if len(subset) == 1 or graph.is_connected_subset(subset - {v})
            ]
            if not removable:
                break
            v = min(
                removable,
                key=lambda u: sum(1 for w in graph.all_neighbors(u) if w in subset),
            )
            subset.discard(v)
        return tuple(sorted(subset))


__all__ = ["SubgraphX"]
