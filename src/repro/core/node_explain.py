"""GVEX for node classification (the paper's NC column in Table 1).

A node prediction depends only on the node's k-hop ego network (k =
GNN depth), so node explanation reduces to graph explanation: extract
the ego graph, mark the *center* node with an extra feature flag, and
wrap the node classifier as a graph classifier whose output is the
center's prediction. The marker travels through induced subgraphs and
remainders, so GVEX's consistency / counterfactual checks read:

* ``M(G_s) = l`` — the center, given only the explanation's context,
  still gets its label;
* ``M(G \\ G_s) ≠ l`` — removing the explanation's context nodes flips
  (or erases) the center's prediction.

The selection is seeded with the center so the explanation always
contains it (its prediction is what is being explained).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import GvexConfig, JACOBIAN_EXPECTED
from repro.core.approx import explain_graph
from repro.exceptions import ExplanationError, ModelError
from repro.gnn.loss import softmax
from repro.gnn.model import ForwardCache
from repro.gnn.node_model import NodeGnnClassifier
from repro.graphs.graph import Graph


class CenterGraphClassifier:
    """Adapter: a node classifier viewed as a graph classifier.

    Expects graphs whose last feature column is a 0/1 center marker;
    classification returns the marked node's prediction (uniform/None
    when the marker is absent — e.g. after the center was removed).
    Exposes the surface GVEX's oracle and verifiers need
    (``predict``, ``predict_proba``, ``features_for``, ``forward``,
    ``conv``, ``aggregation_matrix``, ``n_layers``).
    """

    #: the node model aggregates as a GCN (its ``aggregation_matrix`` is
    #: ``normalized_adjacency``); the oracle normalizes by these
    conv = "gcn"
    gin_eps = 0.0

    def __init__(self, node_model: NodeGnnClassifier) -> None:
        self.node_model = node_model
        self.in_dim = node_model.in_dim + 1
        self.n_classes = node_model.n_classes
        self.hidden_dims = node_model.hidden_dims

    @property
    def n_layers(self) -> int:
        return self.node_model.n_layers

    # ------------------------------------------------------------------
    def _split(self, graph: Graph) -> Tuple[np.ndarray, Optional[int]]:
        X = graph.feature_matrix(n_types=self.in_dim)
        if X.shape[1] != self.in_dim:
            raise ModelError(
                f"expected {self.in_dim} feature columns (incl. center marker), "
                f"got {X.shape[1]}"
            )
        centers = np.flatnonzero(X[:, -1] > 0.5)
        center = int(centers[0]) if len(centers) else None
        return X[:, :-1], center

    def aggregation_matrix(self, graph: Graph) -> np.ndarray:
        return self.node_model.aggregation_matrix(graph)

    def features_for(self, graph: Graph) -> np.ndarray:
        return graph.feature_matrix(n_types=self.in_dim)

    def predict_proba(self, graph: Graph) -> np.ndarray:
        if graph.n_nodes == 0:
            return np.full(self.n_classes, 1.0 / self.n_classes)
        X, center = self._split(graph)
        if center is None:
            return np.full(self.n_classes, 1.0 / self.n_classes)
        Q = self.aggregation_matrix(graph)
        logits, _, _ = self.node_model.forward(X, Q)
        return softmax(logits[center])

    def predict(self, graph: Graph) -> Optional[int]:
        if graph.n_nodes == 0:
            return None
        X, center = self._split(graph)
        if center is None:
            return None
        Q = self.aggregation_matrix(graph)
        logits, _, _ = self.node_model.forward(X, Q)
        return int(np.argmax(logits[center]))

    def forward(self, X: np.ndarray, Q: np.ndarray) -> ForwardCache:
        """The node model's layers on ``X`` without its marker column;
        ``hiddens[-1]`` are the node embeddings the oracle reads."""
        _, hiddens, pre_activations = self.node_model.forward(X[:, :-1], Q)
        return ForwardCache(
            X=X, Q=Q, pre_activations=pre_activations, hiddens=hiddens
        )

    def predict_proba_batch(
        self,
        graph: Graph,
        node_subsets: np.ndarray,
        cache: Optional[dict] = None,
    ) -> np.ndarray:
        """Batched ``predict_proba`` over node-induced subgraphs.

        Lets ``BatchedGnnVerifier`` serve node-explanation frontiers
        with stacked passes. ``node_subsets`` is a ``(B, k)`` matrix of
        strictly increasing node rows, as for
        :meth:`GnnClassifier.predict_proba_batch`. Rows match the
        serial path bit-for-bit: subsets lacking the center marker (or
        empty) get the uniform prior, others the center row of the
        stacked node-model forward.
        """
        from repro.gnn.batch import (
            aggregation_matrices,
            presorted_rows_probas,
            stacked_layers,
        )

        def features() -> np.ndarray:
            X_full = graph.feature_matrix(n_types=self.in_dim)
            if X_full.shape[1] != self.in_dim:
                raise ModelError(
                    f"expected {self.in_dim} feature columns "
                    f"(incl. center marker), got {X_full.shape[1]}"
                )
            return X_full

        def forward_group(X_b: np.ndarray, A_b: np.ndarray) -> np.ndarray:
            markers = X_b[:, :, -1] > 0.5
            has_center = markers.any(axis=1)
            centers = markers.argmax(axis=1)  # first marked node per row
            # NodeGnnClassifier is GCN-only (its aggregation_matrix is
            # normalized_adjacency unconditionally); revisit if it ever
            # grows the conv options of its graph-level sibling
            Q_b = aggregation_matrices("gcn", 0.0, A_b)
            H = stacked_layers(
                X_b[:, :, :-1],
                Q_b,
                self.node_model.weights,
                self.node_model.biases,
                self.node_model._act,
            )
            logits = H @ self.node_model.head_weight + self.node_model.head_bias
            out = np.empty((X_b.shape[0], self.n_classes), dtype=np.float64)
            for j in range(X_b.shape[0]):
                out[j] = (
                    softmax(logits[j, centers[j]])
                    if has_center[j]
                    else 1.0 / self.n_classes
                )
            return out

        return presorted_rows_probas(
            graph, node_subsets, self.n_classes, features, forward_group, cache
        )


@dataclass
class NodeExplanation:
    """Explanation of one node's predicted label."""

    node: int
    label: int
    context_nodes: Tuple[int, ...]  # global ids, includes the node itself
    subgraph: Graph
    consistent: bool
    counterfactual: bool
    score: float


def explain_node(
    node_model: NodeGnnClassifier,
    graph: Graph,
    node: int,
    config: Optional[GvexConfig] = None,
    radius: Optional[int] = None,
) -> NodeExplanation:
    """Explain why ``node_model`` assigns ``node`` its label in ``graph``."""
    if not 0 <= node < graph.n_nodes:
        raise ExplanationError(f"node {node} not in graph (n={graph.n_nodes})")
    config = config if config is not None else GvexConfig()
    if config.jacobian != JACOBIAN_EXPECTED:
        # the adapter's marker column is not part of the trained network,
        # so the exact Jacobian through it is undefined
        from dataclasses import replace

        config = replace(config, jacobian=JACOBIAN_EXPECTED)
    radius = radius if radius is not None else node_model.n_layers

    ego_nodes = sorted(graph.k_hop_nodes(node, radius))
    ego, ids = graph.induced_subgraph(ego_nodes)
    center_local = ids.index(node)

    X = node_model.features_for(graph)[ids]
    marker = np.zeros((len(ids), 1))
    marker[center_local, 0] = 1.0
    marked = Graph(
        ego.node_types, features=np.hstack([X, marker]), directed=ego.directed
    )
    for u, v, t in ego.edges():
        marked.add_edge(u, v, t)

    adapter = CenterGraphClassifier(node_model)
    label = adapter.predict(marked)
    assert label is not None

    result = explain_graph(adapter, marked, label, config, seed_nodes=(center_local,))
    if result.subgraph is None:
        # degenerate ego (e.g. isolated node): the center is its own context
        nodes_local: Tuple[int, ...] = (center_local,)
        sub, _ = marked.induced_subgraph(nodes_local)
        consistent = adapter.predict(sub) == label
        counterfactual = True  # removing the center erases the prediction
        score = 0.0
    else:
        nodes_local = result.subgraph.nodes
        sub = result.subgraph.subgraph
        consistent = result.subgraph.consistent
        counterfactual = result.subgraph.counterfactual
        score = result.subgraph.score

    return NodeExplanation(
        node=node,
        label=label,
        context_nodes=tuple(ids[v] for v in nodes_local),
        subgraph=sub,
        consistent=consistent,
        counterfactual=counterfactual,
        score=score,
    )


__all__ = ["explain_node", "NodeExplanation", "CenterGraphClassifier"]
