"""Node-level GNN classifier (the paper's NC task, Table 1).

Same message-passing stack as :class:`~repro.gnn.model.GnnClassifier`
but without graph readout: the dense head is applied per node, giving
one label per node. Used by :mod:`repro.core.node_explain` to exercise
GVEX on node classification.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.gnn.activations import get_activation
from repro.gnn.batch import aggregation_matrices, symmetrized_adjacency
from repro.gnn.loss import softmax
from repro.gnn.model import _glorot
from repro.gnn.optim import Adam, Optimizer
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike, ensure_rng


class NodeGnnClassifier:
    """A k-layer GCN that classifies every node of a graph."""

    def __init__(
        self,
        in_dim: int,
        n_classes: int,
        hidden_dims: Sequence[int] = (32, 32),
        activation: str = "relu",
        seed: RngLike = 0,
    ) -> None:
        if in_dim < 1:
            raise ModelError(f"in_dim must be >= 1, got {in_dim}")
        if n_classes < 2:
            raise ModelError(f"n_classes must be >= 2, got {n_classes}")
        if not hidden_dims:
            raise ModelError("need at least one hidden layer")
        self.in_dim = in_dim
        self.n_classes = n_classes
        self.hidden_dims = tuple(int(d) for d in hidden_dims)
        self._act, self._act_grad = get_activation(activation)

        rng = ensure_rng(seed)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        dims = [in_dim, *self.hidden_dims]
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            self.weights.append(_glorot(rng, d_in, d_out))
            self.biases.append(rng.uniform(-0.1, 0.1, size=d_out))
        self.head_weight = _glorot(rng, self.hidden_dims[-1], n_classes)
        self.head_bias = np.zeros(n_classes)

    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        params.append(self.head_weight)
        params.append(self.head_bias)
        return params

    def aggregation_matrix(self, graph: Graph) -> np.ndarray:
        """The GCN ``Q`` of the graph's symmetrized adjacency."""
        return aggregation_matrices("gcn", 0.0, symmetrized_adjacency(graph))

    def features_for(self, graph: Graph) -> np.ndarray:
        X = graph.feature_matrix(n_types=self.in_dim)
        if X.shape[1] != self.in_dim:
            raise ModelError(
                f"graph features have width {X.shape[1]}, model expects {self.in_dim}"
            )
        return X

    # ------------------------------------------------------------------
    def forward(self, X: np.ndarray, Q: np.ndarray):
        """Returns ``(logits (n, C), hiddens, pre_activations)``."""
        H = X
        hiddens = [H]
        pre_acts = []
        for W, b in zip(self.weights, self.biases):
            Z = Q @ (H @ W) + b
            H = self._act(Z)
            pre_acts.append(Z)
            hiddens.append(H)
        logits = H @ self.head_weight + self.head_bias
        return logits, hiddens, pre_acts

    def logits(self, graph: Graph) -> np.ndarray:
        X = self.features_for(graph)
        Q = self.aggregation_matrix(graph)
        return self.forward(X, Q)[0]

    def predict_nodes(self, graph: Graph) -> np.ndarray:
        """Predicted label per node."""
        if graph.n_nodes == 0:
            return np.zeros(0, dtype=np.int64)
        return self.logits(graph).argmax(axis=1)

    # ------------------------------------------------------------------
    def loss_and_grads(
        self,
        graph: Graph,
        labels: Sequence[int],
        mask: Optional[np.ndarray] = None,
    ) -> Tuple[float, List[np.ndarray]]:
        """Mean masked cross-entropy and parameter gradients."""
        X = self.features_for(graph)
        Q = self.aggregation_matrix(graph)
        logits, hiddens, pre_acts = self.forward(X, Q)
        n = X.shape[0]
        labels_arr = np.asarray(labels, dtype=np.int64)
        if labels_arr.shape != (n,):
            raise ModelError(f"labels must have shape ({n},)")
        if mask is None:
            mask = np.ones(n, dtype=bool)
        count = max(int(mask.sum()), 1)

        probs = softmax(logits)
        picked = probs[np.arange(n), labels_arr]
        loss = float(-np.log(np.maximum(picked[mask], 1e-12)).mean())
        dlogits = probs.copy()
        dlogits[np.arange(n), labels_arr] -= 1.0
        dlogits[~mask] = 0.0
        dlogits /= count

        H_last = hiddens[-1]
        d_head_w = H_last.T @ dlogits
        d_head_b = dlogits.sum(axis=0)
        dH = dlogits @ self.head_weight.T

        w_grads: List[np.ndarray] = [np.empty(0)] * self.n_layers
        b_grads: List[np.ndarray] = [np.empty(0)] * self.n_layers
        for i in range(self.n_layers - 1, -1, -1):
            Z = pre_acts[i]
            H_prev = hiddens[i]
            dZ = dH * self._act_grad(Z)
            dM = Q.T @ dZ
            w_grads[i] = H_prev.T @ dM
            b_grads[i] = dZ.sum(axis=0)
            dH = dM @ self.weights[i].T

        grads: List[np.ndarray] = []
        for gw, gb in zip(w_grads, b_grads):
            grads.append(gw)
            grads.append(gb)
        grads.append(d_head_w)
        grads.append(d_head_b)
        return loss, grads

    def fit(
        self,
        graph: Graph,
        labels: Sequence[int],
        mask: Optional[np.ndarray] = None,
        epochs: int = 150,
        optimizer: Optional[Optimizer] = None,
    ) -> List[float]:
        """Train on one graph's node labels; returns the loss curve."""
        optimizer = optimizer if optimizer is not None else Adam(lr=0.01)
        losses = []
        for _ in range(epochs):
            loss, grads = self.loss_and_grads(graph, labels, mask)
            optimizer.step(self.parameters(), grads)
            losses.append(loss)
            if loss < 0.02:
                break
        return losses

    def accuracy(
        self,
        graph: Graph,
        labels: Sequence[int],
        mask: Optional[np.ndarray] = None,
    ) -> float:
        preds = self.predict_nodes(graph)
        labels_arr = np.asarray(labels)
        if mask is None:
            mask = np.ones(len(labels_arr), dtype=bool)
        if not mask.any():
            return 0.0
        return float((preds[mask] == labels_arr[mask]).mean())

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.hidden_dims)
        return f"<NodeGnnClassifier {self.in_dim}->[{dims}]->{self.n_classes}>"


__all__ = ["NodeGnnClassifier"]
