"""From-scratch numpy GNN classifier (the paper's classifier ``M``).

Implements the message-passing scheme of Eq. (1) with manual
reverse-mode differentiation. The default configuration mirrors §6.1 of
the paper: a GCN with three convolution layers, max-pooling readout,
and a fully connected classification head. GIN- and GraphSAGE-style
convolutions are provided as well since GVEX is model-agnostic and the
paper stresses adaptability "to any GNN employing message-passing".

The backward pass optionally returns gradients with respect to the
input features ``X`` and the aggregation matrix ``Q`` — these feed the
exact Jacobian influence computation (:mod:`repro.gnn.jacobian`) and the
GNNExplainer baseline's soft edge masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.gnn.activations import get_activation
from repro.gnn.loss import softmax, softmax_cross_entropy
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike, ensure_rng

if TYPE_CHECKING:
    from repro.gnn.batch import RemovalBalls

CONV_TYPES = ("gcn", "gin", "sage")
READOUTS = ("max", "mean", "sum")


@dataclass
class ForwardCache:
    """Intermediate values of one forward pass, consumed by backward."""

    X: np.ndarray
    Q: np.ndarray
    pre_activations: List[np.ndarray] = field(default_factory=list)
    hiddens: List[np.ndarray] = field(default_factory=list)  # H_0 .. H_k
    pooled: Optional[np.ndarray] = None
    pool_argmax: Optional[np.ndarray] = None
    logits: Optional[np.ndarray] = None


@dataclass
class BackwardResult:
    """Gradients from one backward pass."""

    param_grads: List[np.ndarray]
    dX: Optional[np.ndarray] = None
    dQ: Optional[np.ndarray] = None


class GnnClassifier:
    """A k-layer message-passing GNN graph classifier.

    Parameters
    ----------
    in_dim:
        Input feature dimensionality (columns of ``X``).
    n_classes:
        Number of output classes.
    hidden_dims:
        Width of each convolution layer; its length is the network depth
        ``k`` (the paper uses three layers of width 128; tests default to
        smaller widths for speed).
    conv:
        ``"gcn"`` (Eq. 1), ``"gin"``, or ``"sage"``.
    readout:
        Graph-level pooling: ``"max"`` (paper default), ``"mean"``, ``"sum"``.
    """

    def __init__(
        self,
        in_dim: int,
        n_classes: int,
        hidden_dims: Sequence[int] = (32, 32, 32),
        conv: str = "gcn",
        readout: str = "max",
        activation: str = "relu",
        gin_eps: float = 0.0,
        seed: RngLike = 0,
    ) -> None:
        if in_dim < 1:
            raise ModelError(f"in_dim must be >= 1, got {in_dim}")
        if n_classes < 2:
            raise ModelError(f"n_classes must be >= 2, got {n_classes}")
        if not hidden_dims:
            raise ModelError("need at least one hidden layer")
        if conv not in CONV_TYPES:
            raise ModelError(f"conv must be one of {CONV_TYPES}, got {conv!r}")
        if readout not in READOUTS:
            raise ModelError(f"readout must be one of {READOUTS}, got {readout!r}")
        self.in_dim = in_dim
        self.n_classes = n_classes
        self.hidden_dims = tuple(int(d) for d in hidden_dims)
        self.conv = conv
        self.readout = readout
        self.activation = activation
        self.gin_eps = float(gin_eps)
        self._act, self._act_grad = get_activation(activation)

        rng = ensure_rng(seed)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        self.sage_self_weights: List[np.ndarray] = []
        dims = [in_dim, *self.hidden_dims]
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            self.weights.append(_glorot(rng, d_in, d_out))
            # small non-zero bias keeps pre-activations off the exact
            # ReLU kink (dead rows otherwise sit at exactly 0)
            self.biases.append(rng.uniform(-0.1, 0.1, size=d_out))
            if conv == "sage":
                self.sage_self_weights.append(_glorot(rng, d_in, d_out))
        self.head_weight = _glorot(rng, self.hidden_dims[-1], n_classes)
        self.head_bias = np.zeros(n_classes)

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        """Depth ``k`` — the number of message-passing layers."""
        return len(self.weights)

    def parameters(self) -> List[np.ndarray]:
        """Flat parameter list in a stable order (shared with gradients)."""
        params: List[np.ndarray] = []
        for i in range(self.n_layers):
            params.append(self.weights[i])
            params.append(self.biases[i])
            if self.conv == "sage":
                params.append(self.sage_self_weights[i])
        params.append(self.head_weight)
        params.append(self.head_bias)
        return params

    def set_parameters(self, values: Sequence[np.ndarray]) -> None:
        current = self.parameters()
        if len(values) != len(current):
            raise ModelError(
                f"expected {len(current)} parameter arrays, got {len(values)}"
            )
        for target, value in zip(current, values):
            if target.shape != value.shape:
                raise ModelError(
                    f"parameter shape mismatch: {target.shape} vs {value.shape}"
                )
            target[...] = value

    def copy_parameters(self) -> List[np.ndarray]:
        return [p.copy() for p in self.parameters()]

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def aggregation_matrix(self, graph: Graph) -> np.ndarray:
        """The matrix ``Q`` multiplying node features in each layer."""
        from repro.gnn.batch import aggregation_matrices, symmetrized_adjacency

        return aggregation_matrices(
            self.conv, self.gin_eps, symmetrized_adjacency(graph)
        )

    def features_for(self, graph: Graph) -> np.ndarray:
        """Feature matrix for a graph, validated against ``in_dim``."""
        X = graph.feature_matrix(n_types=self.in_dim)
        if X.shape[1] != self.in_dim:
            raise ModelError(
                f"graph features have width {X.shape[1]}, model expects {self.in_dim}"
            )
        return X

    def forward(self, X: np.ndarray, Q: np.ndarray) -> ForwardCache:
        """Full forward pass from explicit inputs; returns the cache."""
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise ModelError(f"X must be (n, {self.in_dim}), got {X.shape}")
        n = X.shape[0]
        if Q.shape != (n, n):
            raise ModelError(f"Q must be ({n}, {n}), got {Q.shape}")
        if n == 0:
            raise ModelError("cannot run forward on an empty graph")
        cache = ForwardCache(X=X, Q=Q)
        H = X
        cache.hiddens.append(H)
        for i in range(self.n_layers):
            Z = Q @ (H @ self.weights[i]) + self.biases[i]
            if self.conv == "sage":
                Z = Z + H @ self.sage_self_weights[i]
            H = self._act(Z)
            cache.pre_activations.append(Z)
            cache.hiddens.append(H)
        if self.readout == "max":
            cache.pool_argmax = H.argmax(axis=0)
            cache.pooled = H.max(axis=0)
        elif self.readout == "mean":
            cache.pooled = H.mean(axis=0)
        else:
            cache.pooled = H.sum(axis=0)
        cache.logits = cache.pooled @ self.head_weight + self.head_bias
        return cache

    def forward_graph(self, graph: Graph) -> ForwardCache:
        return self.forward(self.features_for(graph), self.aggregation_matrix(graph))

    # ------------------------------------------------------------------
    # inference API (what GVEX's EVerify consumes)
    # ------------------------------------------------------------------
    def predict_proba(self, graph: Graph) -> np.ndarray:
        """Class distribution; uniform for the empty graph (M(∅))."""
        if graph.n_nodes == 0:
            return np.full(self.n_classes, 1.0 / self.n_classes)
        cache = self.forward_graph(graph)
        assert cache.logits is not None
        return softmax(cache.logits)

    def predict(self, graph: Graph) -> Optional[int]:
        """Predicted label; ``None`` for the empty graph."""
        if graph.n_nodes == 0:
            return None
        return int(np.argmax(self.predict_proba(graph)))

    def predict_proba_batch(
        self,
        graph: Graph,
        node_subsets: np.ndarray,
        cache: Optional[Dict] = None,
    ) -> np.ndarray:
        """Class distributions for many node-induced subgraphs at once.

        ``node_subsets`` is a ``(B, k)`` matrix of strictly increasing
        node rows: one launch takes subsets of one size (e.g. from
        :func:`repro.gnn.batch.extension_index_matrix`). Row ``i``
        equals ``predict_proba(graph.induced_subgraph(node_subsets[i]))``
        bit-for-bit (``k == 0`` rows get the uniform ``M(∅)`` prior),
        but the whole batch is materialized with one fancy-indexing
        gather and evaluated with stacked matmuls instead of per-subset
        ``Graph`` construction
        (:func:`repro.gnn.batch.presorted_rows_probas`). This is the
        engine behind ``BatchedGnnVerifier``'s frontier-at-a-time cache
        fills; callers looping over one graph pass a ``cache`` dict to
        reuse the dense gather sources.
        """
        from repro.gnn.batch import presorted_rows_probas

        return presorted_rows_probas(
            graph,
            node_subsets,
            self.n_classes,
            lambda: self.features_for(graph),
            self._forward_group,
            cache,
        )

    @property
    def delta_capable(self) -> bool:
        """Whether :meth:`predict_proba_delta` is exact here: GCN layers,
        and a BLAS that rounds GEMM rows independently
        (:func:`repro.gnn.batch.delta_exact`)."""
        from repro.gnn.batch import delta_exact

        return self.conv == "gcn" and delta_exact(self.hidden_dims)

    def predict_proba_hiddens(
        self, graph: Graph, idx: np.ndarray, cache: Optional[Dict] = None
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Stacked forward that also returns every layer's rows.

        ``idx`` is a ``(B, k)`` matrix of strictly increasing node rows
        (``k >= 1``). Returns the class distributions — identical to
        ``predict_proba_batch(graph, idx)`` — and the layer outputs
        ``H_1 .. H_k`` as ``(B, k, d_l)`` arrays: the base rows a later
        :meth:`predict_proba_delta` copies from.
        """
        from repro.gnn.batch import presorted_rows_probas

        hiddens: List[np.ndarray] = []
        probas = presorted_rows_probas(
            graph,
            idx,
            self.n_classes,
            lambda: self.features_for(graph),
            lambda X_b, A_b: self._forward_group(X_b, A_b, hiddens),
            cache,
        )
        return probas, hiddens

    def removal_balls(
        self,
        graph: Graph,
        base_nodes: np.ndarray,
        removed: np.ndarray,
        cache: Optional[Dict] = None,
    ) -> RemovalBalls:
        """The rows each layer recomputes when candidate ``b`` drops base
        position ``removed[b]`` from the remainder ``base_nodes``
        (:func:`repro.gnn.batch.removal_balls`); the input of
        :meth:`predict_proba_delta`.
        """
        from repro.gnn.batch import gather_sources, removal_balls

        _, A_sym = gather_sources(graph, lambda: self.features_for(graph), cache)
        return removal_balls(A_sym, base_nodes, removed, self.n_layers)

    def predict_proba_delta(
        self,
        graph: Graph,
        base_nodes: np.ndarray,
        base_hiddens: Sequence[np.ndarray],
        balls: RemovalBalls,
        cache: Optional[Dict] = None,
    ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """Remainders one node smaller than a cached base, by delta.

        ``base_nodes``/``base_hiddens`` are a remainder's sorted nodes
        and layer outputs (one row of :meth:`predict_proba_hiddens` or
        of an earlier delta), and ``balls`` is :meth:`removal_balls` on
        that base. Returns the class distributions, the remainders'
        ``(B, K-1)`` node rows and their layer outputs — all
        bit-identical to :meth:`predict_proba_hiddens` on those rows,
        which stays the test oracle
        (:func:`repro.gnn.batch.delta_layers`). GCN only
        (:attr:`delta_capable`).
        """
        from repro.gnn.batch import delta_layers, gather_sources

        if self.conv != "gcn":
            raise ModelError(f"delta forwards need GCN layers, not {self.conv!r}")
        X_full, _ = gather_sources(graph, lambda: self.features_for(graph), cache)
        idx, hiddens = delta_layers(
            X_full,
            base_nodes,
            base_hiddens,
            balls,
            self.weights,
            self.biases,
            self._act,
        )
        return self._head_probas(hiddens[-1]), idx, hiddens

    def _forward_group(
        self,
        X_b: np.ndarray,
        A_b: np.ndarray,
        hiddens: Optional[List[np.ndarray]] = None,
    ) -> np.ndarray:
        """Stacked forward for one same-size batch: probas per slice.

        ``A_b[i]`` must be the symmetrized 0/1 adjacency of slice ``i``;
        each output row is bit-identical to the serial
        :meth:`predict_proba` of that slice's graph (see
        :mod:`repro.gnn.batch` for the kernel-parity argument). Layer
        outputs are appended to ``hiddens`` when it is given.
        """
        from repro.gnn.batch import aggregation_matrices, stacked_layers

        Q_b = aggregation_matrices(self.conv, self.gin_eps, A_b)
        H = stacked_layers(
            X_b,
            Q_b,
            self.weights,
            self.biases,
            self._act,
            self.sage_self_weights if self.conv == "sage" else None,
            hiddens,
        )
        return self._head_probas(H)

    def _head_probas(self, H: np.ndarray) -> np.ndarray:
        """Readout, head and softmax over a stacked ``(B, k, d)`` batch."""
        from repro.gnn.batch import rowwise_head, stacked_readout

        pooled = stacked_readout(H, self.readout)
        return softmax(rowwise_head(pooled, self.head_weight, self.head_bias))

    def predict_proba_db(self, graphs: Sequence[Graph]) -> np.ndarray:
        """Class distributions for a whole database in stacked forwards.

        Groups the graphs by node count and runs one stacked
        ``(B, n, ·)`` forward per size group instead of ``|G|`` serial
        passes, each member's adjacency read from its memoized
        ``symmetrized_adjacency``; row ``i`` is bit-identical to
        ``predict_proba(graphs[i])`` (empty graphs get the uniform
        ``M(∅)`` prior).
        """
        from repro.gnn.batch import symmetrized_adjacency

        graphs = list(graphs)
        out = np.empty((len(graphs), self.n_classes), dtype=np.float64)
        sizes: Dict[int, List[int]] = {}
        for i, g in enumerate(graphs):
            sizes.setdefault(g.n_nodes, []).append(i)
        for size, rows in sorted(sizes.items()):
            if size == 0:
                out[rows] = 1.0 / self.n_classes
                continue
            X_b = np.stack([self.features_for(graphs[i]) for i in rows])
            A_b = np.stack([symmetrized_adjacency(graphs[i]) for i in rows])
            out[rows] = self._forward_group(X_b, A_b)
        return out

    def predict_db(self, graphs: Sequence[Graph]) -> List[Optional[int]]:
        """Predicted labels for a whole database (``None`` for empty).

        Same stacked evaluation as :meth:`predict_proba_db`; entry ``i``
        equals ``predict(graphs[i])`` exactly.
        """
        graphs = list(graphs)
        probas = self.predict_proba_db(graphs)
        return [
            None if g.n_nodes == 0 else int(np.argmax(probas[i]))
            for i, g in enumerate(graphs)
        ]

    def node_embeddings(self, graph: Graph) -> np.ndarray:
        """Last-layer node representations ``X^k`` (Eq. 6 diversity input)."""
        return self.forward_graph(graph).hiddens[-1]

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def backward(
        self,
        cache: ForwardCache,
        dlogits: np.ndarray,
        need_input_grads: bool = False,
    ) -> BackwardResult:
        """Reverse-mode gradients from ``dlogits``.

        Returns parameter gradients aligned with :meth:`parameters`, and
        when ``need_input_grads`` also ``dX`` (input features) and ``dQ``
        (aggregation matrix entries).
        """
        assert cache.pooled is not None and cache.logits is not None
        H_last = cache.hiddens[-1]
        n = H_last.shape[0]

        d_head_w = np.outer(cache.pooled, dlogits)
        d_head_b = dlogits.copy()
        d_pooled = self.head_weight @ dlogits

        dH = np.zeros_like(H_last)
        if self.readout == "max":
            assert cache.pool_argmax is not None
            dH[cache.pool_argmax, np.arange(H_last.shape[1])] = d_pooled
        elif self.readout == "mean":
            dH[:] = d_pooled[None, :] / n
        else:
            dH[:] = d_pooled[None, :]

        layer_w_grads: List[np.ndarray] = [np.empty(0)] * self.n_layers
        layer_b_grads: List[np.ndarray] = [np.empty(0)] * self.n_layers
        sage_grads: List[np.ndarray] = [np.empty(0)] * self.n_layers
        dQ = np.zeros_like(cache.Q) if need_input_grads else None

        for i in range(self.n_layers - 1, -1, -1):
            Z = cache.pre_activations[i]
            H_prev = cache.hiddens[i]
            dZ = dH * self._act_grad(Z)
            M = H_prev @ self.weights[i]  # Z = Q M (+ self term)
            dM = cache.Q.T @ dZ
            layer_w_grads[i] = H_prev.T @ dM
            layer_b_grads[i] = dZ.sum(axis=0)
            dH = dM @ self.weights[i].T
            if self.conv == "sage":
                sage_grads[i] = H_prev.T @ dZ
                dH = dH + dZ @ self.sage_self_weights[i].T
            if dQ is not None:
                dQ += dZ @ M.T

        param_grads: List[np.ndarray] = []
        for i in range(self.n_layers):
            param_grads.append(layer_w_grads[i])
            param_grads.append(layer_b_grads[i])
            if self.conv == "sage":
                param_grads.append(sage_grads[i])
        param_grads.append(d_head_w)
        param_grads.append(d_head_b)
        return BackwardResult(
            param_grads=param_grads,
            dX=dH if need_input_grads else None,
            dQ=dQ,
        )

    def loss_and_grads(
        self, graph: Graph, label: int
    ) -> Tuple[float, List[np.ndarray]]:
        """Cross-entropy loss and parameter gradients for one graph."""
        cache = self.forward_graph(graph)
        assert cache.logits is not None
        loss, dlogits = softmax_cross_entropy(cache.logits, label)
        return loss, self.backward(cache, dlogits).param_grads

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {f"param_{i}": p for i, p in enumerate(self.parameters())}
        return state

    def save(self, path) -> None:
        np.savez(
            path,
            meta=np.array(
                [
                    self.in_dim,
                    self.n_classes,
                    len(self.hidden_dims),
                    *self.hidden_dims,
                ],
                dtype=np.int64,
            ),
            conv=np.array(self.conv),
            readout=np.array(self.readout),
            activation=np.array(self.activation),
            gin_eps=np.array(self.gin_eps),
            **self.state_dict(),
        )

    @classmethod
    def load(cls, path) -> "GnnClassifier":
        data = np.load(path, allow_pickle=False)
        meta = data["meta"]
        depth = int(meta[2])
        model = cls(
            in_dim=int(meta[0]),
            n_classes=int(meta[1]),
            hidden_dims=tuple(int(d) for d in meta[3 : 3 + depth]),
            conv=str(data["conv"]),
            readout=str(data["readout"]),
            activation=str(data["activation"]),
            gin_eps=float(data["gin_eps"]),
        )
        n_params = len(model.parameters())
        model.set_parameters([data[f"param_{i}"] for i in range(n_params)])
        return model

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.hidden_dims)
        return (
            f"<GnnClassifier {self.conv} {self.in_dim}->[{dims}]->"
            f"{self.n_classes} readout={self.readout}>"
        )


def _glorot(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-scale, scale, size=(d_in, d_out))


__all__ = ["GnnClassifier", "ForwardCache", "BackwardResult", "CONV_TYPES", "READOUTS"]
