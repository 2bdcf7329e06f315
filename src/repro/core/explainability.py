"""The explainability objective ``f`` (Eq. 2) as a submodular oracle.

One :class:`ExplainabilityOracle` is built per (model, graph) pair. It
precomputes the boolean influence relation ``B`` and diversity balls
``R``, and keeps each row of ``B`` as a Python-int bitset (bit ``w`` is
node ``w``), the same int-row idiom the matcher uses. A
:class:`SelectionState` holds the influenced set ``Inf(V_s)`` and the
diversity set ``⋃_{x ∈ Inf(V_s)} R[x]`` as two such ints.

Both unions of Eq. 2 distribute over ``V_s``, so the oracle also keeps
the closure rows ``RB[u] = ⋃_{x ∈ B[u]} R[x]``, and then
``D(V_s) = |⋃_{u ∈ V_s} RB[u]|``. A marginal gain is two AND-NOTs and
two popcounts, ``add`` is two ORs, and :meth:`~ExplainabilityOracle.
losses` prices every incumbent's removal from prefix and suffix ORs in
``O(k)`` — what makes the greedy in ApproxGVEX and the swap test in
StreamGVEX cheap.

Per Eq. 2, a subgraph with node set ``V_s`` of a graph with ``|V|``
nodes contributes ``(I(V_s) + γ·D(V_s)) / |V|``. Every value is that
one float expression of integer counts: a gain is
``(ΔI + γ·ΔD) / |V|``, and a loss is the difference of two state
values, never ``(ΔI + γ·ΔD) / |V|``, which can round differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import or_
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.config import JACOBIAN_EXACT, GvexConfig
from repro.core.diversity import embedding_distances
from repro.gnn import propagation
from repro.gnn.batch import aggregation_matrices, symmetrized_adjacency
from repro.gnn.jacobian import exact_influence, normalized_influence
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph
from repro.exceptions import ValidationError


@dataclass
class SelectionState:
    """Incremental state of a greedy node selection on one graph.

    ``influenced`` and ``diversity`` are bitsets: bit ``w`` is set when
    node ``w`` is influenced by, or lies in a diversity ball of, the
    selection.
    """

    selected: Set[int] = field(default_factory=set)
    influenced: int = 0
    diversity: int = 0

    def copy(self) -> "SelectionState":
        return SelectionState(
            selected=set(self.selected),
            influenced=self.influenced,
            diversity=self.diversity,
        )


def oracle_relations(
    model: GnnClassifier,
    graph: Graph,
    config: GvexConfig,
    ids: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The relations ``B`` (Eqs. 3-5) and ``R`` (Eq. 6) of a non-empty graph.

    With ``ids`` (sorted node ids), the relations of ``graph``'s
    subgraph induced by them, index ``i`` being node ``ids[i]``, read
    off the host: ``Q`` normalizes the host's memoized symmetrized
    adjacency sliced by ``ids``, and the forward reads the host's
    feature rows. A principal submatrix of the symmetrized adjacency is
    the induced subgraph's, so the arrays equal those of the induced
    subgraph bit for bit, and no graph is built.

    One ``Q`` and one ``model.forward(X, Q)`` feed every program. The
    forward's final layer gives the diversity balls, and this function
    alone picks Eq. 3's ``I1``: exact Jacobians through that forward
    (:func:`~repro.gnn.jacobian.exact_influence`), or the expected
    influence ``Q^k``, by sparse products for GCN graphs past
    :data:`~repro.gnn.propagation.SPARSE_THRESHOLD` nodes (§6.2) and
    dense otherwise.
    """
    A = symmetrized_adjacency(graph)
    X = model.features_for(graph)
    if ids is not None:
        A = A[np.ix_(ids, ids)]
        X = X[ids]
    Q = aggregation_matrices(model.conv, model.gin_eps, A)
    cache = model.forward(X, Q)
    if config.jacobian == JACOBIAN_EXACT:
        I1 = exact_influence(model, cache)
    elif model.conv == "gcn" and len(Q) > propagation.SPARSE_THRESHOLD:
        I1 = propagation.sparse_propagation_power(Q, model.n_layers)
    else:
        I1 = propagation.propagation_power(Q, model.n_layers)
    return (
        normalized_influence(I1) >= config.theta,
        embedding_distances(cache.hiddens[-1]) <= config.radius,
    )


def _bit_rows(matrix: np.ndarray) -> List[int]:
    """Rows of a boolean matrix as Python ints (bit ``w`` is column ``w``)."""
    if matrix.size == 0:
        return [0] * matrix.shape[0]
    packed = np.packbits(matrix, axis=1, bitorder="little")
    raw = packed.tobytes()
    step = packed.shape[1]
    return [
        int.from_bytes(raw[i : i + step], "little")
        for i in range(0, len(raw), step)
    ]


def _running_or(rows: List[int]) -> List[int]:
    """``[0, r0, r0|r1, …]``: the OR of each prefix of ``rows``."""
    return list(accumulate(rows, or_, initial=0))


class ExplainabilityOracle:
    """Submodular value/gain oracle for Eq. 2 on a single graph."""

    def __init__(
        self, model: GnnClassifier, graph: Graph, config: GvexConfig
    ) -> None:
        self.config = config
        self.n = graph.n_nodes
        if self.n:
            self.B, self.R = oracle_relations(model, graph, config)
        else:
            self.B = np.zeros((0, 0), dtype=bool)
            self.R = np.zeros((0, 0), dtype=bool)
        self._pack()

    @classmethod
    def from_relations(
        cls,
        config: GvexConfig,
        influence: np.ndarray,
        diversity: np.ndarray,
    ) -> "ExplainabilityOracle":
        """Oracle over precomputed boolean relations ``B`` and ``R``.

        StreamGVEX's ``IncEVerify`` builds each chunk's relations off
        the host with :func:`oracle_relations`; this constructor wraps
        them in the standard value/gain interface without re-deriving
        anything. The graph's size ``n`` is read from the relations,
        which must both be ``(n, n)``.
        """
        n = len(influence)
        if influence.shape != (n, n) or diversity.shape != (n, n):
            raise ValidationError(
                f"relations must both be ({n}, {n}); got {influence.shape} "
                f"and {diversity.shape}"
            )
        self = cls.__new__(cls)
        self.config = config
        self.n = n
        self.B = influence
        self.R = diversity
        self._pack()
        return self

    def _pack(self) -> None:
        """Bitset rows of ``B`` and of the closure ``RB = B·R``.

        The float32 product is exact: its entries are counts of 0/1
        products, all below ``2**24``.
        """
        self._b = _bit_rows(self.B)
        closure = self.B.astype(np.float32) @ self.R.astype(np.float32)
        self._rb = _bit_rows(closure > 0)

    # ------------------------------------------------------------------
    def new_state(self) -> SelectionState:
        return SelectionState()

    def state_for(self, nodes: Iterable[int]) -> SelectionState:
        state = self.new_state()
        for v in nodes:
            self.add(state, v)
        return state

    # ------------------------------------------------------------------
    def _value(self, influenced: int, diversity: int) -> float:
        if self.n == 0:
            return 0.0
        return (
            influenced.bit_count() + self.config.gamma * diversity.bit_count()
        ) / self.n

    def value_of_state(self, state: SelectionState) -> float:
        """Current ``(I + γ·D) / |V|`` value."""
        return self._value(state.influenced, state.diversity)

    def evaluate(self, nodes: Iterable[int]) -> float:
        """Stateless value of an arbitrary node set."""
        return self.value_of_state(self.state_for(nodes))

    def gain(self, state: SelectionState, v: int) -> float:
        """Marginal gain of adding node ``v`` (without mutating state).

        The quantity bounded by Lemma 3.3: ``f`` is monotone
        submodular, so these marginals are non-increasing along a
        selection — what justifies lazy-greedy evaluation in
        ApproxGVEX and the swap test in StreamGVEX.
        """
        if v in state.selected:
            return 0.0
        d_influence = (self._b[v] & ~state.influenced).bit_count()
        d_diversity = (self._rb[v] & ~state.diversity).bit_count()
        return (d_influence + self.config.gamma * d_diversity) / self.n

    def losses(
        self, state: SelectionState, nodes: Iterable[int]
    ) -> Dict[int, float]:
        """Value drop from removing each of ``nodes`` (0.0 if unselected).

        The other incumbents' rows are the OR of a prefix and a suffix
        of the selection, so all ``k`` losses cost ``O(k)`` ORs.
        """
        members = list(state.selected)
        b = [self._b[u] for u in members]
        rb = [self._rb[u] for u in members]
        # entry i of before/after: OR of the rows of members[:i] / members[i:]
        before_b, before_rb = _running_or(b), _running_or(rb)
        after_b, after_rb = _running_or(b[::-1])[::-1], _running_or(rb[::-1])[::-1]
        position = {u: i for i, u in enumerate(members)}
        value = self.value_of_state(state)
        out: Dict[int, float] = {}
        for v in nodes:
            i = position.get(v)
            out[v] = 0.0 if i is None else value - self._value(
                before_b[i] | after_b[i + 1], before_rb[i] | after_rb[i + 1]
            )
        return out

    def loss(self, state: SelectionState, v: int) -> float:
        """Value drop from removing ``v``."""
        return self.losses(state, [v])[v]

    def add(self, state: SelectionState, v: int) -> float:
        """Add ``v`` to the state; returns the realized gain."""
        gain = self.gain(state, v)
        if v in state.selected:
            return 0.0
        state.influenced |= self._b[v]
        state.diversity |= self._rb[v]
        state.selected.add(v)
        return gain

    def remove(self, state: SelectionState, v: int) -> "SelectionState":
        """State with ``v`` removed (unions are not invertible, so the
        other incumbents' rows are OR-ed afresh)."""
        reduced = SelectionState(selected=state.selected - {v})
        for u in reduced.selected:
            reduced.influenced |= self._b[u]
            reduced.diversity |= self._rb[u]
        return reduced

    # ------------------------------------------------------------------
    def best_candidate(
        self, state: SelectionState, candidates: Iterable[int]
    ) -> Optional[int]:
        """argmax marginal gain; deterministic tie-break on node id."""
        best_v: Optional[int] = None
        best_gain = -1.0
        for v in sorted(set(candidates) - state.selected):
            g = self.gain(state, v)
            if g > best_gain + 1e-15:
                best_gain = g
                best_v = v
        return best_v


__all__ = ["ExplainabilityOracle", "SelectionState", "oracle_relations"]
