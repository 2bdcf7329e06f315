"""Tests for the explainability oracle, incl. hypothesis property tests
of Lemma 3.3 (monotone submodularity)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GvexConfig
from repro.core.diversity import diversity_score, embedding_distances
from repro.core.explainability import ExplainabilityOracle
from repro.core.influence import influence_relation, influence_score, influenced_set
from repro.gnn.model import GnnClassifier
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import graph_from_edges


@pytest.fixture(scope="module")
def oracle_setup():
    model = GnnClassifier(2, 2, hidden_dims=(8, 8), seed=1)
    graph = erdos_renyi(12, 0.3, seed=4)
    graph.node_types[:] = np.random.default_rng(0).integers(0, 2, 12)
    config = GvexConfig(theta=0.05, radius=0.4, gamma=0.5)
    return model, graph, config


class TestInfluence:
    def test_relation_shape(self, oracle_setup):
        model, graph, config = oracle_setup
        B = influence_relation(model, graph, config)
        assert B.shape == (12, 12)
        assert B.dtype == bool

    def test_score_of_empty_is_zero(self, oracle_setup):
        model, graph, config = oracle_setup
        B = influence_relation(model, graph, config)
        assert influence_score(B, []) == 0

    def test_score_counts_union(self):
        B = np.array(
            [[True, True, False], [False, True, True], [False, False, False]]
        )
        assert influence_score(B, [0]) == 2
        assert influence_score(B, [0, 1]) == 3
        assert influence_score(B, [2]) == 0

    def test_influenced_set_mask(self):
        B = np.array([[True, False], [False, True]])
        assert influenced_set(B, [0]).tolist() == [True, False]


@pytest.mark.parametrize("jacobian", ["expected", "exact"])
@pytest.mark.parametrize("conv", ["gcn", "gin", "sage"])
def test_oracle_relations_equal_the_per_relation_programs(jacobian, conv):
    """One ``Q`` and one forward give the arrays the influence program
    and a separate embedding forward give, bit for bit."""
    from repro.core.explainability import oracle_relations

    model = GnnClassifier(2, 2, hidden_dims=(8, 8), conv=conv, seed=1)
    graph = erdos_renyi(12, 0.3, seed=4, directed=True)
    graph.node_types[:] = np.random.default_rng(0).integers(0, 2, 12)
    config = GvexConfig(theta=0.05, radius=0.4, jacobian=jacobian)
    B, R = oracle_relations(model, graph, config)
    assert (B == influence_relation(model, graph, config)).all()
    emb = model.node_embeddings(graph)
    assert (R == (embedding_distances(emb) <= config.radius)).all()


class TestDiversity:
    def test_distance_matrix_properties(self):
        emb = np.random.default_rng(1).normal(size=(6, 4))
        D = embedding_distances(emb)
        assert np.allclose(np.diag(D), 0.0)
        assert np.allclose(D, D.T)
        assert D.max() <= 2.0 + 1e-9  # normalized rows

    def test_zero_embedding_safe(self):
        emb = np.zeros((3, 4))
        D = embedding_distances(emb)
        assert np.all(np.isfinite(D))

    def test_diversity_score(self):
        R = np.array([[True, True, False], [False, True, False], [False, False, True]])
        influenced = np.array([True, False, False])
        assert diversity_score(R, influenced) == 2
        assert diversity_score(R, np.zeros(3, dtype=bool)) == 0


class TestOracle:
    def test_empty_graph(self, oracle_setup):
        model, _, config = oracle_setup
        oracle = ExplainabilityOracle(model, graph_from_edges([], []), config)
        assert oracle.evaluate([]) == 0.0

    def test_value_matches_definition(self, oracle_setup):
        model, graph, config = oracle_setup
        oracle = ExplainabilityOracle(model, graph, config)
        nodes = [0, 3, 5]
        inf = influence_score(oracle.B, nodes)
        mask = influenced_set(oracle.B, nodes)
        div = diversity_score(oracle.R, mask)
        expected = (inf + config.gamma * div) / graph.n_nodes
        assert oracle.evaluate(nodes) == pytest.approx(expected)

    def test_incremental_state_matches_stateless(self, oracle_setup):
        model, graph, config = oracle_setup
        oracle = ExplainabilityOracle(model, graph, config)
        state = oracle.new_state()
        total = 0.0
        for v in [2, 7, 4]:
            total += oracle.add(state, v)
        assert oracle.value_of_state(state) == pytest.approx(total)
        assert oracle.value_of_state(state) == pytest.approx(oracle.evaluate([2, 7, 4]))

    def test_gain_then_add_consistent(self, oracle_setup):
        model, graph, config = oracle_setup
        oracle = ExplainabilityOracle(model, graph, config)
        state = oracle.state_for([1, 5])
        g = oracle.gain(state, 8)
        before = oracle.value_of_state(state)
        oracle.add(state, 8)
        assert oracle.value_of_state(state) - before == pytest.approx(g)

    def test_gain_of_selected_is_zero(self, oracle_setup):
        model, graph, config = oracle_setup
        oracle = ExplainabilityOracle(model, graph, config)
        state = oracle.state_for([1])
        assert oracle.gain(state, 1) == 0.0

    def test_loss_matches_removal(self, oracle_setup):
        model, graph, config = oracle_setup
        oracle = ExplainabilityOracle(model, graph, config)
        state = oracle.state_for([0, 4, 9])
        loss = oracle.loss(state, 4)
        reduced = oracle.remove(state, 4)
        assert oracle.value_of_state(state) - oracle.value_of_state(
            reduced
        ) == pytest.approx(loss)

    def test_best_candidate_maximizes_gain(self, oracle_setup):
        model, graph, config = oracle_setup
        oracle = ExplainabilityOracle(model, graph, config)
        state = oracle.new_state()
        best = oracle.best_candidate(state, range(graph.n_nodes))
        gains = {v: oracle.gain(state, v) for v in range(graph.n_nodes)}
        assert gains[best] == pytest.approx(max(gains.values()))

    def test_best_candidate_empty(self, oracle_setup):
        model, graph, config = oracle_setup
        oracle = ExplainabilityOracle(model, graph, config)
        state = oracle.state_for([0])
        assert oracle.best_candidate(state, [0]) is None


# ----------------------------------------------------------------------
# Lemma 3.3: f is monotone submodular — property-based check
# ----------------------------------------------------------------------
_N = 10


def _property_oracle():
    model = GnnClassifier(2, 2, hidden_dims=(6, 6), seed=3)
    graph = erdos_renyi(_N, 0.35, seed=9)
    config = GvexConfig(theta=0.04, radius=0.5, gamma=0.7)
    return ExplainabilityOracle(model, graph, config)


_ORACLE = _property_oracle()

subset_strategy = st.sets(st.integers(min_value=0, max_value=_N - 1), max_size=_N)


@settings(max_examples=60, deadline=None)
@given(small=subset_strategy, extra=subset_strategy)
def test_monotonicity(small, extra):
    """f(S) <= f(S ∪ T): enlarging a node set never lowers f."""
    bigger = small | extra
    assert _ORACLE.evaluate(bigger) >= _ORACLE.evaluate(small) - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    base=subset_strategy,
    extra=subset_strategy,
    node=st.integers(min_value=0, max_value=_N - 1),
)
def test_submodularity(base, extra, node):
    """Diminishing returns: gain(S'', u) >= gain(S', u) for S'' ⊆ S'."""
    small = base
    big = base | extra
    if node in big:
        return
    gain_small = _ORACLE.evaluate(small | {node}) - _ORACLE.evaluate(small)
    gain_big = _ORACLE.evaluate(big | {node}) - _ORACLE.evaluate(big)
    assert gain_small >= gain_big - 1e-12


@settings(max_examples=30, deadline=None)
@given(nodes=subset_strategy)
def test_non_negative(nodes):
    assert _ORACLE.evaluate(nodes) >= 0.0


# ----------------------------------------------------------------------
# the counting oracle is exact: bitset rows across 64-bit words, empty
# rows/columns and non-reflexive balls, against the definitional
# formulas written with the oracle's float expressions
# ----------------------------------------------------------------------
def _definitional_value(B, R, nodes, gamma):
    n = B.shape[0]
    if n == 0:
        return 0.0
    influence = float(influence_score(B, nodes))
    diversity = float(diversity_score(R, influenced_set(B, nodes)))
    return (influence + gamma * diversity) / n


def _definitional_gain(B, R, nodes, v, gamma):
    if v in nodes:
        return 0.0
    grown = nodes | {v}
    d_influence = float(influence_score(B, grown) - influence_score(B, nodes))
    d_diversity = float(
        diversity_score(R, influenced_set(B, grown))
        - diversity_score(R, influenced_set(B, nodes))
    )
    return (d_influence + gamma * d_diversity) / B.shape[0]


def _definitional_loss(B, R, nodes, v, gamma):
    if v not in nodes:
        return 0.0
    return _definitional_value(B, R, nodes, gamma) - _definitional_value(
        B, R, nodes - {v}, gamma
    )


def _bits(mask):
    return sum(1 << int(i) for i in np.flatnonzero(mask))


def _random_relation(rng, n):
    M = rng.random((n, n)) < rng.choice([0.0, 0.02, 0.1, 0.5, 1.0])
    M[rng.random(n) < 0.2] = False  # all-empty rows
    M[:, rng.random(n) < 0.2] = False  # all-empty columns
    return M


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(
        st.integers(min_value=0, max_value=200),
        st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129, 200]),
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    gamma=st.floats(min_value=0.0, max_value=1.0),
)
def test_counting_oracle_matches_definition_exactly(n, seed, gamma):
    rng = np.random.default_rng(seed)
    B = _random_relation(rng, n)
    R = _random_relation(rng, n)
    if n and rng.random() < 0.5:
        np.fill_diagonal(R, False)  # balls that miss their own centre
    oracle = ExplainabilityOracle.from_relations(GvexConfig(gamma=gamma), B, R)
    selected = {int(v) for v in np.flatnonzero(rng.random(n) < rng.random())}
    probes = sorted(
        {int(v) for v in rng.permutation(n)[:12]} | set(sorted(selected)[:4])
    )

    state = oracle.new_state()
    for v in sorted(selected):
        expected = _definitional_gain(B, R, set(state.selected), v, gamma)
        assert oracle.add(state, v) == expected
    value = _definitional_value(B, R, selected, gamma)
    assert state.selected == selected
    assert state.influenced == _bits(influenced_set(B, selected))
    assert oracle.value_of_state(state) == value
    assert oracle.evaluate(selected) == value

    for v in probes:
        assert oracle.gain(state, v) == _definitional_gain(B, R, selected, v, gamma)
        assert oracle.loss(state, v) == _definitional_loss(B, R, selected, v, gamma)
        reduced = oracle.remove(state, v)
        assert reduced.selected == selected - {v}
        assert reduced.influenced == _bits(influenced_set(B, selected - {v}))
        assert oracle.value_of_state(reduced) == _definitional_value(
            B, R, selected - {v}, gamma
        )

    nodes = sorted(selected) + probes
    assert oracle.losses(state, nodes) == {u: oracle.loss(state, u) for u in nodes}
