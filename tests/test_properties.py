"""Cross-module property-based tests (hypothesis).

Invariants checked on randomly generated graphs:
  * JSON io is a lossless roundtrip;
  * WL pattern keys are invariant under node relabelling;
  * induced subsets of a host always match it (induced isomorphism);
  * pattern coverage is monotone in the pattern set;
  * Psum always reaches full node coverage and valid edge loss;
  * ESU enumeration equals brute force on small graphs;
  * the explainability objective is monotone submodular (Lemma 3.3),
    so greedy marginal gains are non-increasing along the selection;
  * StreamGVEX's cache swap only fires when ``gain(v) >= 2·loss(v⁻)``
    (the Theorem 5.1 rule) — the invariant the batched-verification
    refactor must not disturb.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GvexConfig
from repro.core.explainability import ExplainabilityOracle
from repro.core.psum import summarize
from repro.core.streaming import StreamGvex
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph
from repro.graphs.io import graph_from_dict, graph_to_dict
from repro.graphs.pattern import Pattern
from repro.matching.coverage import CoverageIndex
from repro.matching.isomorphism import is_subgraph_isomorphic
from repro.mining.enumerate import connected_node_subsets
from repro.mining.index import SubsetIndex
from repro.mining.pgen import mine_incremental


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw, max_nodes=8, max_types=3, directed=None):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    types = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_types - 1),
            min_size=n,
            max_size=n,
        )
    )
    is_directed = (
        draw(st.booleans()) if directed is None else directed
    )
    g = Graph(types, directed=is_directed)
    possible = [
        (u, v) for u in range(n) for v in range(n) if u != v
    ] if is_directed else list(combinations(range(n), 2))
    if possible:
        chosen = draw(
            st.lists(
                st.sampled_from(possible),
                unique=True,
                max_size=min(len(possible), 12),
            )
        )
        for u, v in chosen:
            if not g.has_edge(u, v):
                etype = draw(st.integers(min_value=0, max_value=1))
                g.add_edge(u, v, etype)
    return g


@st.composite
def graphs_with_connected_subsets(draw):
    g = draw(random_graphs(max_nodes=7, directed=False))
    comps = g.connected_components()
    comp = comps[draw(st.integers(0, len(comps) - 1))]
    size = draw(st.integers(min_value=1, max_value=len(comp)))
    # grow a connected subset by BFS from a random start
    start = comp[draw(st.integers(0, len(comp) - 1))]
    subset = {start}
    frontier = sorted(g.all_neighbors(start))
    while frontier and len(subset) < size:
        v = frontier.pop(draw(st.integers(0, len(frontier) - 1)) if len(frontier) > 1 else 0)
        if v in subset:
            continue
        subset.add(v)
        frontier.extend(w for w in g.all_neighbors(v) if w not in subset)
    return g, sorted(subset)


# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(g=random_graphs())
def test_io_roundtrip(g):
    assert graph_from_dict(graph_to_dict(g)) == g


@settings(max_examples=60, deadline=None)
@given(data=st.data(), g=random_graphs(directed=False))
def test_wl_key_permutation_invariant(data, g):
    comps = g.connected_components()
    comp = comps[0]
    sub, _ = g.induced_subgraph(comp)
    if not sub.is_connected():
        return
    p1 = Pattern(sub)
    # relabel by a random permutation
    perm = data.draw(st.permutations(range(sub.n_nodes)))
    relabelled = Graph([sub.node_type(perm[i]) for i in range(sub.n_nodes)])
    inverse = {perm[i]: i for i in range(sub.n_nodes)}
    for u, v, t in sub.edges():
        relabelled.add_edge(inverse[u], inverse[v], t)
    p2 = Pattern(relabelled)
    assert p1.key() == p2.key()


@settings(max_examples=60, deadline=None)
@given(pair=graphs_with_connected_subsets())
def test_induced_subsets_always_match(pair):
    g, subset = pair
    pattern = Pattern.from_induced(g, subset)
    assert is_subgraph_isomorphic(pattern, g)


@settings(max_examples=40, deadline=None)
@given(pair=graphs_with_connected_subsets())
def test_coverage_monotone(pair):
    g, subset = pair
    index = CoverageIndex([g])
    p_small = Pattern.from_induced(g, subset[:1])
    p_big = Pattern.from_induced(g, subset)
    covered_small = index.coverage(p_small).nodes
    both = covered_small | index.coverage(p_big).nodes
    # adding a pattern never removes coverage
    assert covered_small <= both


@settings(max_examples=30, deadline=None)
@given(
    gs=st.lists(random_graphs(max_nodes=6, directed=False), min_size=1, max_size=3)
)
def test_psum_always_covers_nodes(gs):
    result = summarize(gs, GvexConfig(max_pattern_size=3))
    assert result.node_coverage_complete
    assert 0.0 <= result.edge_loss <= 1.0
    # every selected pattern matches at least one host
    for p in result.patterns:
        assert any(is_subgraph_isomorphic(p, g) for g in gs if g.n_nodes)


@settings(max_examples=30, deadline=None)
@given(g=random_graphs(max_nodes=7))
def test_esu_matches_bruteforce(g):
    esu = set(connected_node_subsets(g, 3, cap=None))
    brute = set()
    for k in (1, 2, 3):
        for combo in combinations(range(g.n_nodes), k):
            if g.is_connected_subset(combo):
                brute.add(tuple(sorted(combo)))
    assert esu == brute


# ----------------------------------------------------------------------
# theory invariants the batched-verification refactor must preserve
# ----------------------------------------------------------------------
#: one untrained-but-seeded model per feature width; the objective's
#: structure (not the weights) carries the invariants, and hypothesis
#: forbids per-example fixture churn anyway
_ORACLE_MODEL = GnnClassifier(3, 2, hidden_dims=(8, 8), seed=0)
_ORACLE_CONFIG = GvexConfig(theta=0.05, radius=0.4, gamma=0.5)


def _oracle_for(g: Graph) -> ExplainabilityOracle:
    return ExplainabilityOracle(_ORACLE_MODEL, g, _ORACLE_CONFIG)


@settings(max_examples=40, deadline=None)
@given(g=random_graphs(max_nodes=8, directed=False))
def test_greedy_marginal_gains_non_increasing(g):
    """Lemma 3.3: ``f`` monotone submodular ⇒ greedy gains only shrink.

    This is exactly the property that licenses the lazy heap in
    ``_grow_lazy`` (stale entries stay upper bounds).
    """
    oracle = _oracle_for(g)
    state = oracle.new_state()
    gains = []
    for _ in range(g.n_nodes):
        v = oracle.best_candidate(state, g.nodes())
        if v is None:
            break
        gains.append(oracle.add(state, v))
    assert all(later <= earlier + 1e-12 for earlier, later in zip(gains, gains[1:]))
    # monotone: every realized gain is non-negative
    assert all(gain >= -1e-12 for gain in gains)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), g=random_graphs(max_nodes=8, directed=False))
def test_gain_is_submodular_across_nested_states(data, g):
    """``gain(S, v) >= gain(T, v)`` whenever ``S ⊆ T`` and ``v ∉ T``."""
    oracle = _oracle_for(g)
    nodes = list(g.nodes())
    t_size = data.draw(st.integers(0, max(0, g.n_nodes - 1)))
    T = set(data.draw(st.permutations(nodes))[:t_size])
    S = {v for v in T if data.draw(st.booleans())}
    outside = sorted(set(nodes) - T)
    if not outside:
        return
    v = data.draw(st.sampled_from(outside))
    gain_small = oracle.gain(oracle.state_for(S), v)
    gain_big = oracle.gain(oracle.state_for(T), v)
    assert gain_small >= gain_big - 1e-12


@settings(max_examples=25, deadline=None)
@given(data=st.data(), g=random_graphs(max_nodes=8, max_types=3, directed=False))
def test_stream_swap_rule_threshold(data, g):
    """Theorem 5.1: a full cache swaps ``v⁻`` for ``v`` iff the arriving
    node adds pattern structure AND ``gain(v) >= 2 · loss(v⁻)``."""
    if g.n_nodes < 3:
        return
    upper = data.draw(st.integers(1, g.n_nodes - 1))
    order = data.draw(st.permutations(list(g.nodes())))
    selected = set(order[:upper])
    v = order[upper]
    oracle = _oracle_for(g)
    state = oracle.state_for(selected)
    seen_sub, seen_ids = g.induced_subgraph(g.nodes())  # identity relabel
    to_local = {n: n for n in g.nodes()}

    # recompute the rule's ingredients independently before the call
    v_minus = min(sorted(selected), key=lambda u: (oracle.loss(state, u), u))
    reduced = oracle.remove(state, v_minus)
    gain_v = oracle.gain(reduced, v)
    gain_v_minus = oracle.gain(reduced, v_minus)
    delta = mine_incremental(
        seen_sub,
        new_node=v,
        radius=_ORACLE_CONFIG.stream_radius,
        known=[],
        max_size=_ORACLE_CONFIG.max_pattern_size,
    )

    algo = StreamGvex(_ORACLE_MODEL, _ORACLE_CONFIG)
    index = SubsetIndex(g, _ORACLE_CONFIG.max_pattern_size)
    for u in sorted(selected):
        index.add(u)
    took, _ = algo._inc_update_vs(
        v, selected, set(), oracle, state, to_local, upper,
        g, seen_ids, [], index, None,
    )
    if took:
        assert delta, "swap must be justified by new pattern structure"
        assert gain_v >= 2.0 * gain_v_minus - 1e-12
        assert v in selected and v_minus not in selected
        assert len(selected) == upper  # cache size is preserved
    else:
        assert (not delta) or gain_v < 2.0 * gain_v_minus + 1e-12
        assert v not in selected
    assert index.nodes == selected  # the subset index follows V_S


@settings(max_examples=40, deadline=None)
@given(pair=graphs_with_connected_subsets())
def test_remove_then_induce_partition(pair):
    """induced(S) and remove(S) partition nodes and never share edges."""
    g, subset = pair
    sub, sub_ids = g.induced_subgraph(subset)
    rest, rest_ids = g.remove_nodes(subset)
    assert sorted(sub_ids + rest_ids) == list(range(g.n_nodes))
    assert sub.n_nodes + rest.n_nodes == g.n_nodes
    # edge counts: internal(S) + internal(rest) <= total
    assert sub.n_edges + rest.n_edges <= g.n_edges
