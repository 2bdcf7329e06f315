"""Delta remainder forwards: bitwise equal to the full stacked forward.

``BatchedGnnVerifier`` computes a remainder ``G \\ (S ∪ {v})`` as a
delta from the cached base ``G \\ S`` once the frontier is above the
crossover (docs/verification.md, "Delta remainder forwards"). The full
stacked forward (``GnnClassifier.predict_proba_hiddens``) is the
oracle. This suite checks the contract at three levels:

* kernel — a hypothesis property: chains of removals from one base on
  directed and undirected graphs of 2–200 nodes, with isolated nodes
  and leaves, under every readout, match the oracle in the
  probabilities and in every layer's hidden rows;
* algorithm — ``explain_graph`` stays byte-identical to the serial
  reference on malnet and ba_synthetic large graphs in ``paper`` and
  ``soft`` mode, with the delta actually launched;
* routing — graphs below the crossover, GIN, SAGE, the
  node-explanation adapter and a BLAS that fails the ``delta_exact``
  probe never take the delta, and a remainder with a non-finite row is
  never a base.

The exactness tests skip where the probe fails: there the delta is off
and its kernel makes no bitwise promise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GvexConfig, VERIFY_PAPER, VERIFY_SOFT
from repro.core.approx import explain_graph
from repro.core.verifiers import BatchedGnnVerifier
from repro.datasets.registry import dataset_info, load_dataset
from repro.exceptions import ModelError
from repro.gnn.batch import delta_exact, removal_balls, symmetrized_adjacency
from repro.gnn.model import READOUTS, GnnClassifier
from repro.graphs.graph import Graph
from repro.reference import serial_verifier
from repro.utils.rng import ensure_rng

N_TYPES = 4

#: the delta only runs where the BLAS rounds GEMM rows independently
#: (``delta_exact``); elsewhere its kernel has no exactness contract
needs_exact_blas = pytest.mark.skipif(
    not delta_exact((16, 16, 16)) or not delta_exact((32, 32, 32)),
    reason="this BLAS rounds GEMM rows by block; the delta stays off",
)


def random_graph(rng, n: int, directed: bool, density: float, isolated: int) -> Graph:
    """Random graph whose last ``isolated`` nodes have no edges, and
    whose other nodes include leaves (one edge) at low density."""
    g = Graph(rng.integers(0, N_TYPES, size=n), directed=directed)
    linked = n - isolated
    for u in range(linked):
        for v in range(linked):
            if u != v and (directed or u < v) and rng.random() < density:
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
    for leaf in range(0, linked - 1, 7):  # a pendant per seven nodes
        hub = int(rng.integers(0, linked))
        if hub != leaf and not g.has_edge(leaf, hub) and not g.has_edge(hub, leaf):
            g.add_edge(leaf, hub)
    return g


def full_rows(model, graph, idx, cache):
    """The oracle: probabilities and layer outputs of the full forward."""
    return model.predict_proba_hiddens(graph, idx, cache=cache)


def delta_rows(model, graph, base_nodes, base_hiddens, removed, cache):
    balls = model.removal_balls(graph, base_nodes, removed, cache=cache)
    return model.predict_proba_delta(
        graph, base_nodes, base_hiddens, balls, cache=cache
    )


def assert_chain_bitwise(model, graph, rng, steps: int, force=()) -> int:
    """Walk ``steps`` removals from a random base, checking each frontier.

    ``force`` lists nodes that must be removed in the first frontier
    (when still in the base). Returns the number of frontiers checked.
    """
    n = graph.n_nodes
    cache: dict = {}
    first_cut = int(rng.integers(0, max(1, n // 4)))
    cut = set(rng.choice(n, size=first_cut, replace=False).tolist()) - set(force)
    base_nodes = np.array(sorted(set(range(n)) - cut), dtype=np.intp)
    _, hiddens = full_rows(model, graph, base_nodes[None, :], cache)
    base_hiddens = [h[0] for h in hiddens]
    checked = 0
    for step in range(steps):
        K = base_nodes.size
        if K < 2:
            break
        B = int(rng.integers(1, min(K, 12) + 1))
        removed = set(rng.choice(K, size=B, replace=False).tolist())
        if step == 0:
            removed |= {int(np.searchsorted(base_nodes, v)) for v in force if v in base_nodes}
        removed = np.array(sorted(removed), dtype=np.intp)
        probas, idx, hiddens = delta_rows(
            model, graph, base_nodes, base_hiddens, removed, cache
        )
        want_probas, want_hiddens = full_rows(model, graph, idx, cache)
        expect = np.stack([np.delete(base_nodes, p) for p in removed])
        assert np.array_equal(idx, expect)
        assert np.array_equal(probas, want_probas)
        for got, want in zip(hiddens, want_hiddens):
            assert got.shape == want.shape and np.array_equal(got, want)
        checked += 1
        pick = int(rng.integers(0, removed.size))
        base_nodes = idx[pick]
        base_hiddens = [h[pick] for h in hiddens]
    return checked


# ----------------------------------------------------------------------
# kernel: hypothesis property against the full forward
# ----------------------------------------------------------------------
@needs_exact_blas
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 200),
    directed=st.booleans(),
    density=st.sampled_from([0.0, 0.01, 0.03, 0.08, 0.25]),
    isolated=st.integers(0, 3),
    readout=st.sampled_from(READOUTS),
    depth=st.integers(1, 3),
    steps=st.integers(1, 8),
)
def test_delta_equals_full_forward(
    seed, n, directed, density, isolated, readout, depth, steps
):
    rng = ensure_rng(seed)
    isolated = min(isolated, n - 1)
    graph = random_graph(rng, n, directed, density, isolated)
    model = GnnClassifier(
        N_TYPES, 3, hidden_dims=(16,) * depth, readout=readout, seed=seed % 997
    )
    force = [n - 1] if isolated else []  # an isolated removed node
    assert assert_chain_bitwise(model, graph, rng, steps, force) >= 1


@needs_exact_blas
def test_isolated_removed_node_pads_to_two_rows():
    """Removing an isolated node dirties no row; the recomputed block is
    still two rows wide (a one-row matmul would run GEMV) and exact."""
    rng = ensure_rng(3)
    graph = random_graph(rng, 60, False, 0.06, isolated=2)
    model = GnnClassifier(N_TYPES, 2, hidden_dims=(32, 32, 32), seed=1)
    base_nodes = np.arange(60, dtype=np.intp)
    _, hiddens = full_rows(model, graph, base_nodes[None, :], {})
    removed = np.array([59], dtype=np.intp)
    balls = model.removal_balls(graph, base_nodes, removed)
    assert balls.sizes.tolist() == [[0, 0, 0]]  # the ball is the node itself
    probas, idx, rows = delta_rows(
        model, graph, base_nodes, [h[0] for h in hiddens], removed, {}
    )
    want, want_rows = full_rows(model, graph, idx, {})
    assert np.array_equal(probas, want)
    assert all(np.array_equal(a, b) for a, b in zip(rows, want_rows))


def breadth_first_hops(A: np.ndarray, source: int, cap: int) -> list:
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in np.flatnonzero(A[u]):
                if int(w) not in dist:
                    dist[int(w)] = dist[u] + 1
                    nxt.append(int(w))
        frontier = nxt
    return [min(dist.get(i, cap), cap) for i in range(A.shape[0])]


def test_removal_balls_match_breadth_first_search():
    rng = ensure_rng(8)
    graph = random_graph(rng, 40, True, 0.05, isolated=1)
    A = symmetrized_adjacency(graph)
    removed = np.array([0, 7, 39], dtype=np.intp)
    balls = removal_balls(A, np.arange(40), removed, depth=3)
    for b, source in enumerate(removed):
        want = breadth_first_hops(A, int(source), 5)
        assert balls.hops[b].tolist() == want
        # layer l recomputes the other rows within l + 1 hops
        sizes = [sum(d <= layer + 1 for d in want) - 1 for layer in (1, 2, 3)]
        assert balls.sizes[b].tolist() == sizes
    assert balls.widest == int(balls.sizes[:, -1].max())
    # a smaller base measures hops inside itself, without the paths
    # through the nodes it lacks
    hub = int(np.argmax(A.sum(axis=1)))
    base = np.delete(np.arange(40), hub)
    source = 1 if hub == 0 else 0
    inner = removal_balls(A, base, np.array([source]), depth=3)
    assert np.array_equal(inner.A_base, A[base][:, base])
    assert inner.hops[0].tolist() == breadth_first_hops(inner.A_base, source, 5)


def test_delta_rejects_non_gcn_models():
    graph = random_graph(ensure_rng(0), 10, False, 0.3, isolated=0)
    model = GnnClassifier(N_TYPES, 2, hidden_dims=(8,), conv="gin", seed=0)
    assert not model.delta_capable
    balls = removal_balls(symmetrized_adjacency(graph), np.arange(10), np.array([0]), 1)
    with pytest.raises(ModelError):
        model.predict_proba_delta(graph, np.arange(10), [np.zeros((10, 8))], balls)


# ----------------------------------------------------------------------
# algorithm: explain_graph byte-identical to the serial reference
# ----------------------------------------------------------------------
@pytest.fixture
def delta_launches(monkeypatch):
    """Counts ``predict_proba_delta`` calls made while the test runs."""
    calls = []
    real = GnnClassifier.predict_proba_delta

    def counting(self, *args, **kwargs):
        calls.append(args[1].size)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(GnnClassifier, "predict_proba_delta", counting)
    return calls


def large_model(dataset: str, conv: str = "gcn") -> GnnClassifier:
    info = dataset_info(dataset)
    return GnnClassifier(
        info.n_features, info.n_classes, hidden_dims=(16, 16, 16), conv=conv, seed=0
    )


def fingerprint(result):
    s = result.subgraph
    return None if s is None else (s.nodes, s.score, s.consistent, s.counterfactual)


@needs_exact_blas
@pytest.mark.parametrize("dataset", ["malnet", "ba_synthetic"])
@pytest.mark.parametrize("mode", [VERIFY_PAPER, VERIFY_SOFT])
def test_explain_parity_with_delta(dataset, mode, delta_launches):
    """Zoo-trained models, so paper mode finds counterfactual
    extensions and runs several frontiers on the second graph."""
    from repro.datasets.zoo import get_trained

    model = get_trained(dataset, scale="test", seed=0).model
    db = load_dataset(dataset, scale="large", seed=0)
    config = GvexConfig(verification=mode).with_bounds(0, 8)
    found = 0
    for graph in list(db)[:2]:
        label = model.predict(graph)
        with serial_verifier():
            rs = explain_graph(model, graph, label, config)
        rb = explain_graph(model, graph, label, config)
        assert fingerprint(rb) == fingerprint(rs)
        found += rb.subgraph is not None
    assert found and delta_launches, "no frontier took the delta"


@needs_exact_blas
def test_non_finite_rows_are_never_bases(delta_launches):
    """A NaN feature row spreads through every row of a remainder that
    keeps it (``0 · NaN``), so such a remainder is never a delta base;
    the next frontier runs the full forward and matches the serial one."""
    model = large_model("malnet")
    graph = load_dataset("malnet", scale="large", seed=0)[0]
    X = model.features_for(graph).copy()
    X[7] = np.nan
    poisoned = Graph(graph.node_types, features=X, directed=graph.directed)
    for u, v, t in graph.edges():
        poisoned.add_edge(u, v, t)
    batched = BatchedGnnVerifier(model, poisoned)
    batched.prefetch_remainders([frozenset({v}) for v in range(20)])
    assert set(batched._frontier) == {frozenset({7})}  # the only finite one
    # {3, 7} drops the NaN row: finite, while the base {3} is NaN throughout
    second = [frozenset({3, v}) for v in range(4, 24)]
    batched.prefetch_remainders(second)
    assert delta_launches == []
    for key in second:
        want = model.predict_proba(poisoned.remove_nodes(key)[0])
        assert np.array_equal(batched._remainder_probas[key], want, equal_nan=True)


# ----------------------------------------------------------------------
# routing: who never takes the delta
# ----------------------------------------------------------------------
def test_below_crossover_never_takes_delta(trained_model, mutagen_db, delta_launches):
    config = GvexConfig().with_bounds(0, 8)
    for graph in list(mutagen_db)[:6]:
        verifier = BatchedGnnVerifier(trained_model, graph)
        assert not verifier._keeps_bases
        explain_graph(trained_model, graph, trained_model.predict(graph), config)
    assert delta_launches == []


@pytest.mark.parametrize("conv", ["gin", "sage"])
def test_gin_and_sage_never_take_delta(conv, delta_launches):
    model = large_model("malnet", conv=conv)
    graph = load_dataset("malnet", scale="large", seed=0)[0]
    verifier = BatchedGnnVerifier(model, graph)
    assert not verifier._keeps_bases
    config = GvexConfig().with_bounds(0, 8)
    explain_graph(model, graph, model.predict(graph), config)
    assert delta_launches == []


def test_row_unstable_blas_never_takes_delta(monkeypatch, delta_launches):
    """Where GEMM rows round by block (the probe fails), GCN models too
    stay on the full forward."""
    import repro.gnn.batch as batch

    monkeypatch.setattr(batch, "delta_exact", lambda widths: False)
    model = large_model("malnet")
    graph = load_dataset("malnet", scale="large", seed=0)[0]
    assert not model.delta_capable
    assert not BatchedGnnVerifier(model, graph)._keeps_bases
    explain_graph(model, graph, model.predict(graph), GvexConfig().with_bounds(0, 8))
    assert delta_launches == []


def test_node_adapter_never_takes_delta(delta_launches):
    from repro.core.node_explain import CenterGraphClassifier
    from repro.gnn.node_model import NodeGnnClassifier

    rng = ensure_rng(2)
    graph = random_graph(rng, 150, False, 0.03, isolated=0)
    adapter = CenterGraphClassifier(NodeGnnClassifier(N_TYPES, 2, hidden_dims=(8, 8)))
    X = adapter.node_model.features_for(graph)
    marker = np.zeros((150, 1))
    marker[0, 0] = 1.0
    marked = Graph(graph.node_types, features=np.hstack([X, marker]))
    for u, v, t in graph.edges():
        marked.add_edge(u, v, t)
    verifier = BatchedGnnVerifier(adapter, marked)
    assert not verifier._keeps_bases
    for size in range(1, 5):
        verifier.prefetch_remainders([set(range(1, size + 1)) | {v} for v in range(10, 30)])
    assert delta_launches == []


@needs_exact_blas
def test_above_crossover_keeps_the_latest_frontier_only(delta_launches):
    model = large_model("malnet")
    graph = load_dataset("malnet", scale="large", seed=0)[0]
    verifier = BatchedGnnVerifier(model, graph)
    assert verifier._keeps_bases
    first = [frozenset({v}) for v in range(20)]
    verifier.prefetch_remainders(first)
    assert set(verifier._frontier) == set(first)
    assert delta_launches == []  # no base yet: the full forward
    second = [frozenset({3, v}) for v in range(20, 40)]
    verifier.prefetch_remainders(second)
    assert delta_launches and set(verifier._frontier) == set(second)
    # a lazy miss above the crossover goes through the same prefetch
    verifier.remainder_probability({3, 20, 41}, 0)
    assert set(verifier._frontier) == {frozenset({3, 20, 41})}
    serial = [model.predict_proba(graph.remove_nodes(k)[0]) for k in second]
    assert all(
        np.array_equal(verifier._remainder_probas[k], row)
        for k, row in zip(second, serial)
    )
