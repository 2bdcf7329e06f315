"""Serial-vs-batched verification parity.

The batched engine's contract is *exact* equivalence with the serial
reference: bit-identical probabilities, therefore byte-identical greedy
decisions, while launching (far) fewer forward passes. This suite
checks that contract at three levels:

* model level — ``predict_proba_batch`` rows equal serial
  ``predict_proba`` on the induced subgraph bit-for-bit, across conv
  types, readouts, directedness, and subset sizes;
* verifier level — both schedules answer identical probabilities and
  the batched verifier never launches more forwards;
* algorithm level — ``explain_graph`` selects byte-identical node
  sets, objectives, and §2.2 flags on every dataset of the synthetic
  zoo in both ``paper`` and ``soft`` verification modes, with an
  inference-call count no worse than serial. The serial arm runs the
  production explainers with :func:`repro.reference.serial_verifier`
  substituting :class:`GnnVerifier` for the batched verifier.

Models are seeded but untrained: parity is a property of the compute
graph, not of the weights, and near-uniform outputs produce the
near-tie comparisons that stress decision parity hardest. One
trained-model case rides on the session fixtures.
"""

import numpy as np
import pytest

from repro.config import GvexConfig, VERIFY_PAPER, VERIFY_SOFT
from repro.core.approx import explain_graph
from repro.core.explainability import ExplainabilityOracle
from repro.core.streaming import StreamGvex
from repro.core.verifiers import BatchedGnnVerifier, GnnVerifier
from repro.reference import serial_verifier
from repro.datasets.registry import DATASETS, dataset_info, load_dataset
from repro.gnn.batch import rowwise_head
from repro.gnn.model import CONV_TYPES, READOUTS, GnnClassifier
from repro.utils.rng import ensure_rng

GRAPHS_PER_DATASET = 2
ZOO = sorted(DATASETS)


def batch_rows(predict_proba_batch, graph, subsets):
    """``predict_proba_batch`` over sorted ``subsets`` of mixed sizes:
    one ``(B, k)`` matrix per size, ``k = 0`` included, rows returned
    in ``subsets`` order."""
    out = [None] * len(subsets)
    for size in sorted({len(s) for s in subsets}):
        at = [i for i, s in enumerate(subsets) if len(s) == size]
        idx = np.array([subsets[i] for i in at], dtype=np.intp).reshape(
            len(at), size
        )
        for i, row in zip(at, predict_proba_batch(graph, idx)):
            out[i] = row
    return np.array(out)


def zoo_model(dataset: str) -> GnnClassifier:
    info = dataset_info(dataset)
    return GnnClassifier(
        info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0
    )


def result_fingerprint(result):
    if result.subgraph is None:
        return None
    s = result.subgraph
    return (s.nodes, s.score, s.consistent, s.counterfactual)


# ----------------------------------------------------------------------
# model level: bitwise equality of the stacked forward
# ----------------------------------------------------------------------
@pytest.mark.parametrize("conv", CONV_TYPES)
@pytest.mark.parametrize("readout", READOUTS)
def test_predict_proba_batch_bitwise(conv, readout, mutagen_db):
    model = GnnClassifier(
        3, 2, hidden_dims=(8, 8, 8), conv=conv, readout=readout, seed=2
    )
    rng = ensure_rng(5)
    graph = mutagen_db[3]
    subsets = [()]  # empty subset -> uniform prior row
    for size in range(1, graph.n_nodes + 1):
        for _ in range(3):
            subsets.append(
                tuple(
                    sorted(
                        rng.choice(
                            graph.n_nodes, size=size, replace=False
                        ).tolist()
                    )
                )
            )
    batch = batch_rows(model.predict_proba_batch, graph, subsets)
    assert batch.shape == (len(subsets), model.n_classes)
    uniform = np.full(model.n_classes, 1.0 / model.n_classes)
    assert np.array_equal(batch[0], uniform)
    for row, subset in zip(batch[1:], subsets[1:]):
        sub, _ = graph.induced_subgraph(subset)
        assert np.array_equal(row, model.predict_proba(sub)), (conv, readout, subset)


def test_predict_proba_batch_directed_graph():
    from repro.graphs.graph import Graph

    rng = ensure_rng(11)
    g = Graph(rng.integers(0, 3, size=12), directed=True)
    for _ in range(20):
        u, v = (int(x) for x in rng.integers(0, 12, size=2))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    model = GnnClassifier(3, 2, hidden_dims=(8, 8), seed=1)
    subsets = [tuple(sorted(rng.choice(12, size=5, replace=False).tolist())) for _ in range(6)]
    batch = model.predict_proba_batch(g, np.array(subsets))
    for row, subset in zip(batch, subsets):
        sub, _ = g.induced_subgraph(subset)
        assert np.array_equal(row, model.predict_proba(sub))


def test_predict_proba_batch_rejects_bad_nodes(mutagen_db):
    from repro.exceptions import ModelError

    model = GnnClassifier(3, 2, hidden_dims=(8,), seed=0)
    graph = mutagen_db[0]
    with pytest.raises(ModelError):
        model.predict_proba_batch(graph, [(0, graph.n_nodes)])
    with pytest.raises(ModelError):
        model.predict_proba_batch(graph, [(-1, 0)])
    with pytest.raises(ModelError, match="strictly increasing"):
        model.predict_proba_batch(graph, [(2, 1)])
    with pytest.raises(ModelError, match="one \\(B, k\\) matrix"):
        model.predict_proba_batch(graph, [(0, 1), (2,)])  # mixed sizes
    with pytest.raises(ModelError, match="integer node ids"):
        model.predict_proba_batch(graph, [[0.5, 1.7]])  # would truncate to {0, 1}
    with pytest.raises(ModelError, match="integer node ids"):
        model.predict_proba_batch(graph, np.array([[False, True]]))  # would be {0, 1}
    # a size-0 matrix holds no ids, whatever its dtype: M(∅) is uniform
    assert (model.predict_proba_batch(graph, np.empty((3, 0))) == 0.5).all()
    assert model.predict_proba_batch(graph, np.empty((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("seed", range(3))
def test_stacked_head_equals_the_row_loop(seed):
    """``rowwise_head`` is bit-identical to a loop of serial GEMVs
    ``pooled[i] @ W + b``, on every BLAS kernel CI runs it under."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        b, d, c = (int(x) for x in rng.integers(1, (300, 130, 12)))
        pooled = rng.standard_normal((b, d)) * rng.uniform(0.01, 100.0)
        weight, bias = rng.standard_normal((d, c)), rng.standard_normal(c)
        loop = np.array([pooled[i] @ weight + bias for i in range(b)])
        stacked = rowwise_head(pooled, weight, bias)
        assert stacked.shape == (b, c)
        assert stacked.tobytes() == loop.tobytes(), (b, d, c)


# ----------------------------------------------------------------------
# verifier level: identical answers, fewer launches
# ----------------------------------------------------------------------
def test_batched_verifier_matches_serial_probes(mutagen_db):
    model = GnnClassifier(3, 2, hidden_dims=(8, 8), seed=3)
    graph = mutagen_db[1]
    serial = GnnVerifier(model, graph)
    batched = BatchedGnnVerifier(model, graph)
    rng = ensure_rng(7)
    keys = [
        frozenset(rng.choice(graph.n_nodes, size=4, replace=False).tolist())
        for _ in range(8)
    ]
    batched.prefetch_subsets(keys)
    batched.prefetch_remainders(keys)
    assert batched.inference_calls == 2  # one launch per frontier
    assert batched.subsets_evaluated == 2 * len(set(keys))
    for key in keys:
        for label in range(model.n_classes):
            assert serial.subset_probability(key, label) == batched.subset_probability(
                key, label
            )
            assert serial.remainder_probability(
                key, label
            ) == batched.remainder_probability(key, label)
        assert serial.check(key, 1) == batched.check(key, 1)
    assert serial.inference_calls == serial.subsets_evaluated == 2 * len(set(keys))


@pytest.mark.parametrize("conv", CONV_TYPES)
@pytest.mark.parametrize("dataset", ["malnet", "mutagenicity"])
def test_whole_graph_probability_forwards_the_graph_itself(
    dataset, conv, monkeypatch
):
    """A subset key of every node forwards ``G`` itself, never a copy;
    the copy's arrays are ``G``'s, so the bits are the copy's."""
    from repro.graphs.graph import Graph

    graph = load_dataset(dataset, scale="test", seed=0)[0]
    info = dataset_info(dataset)
    model = GnnClassifier(
        info.n_features, info.n_classes, hidden_dims=(8, 8), conv=conv, seed=0
    )
    copy, _ = graph.induced_subgraph(graph.nodes())
    want = model.predict_proba(copy).tolist()
    verifier = GnnVerifier(model, graph)

    def copied(*args):
        raise AssertionError("the whole graph was copied")

    monkeypatch.setattr(Graph, "induced_subgraph", copied)
    got = [
        verifier.subset_probability(graph.nodes(), label)
        for label in range(info.n_classes)
    ]
    assert got == want


@pytest.mark.parametrize("conv", CONV_TYPES)
@pytest.mark.parametrize("dataset", ["malnet", "mutagenicity"])
def test_lazy_batched_misses_build_no_graph_copy(dataset, conv, monkeypatch):
    """A query that misses a fresh batched verifier's cache is a one-key
    stacked launch: ``repro.core.verifiers`` builds no ``Graph`` copy,
    and every value equals the serial verifier's."""
    import sys

    from repro.graphs.graph import Graph

    graph = load_dataset(dataset, scale="test", seed=0)[0]
    info = dataset_info(dataset)
    model = GnnClassifier(
        info.n_features, info.n_classes, hidden_dims=(8, 8), conv=conv, seed=0
    )
    rng = ensure_rng(5)
    keys = [frozenset(graph.nodes())] + [
        frozenset(rng.choice(graph.n_nodes, size=size, replace=False).tolist())
        for size in (1, 3, graph.n_nodes // 2, graph.n_nodes - 1)
    ]
    labels = range(info.n_classes)

    def answers(make):
        return [
            (
                [make().subset_probability(key, label) for label in labels],
                [make().remainder_probability(key, label) for label in labels],
                [make().check(key, label) for label in labels],
            )
            for key in keys
        ]

    want = answers(lambda: GnnVerifier(model, graph))
    copies = []
    for name in ("induced_subgraph", "remove_nodes"):
        def spy(self, *args, _real=getattr(Graph, name), **kwargs):
            copies.append(sys._getframe(1).f_globals.get("__name__"))
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Graph, name, spy)
    got = answers(lambda: BatchedGnnVerifier(model, graph))
    assert "repro.core.verifiers" not in copies
    assert got == want


def test_prefetch_is_idempotent_and_cache_coherent(mutagen_db):
    model = GnnClassifier(3, 2, hidden_dims=(8, 8), seed=3)
    batched = BatchedGnnVerifier(model, mutagen_db[2])
    keys = [frozenset({0, 1, 2}), frozenset({1, 2, 0}), frozenset({3})]
    assert batched.prefetch_subsets(keys) == 2  # duplicates collapse
    calls = batched.inference_calls
    assert batched.prefetch_subsets(keys) == 0  # warm cache: no launch
    assert batched.inference_calls == calls
    # a lazy miss after prefetch is a one-key launch and must agree
    # with a value computed in a larger batch for the same key
    lazy = batched.subset_probability(frozenset({0, 1}), 0)
    fresh = BatchedGnnVerifier(model, mutagen_db[2])
    fresh.prefetch_subsets([frozenset({0, 1})])
    assert lazy == fresh.subset_probability(frozenset({0, 1}), 0)


def test_prefetch_chunks_to_memory_budget(mutagen_db):
    """A tiny element budget splits the frontier into several launches
    without changing any cached value."""
    model = GnnClassifier(3, 2, hidden_dims=(8, 8), seed=3)
    graph = mutagen_db[1]
    keys = [frozenset({v, (v + 1) % graph.n_nodes}) for v in range(graph.n_nodes)]
    whole = BatchedGnnVerifier(model, graph)
    whole.prefetch_subsets(keys)
    assert whole.inference_calls == 1
    chunked = BatchedGnnVerifier(model, graph)
    chunked.BATCH_ELEMENT_BUDGET = 2 * 2 * 3  # three subsets per launch
    chunked.prefetch_subsets(keys)
    assert chunked.inference_calls > 1
    assert chunked.subsets_evaluated == whole.subsets_evaluated
    for key in keys:
        assert chunked.subset_probability(key, 0) == whole.subset_probability(key, 0)


def test_serial_verifier_substitution(trained_model, mutagen_db):
    """The explainers construct the batched verifier, and the serial
    reference inside ``serial_verifier()``: the substituted run launches
    one forward per subset."""
    g = mutagen_db[0]
    label = trained_model.predict(g)
    config = GvexConfig(verification=VERIFY_PAPER).with_bounds(0, 4)
    batched = explain_graph(trained_model, g, label, config)
    with serial_verifier():
        serial = explain_graph(trained_model, g, label, config)
    assert serial.inference_calls > batched.inference_calls
    assert result_fingerprint(serial) == result_fingerprint(batched)


# ----------------------------------------------------------------------
# algorithm level: the zoo sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [VERIFY_PAPER, VERIFY_SOFT])
@pytest.mark.parametrize("dataset", ZOO)
def test_explain_parity_across_zoo(dataset, mode):
    """Byte-identical selections on every synthetic-zoo dataset."""
    db = load_dataset(dataset, scale="test", seed=0)
    model = zoo_model(dataset)
    config = GvexConfig(verification=mode).with_bounds(0, 5)
    checked = 0
    for idx in range(len(db)):
        if checked >= GRAPHS_PER_DATASET:
            break
        graph = db[idx]
        label = model.predict(graph)
        if label is None:
            continue
        checked += 1
        oracle = ExplainabilityOracle(model, graph, config)
        with serial_verifier():
            rs = explain_graph(model, graph, label, config, oracle=oracle)
        rb = explain_graph(model, graph, label, config, oracle=oracle)
        assert result_fingerprint(rb) == result_fingerprint(rs), (dataset, mode, idx)
        assert rb.inference_calls <= rs.inference_calls, (dataset, mode, idx)
    assert checked > 0


@pytest.mark.parametrize("mode", [VERIFY_PAPER, VERIFY_SOFT])
def test_explain_parity_trained_model(trained_model, mutagen_db, mode):
    """Same contract on a trained classifier (sharper probabilities)."""
    config = GvexConfig(theta=0.08, radius=0.3, verification=mode).with_bounds(0, 6)
    for idx in range(4):
        graph = mutagen_db[idx]
        label = trained_model.predict(graph)
        oracle = ExplainabilityOracle(trained_model, graph, config)
        with serial_verifier():
            rs = explain_graph(trained_model, graph, label, config, oracle=oracle)
        rb = explain_graph(trained_model, graph, label, config, oracle=oracle)
        assert result_fingerprint(rb) == result_fingerprint(rs)
        assert rb.inference_calls <= rs.inference_calls


def test_node_explain_parity():
    """The node-classification adapter batches bit-identically too."""
    from repro.core.node_explain import CenterGraphClassifier, explain_node
    from repro.gnn.node_model import NodeGnnClassifier
    from repro.graphs.graph import Graph

    rng = ensure_rng(0)
    n = 14
    g = Graph(rng.integers(0, 3, size=n))
    for _ in range(22):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    node_model = NodeGnnClassifier(3, 2, hidden_dims=(8, 8), seed=1)

    # adapter level: batched rows equal serial rows bit-for-bit,
    # including center-less subsets (uniform prior)
    X = node_model.features_for(g)
    marker = np.zeros((n, 1))
    marker[4, 0] = 1.0
    marked = Graph(g.node_types, features=np.hstack([X, marker]))
    for u, v, t in g.edges():
        marked.add_edge(u, v, t)
    adapter = CenterGraphClassifier(node_model)
    subsets = [()] + [
        tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        for size in (1, 3, 5, 8)
        for _ in range(3)
    ]
    batch = batch_rows(adapter.predict_proba_batch, marked, subsets)
    for row, subset in zip(batch, subsets):
        sub, _ = marked.induced_subgraph(subset)
        assert np.array_equal(row, adapter.predict_proba(sub)), subset

    # end to end: identical context selections under either schedule
    base = GvexConfig().with_bounds(0, 5)
    for node in (0, 4, 9):
        with serial_verifier():
            rs = explain_node(node_model, g, node, base)
        rb = explain_node(node_model, g, node, base)
        assert rb.context_nodes == rs.context_nodes
        assert rb.score == rs.score
        assert (rb.consistent, rb.counterfactual) == (rs.consistent, rs.counterfactual)


@pytest.mark.parametrize("mode", [VERIFY_PAPER, VERIFY_SOFT])
def test_stream_parity(trained_model, mutagen_db, mode):
    """StreamGVEX picks identical caches under either schedule.

    ``paper`` mode also exercises the speculative chunk prefetch (the
    arriving chunk's extension probes are filled before the per-node
    ``vp_extend`` gate runs).
    """
    for idx in (0, 1, 5):
        graph = mutagen_db[idx]
        label = trained_model.predict(graph)
        config = GvexConfig(verification=mode).with_bounds(0, 6)
        with serial_verifier():
            rs = StreamGvex(trained_model, config).explain_graph_stream(
                graph, label
            )
        rb = StreamGvex(trained_model, config).explain_graph_stream(
            graph, label
        )
        if rs.subgraph is None:
            assert rb.subgraph is None
        else:
            assert rb.subgraph.nodes == rs.subgraph.nodes
            assert rb.subgraph.score == rs.subgraph.score
        assert [p.key() for p in rb.patterns] == [p.key() for p in rs.patterns]
