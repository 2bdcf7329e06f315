"""StreamGVEX reuses the state a stream already holds (§5, Algorithm 3).

* The seen prefix is read from the host: per stream, the streaming
  module builds one induced subgraph, the final explanation's, and no
  prefix graph per chunk.
* The swap rule runs before ΔP: ΔP is tested only for an arrival whose
  gain passes ``gain(v) >= 2·loss(v⁻)``. On a directed host every ΔP is
  non-empty (ROADMAP: directed singleton patterns), so there
  ``fresh_classes`` runs exactly once per swap.
* One subset classifier per :meth:`StreamGvex.explain` call, shared by
  its streams, and none shared between calls: threads explaining on
  one instance give the serial views.
"""

import sys
import threading
from dataclasses import replace
from unittest import mock

import pytest

import repro.core.streaming as streaming
from repro.config import GvexConfig
from repro.core.streaming import StreamGvex
from repro.datasets.registry import dataset_info, load_dataset
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph
from repro.graphs.io import viewset_to_dict
from repro.mining.index import SubsetIndex


@pytest.fixture(scope="module")
def malnet():
    db = load_dataset("malnet", scale="test", seed=0)
    info = dataset_info("malnet")
    model = GnnClassifier(info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0)
    return db, model, GvexConfig().with_bounds(0, 8)


def test_one_graph_and_one_delta_per_swap_per_stream(malnet):
    """Per stream, the streaming module calls ``induced_subgraph`` once
    (the final subgraph) and ``fresh_classes`` once per swap."""
    db, model, config = malnet
    built = []
    induced = Graph.induced_subgraph

    def spy(graph, nodes):
        if sys._getframe(1).f_globals["__name__"] == streaming.__name__:
            built.append(graph)
        return induced(graph, nodes)

    swaps = 0
    for graph in db.graphs:
        built.clear()
        with mock.patch.object(Graph, "induced_subgraph", spy), mock.patch.object(
            streaming, "fresh_classes", wraps=streaming.fresh_classes
        ) as delta, mock.patch.object(
            SubsetIndex, "drop", autospec=True, side_effect=SubsetIndex.drop
        ) as drop:
            result = StreamGvex(model, config).explain_graph_stream(
                graph, model.predict(graph)
            )
        assert result.subgraph is not None
        assert len(result.snapshots) > 1  # several chunks, one graph
        assert built == [graph]
        # a stream drops an index node only when it swaps
        assert delta.call_count == drop.call_count
        swaps += drop.call_count
    assert swaps > 0


def test_explain_shares_one_classifier_across_its_streams(malnet):
    db, model, config = malnet
    algo = StreamGvex(model, config)
    made = []
    init = SubsetIndex.__init__

    def record(index, *args, **kwargs):
        init(index, *args, **kwargs)
        made.append(index.classifier)

    with mock.patch.object(SubsetIndex, "__init__", record):
        algo.explain(db)
        first = list(made)
        made.clear()
        algo.explain(db)
        algo.explain_graph_stream(db[0], model.predict(db[0]))
    assert len(first) == len(db)
    assert all(c is first[0] for c in first)
    assert all(c is made[0] for c in made[:-1])
    assert made[0] is not first[0]  # a new classifier per call
    assert made[-1] is not made[0]  # a lone stream makes its own


def test_threads_on_one_instance_give_the_serial_views(malnet):
    """Concurrent explains on one instance (serve runs two queue
    workers) share no classifier: each gives the serial views. More
    threads than cores, switching often."""
    db, model, config = malnet
    algo = StreamGvex(model, replace(config, stream_batch_size=4))
    serial = viewset_to_dict(algo.explain(db))
    got = [None] * 3

    def run(i):
        got[i] = viewset_to_dict(algo.explain(db))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [serial] * len(got)
