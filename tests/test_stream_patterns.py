"""StreamGVEX's pattern side: subset index and lazy ΔP vs re-mining (§5).

Production answers ``IncUpdateVS``'s "does ``v`` add pattern structure?"
by stopping at the first fresh class of ΔP, and feeds ``IncUpdateP``
from a subset index kept by add/drop. :func:`repro.reference.
remine_patterns` substitutes the re-mining schedule: ΔP listed in full
with one ``Pattern`` per enumerated subset, and ``V_S`` re-mined with
``mine_patterns`` on every admission. Both must select identical
views: node sets, scores, the patterns' content in order, and every
snapshot. Where the matcher's mapping cap binds, ``IncUpdateP`` prices
its candidates with the matcher instead of the index, and still
selects what re-mining selects.
"""

from contextlib import nullcontext
from dataclasses import replace
from itertools import combinations

import pytest

from repro.config import GvexConfig, VERIFY_PAPER, VERIFY_SOFT
from repro.core.streaming import StreamGvex
from repro.datasets.registry import DATASETS, dataset_info, load_dataset
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import graph_from_edges
from repro.graphs.io import graph_to_dict
from repro.graphs.pattern import Pattern
from repro.matching.coverage import MATCH_CAP
from repro.mining.index import SubsetIndex
from repro.mining.pgen import mine_incremental
from repro.reference import remine_inc_update_p, remine_patterns, remined_delta

GRAPHS_PER_DATASET = 4


def pattern_fingerprint(result):
    nodes = None if result.subgraph is None else result.subgraph.nodes
    score = None if result.subgraph is None else result.subgraph.score
    return (
        nodes,
        score,
        [p.graph.content_key() for p in result.patterns],
        [graph_to_dict(p.graph) for p in result.patterns],
        [s.objective for s in result.snapshots],
        [s.patterns for s in result.snapshots],
    )


def run_stream(model, graph, label, config, remine=False):
    with remine_patterns() if remine else nullcontext():
        algo = StreamGvex(model, config)
        return algo.explain_graph_stream(graph, label)


@pytest.mark.parametrize("bounds", [(0, 5), (2, 8)])
@pytest.mark.parametrize("mode", [VERIFY_PAPER, VERIFY_SOFT])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_stream_pattern_side_parity_across_zoo(dataset, mode, bounds):
    """Index + lazy ΔP select what re-mining selects, on every dataset."""
    db = load_dataset(dataset, scale="test", seed=0)
    info = dataset_info(dataset)
    model = GnnClassifier(info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0)
    config = replace(
        GvexConfig(verification=mode).with_bounds(*bounds), stream_batch_size=4
    )
    checked = 0
    for idx in range(len(db)):
        if checked >= GRAPHS_PER_DATASET:
            break
        graph = db[idx]
        label = model.predict(graph)
        if label is None:
            continue
        checked += 1
        remined = run_stream(model, graph, label, config, remine=True)
        indexed = run_stream(model, graph, label, config)
        assert pattern_fingerprint(indexed) == pattern_fingerprint(remined), (
            dataset,
            mode,
            bounds,
            idx,
        )
    assert checked > 0


@pytest.mark.parametrize("dataset", ["malnet", "mutagenicity"])
def test_mine_incremental_equals_listed_reference(dataset):
    """``mine_incremental`` returns the reference's ΔP, wire form and all,
    on every node of a directed and an undirected host."""
    graph = load_dataset(dataset, scale="test", seed=0)[0]
    known = mine_incremental(graph, new_node=0, radius=1, known=[], max_size=3)
    for v in graph.nodes():
        for radius in (1, 2):
            got = mine_incremental(graph, v, radius, known, max_size=4)
            want = [p for _, p in remined_delta(graph, v, radius, known, max_size=4)]
            assert [graph_to_dict(p.graph) for p in got] == [
                graph_to_dict(p.graph) for p in want
            ], (v, radius)


def test_inc_update_p_prices_with_the_matcher_where_its_cap_binds():
    """``V_S = K_9 ∪ K_5``, one node type. The 5-clique class has
    C(9,5) + 1 = 127 live subsets and 15,240 mappings; the matcher
    stops at 10,000 of them, having covered only the K_9, so Psum over
    ``G[V_S]`` selects the 4-clique. The union of the live subsets
    covers all 14 nodes and would select the 5-clique. IncUpdateP must
    return what re-mining returns, with and without an incumbent."""
    cliques = list(combinations(range(9), 2)) + list(combinations(range(9, 14), 2))
    host = graph_from_edges([0] * 14, cliques)
    config = GvexConfig(max_pattern_size=5)
    index = SubsetIndex(host, 5)
    for v in host.nodes():
        index.add(v)
    assert max(c.mappings for c in index.pool()) > MATCH_CAP
    algo = StreamGvex(GnnClassifier(1, 2, hidden_dims=(4,), seed=0), config)
    k5 = Pattern.from_induced(host, range(9, 14))
    for incumbents in ([], [k5]):
        got, want = list(incumbents), list(incumbents)
        algo._inc_update_p(host, set(host.nodes()), got, config, index)
        remine_inc_update_p(algo, host, set(host.nodes()), want, config, None)
        assert [graph_to_dict(p.graph) for p in got] == [
            graph_to_dict(p.graph) for p in want
        ]
        assert [p.n_nodes for p in want] == [4]
