"""ApproxGVEX's novelty tie-break: a class index of the selection vs re-mining.

``_grow_lazy`` breaks exact remainder ties toward candidates that add
pattern structure (ΔP ≠ ∅). Production keeps one
:class:`~repro.mining.index.SubsetIndex` of the selection's 2-3-node
subsets per graph and classifies only the subsets that contain the
candidate. :func:`repro.reference.remined_novelty` re-mines ``G[S]``
and lists ΔP over ``G[S ∪ {v}]`` per candidate. The two must answer
alike after every addition, also where
``mine_patterns``' 200-class cap or ``IncPGen``'s 20,000-subset ball
cap binds; and ApproxGVEX must select identical views inside
:func:`repro.reference.remine_patterns`. The indexes of the graphs one
label group or one shard explains share one subset classifier.
"""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GvexConfig, VERIFY_SOFT
from repro.core import approx
from repro.core.approx import NOVELTY_KNOWN, NOVELTY_SIZE, ApproxGvex
from repro.datasets.registry import DATASETS, dataset_info, load_dataset
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph, graph_from_edges
from repro.graphs.io import viewset_to_dict
from repro.mining.index import SubsetIndex
from repro.mining.pgen import FRESH_CAP
from repro.reference import remine_patterns, remined_novelty
from repro.runtime.executors import WorkerState
from repro.runtime.plan import Shard


@st.composite
def typed_hosts(draw, max_nodes=10):
    n = draw(st.integers(2, max_nodes))
    n_types = draw(st.integers(1, 3))
    n_edge_types = draw(st.integers(1, 3))
    types = draw(st.lists(st.integers(0, n_types - 1), min_size=n, max_size=n))
    directed = draw(st.booleans())
    g = Graph(types, directed=directed)
    pairs = (
        [(u, v) for u in range(n) for v in range(n) if u != v]
        if directed
        else list(combinations(range(n), 2))
    )
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=18)):
        if not g.has_edge(u, v):
            g.add_edge(u, v, draw(st.integers(0, n_edge_types - 1)))
    return g


def assert_novelty_matches_reference(graph, index, selected, pool):
    got = approx._pattern_novelty(graph, index, selected, pool)
    assert got == remined_novelty(graph, None, selected, pool)
    return got


@settings(max_examples=80, deadline=None)
@given(data=st.data(), graph=typed_hosts())
def test_novelty_equals_the_reference_after_every_addition(data, graph):
    """One index grows with the selection, as in ``_grow_lazy``; after
    each drawn addition a drawn pool of candidates outside it gets the
    reference's answers."""
    order = data.draw(st.permutations(graph.nodes()))
    index = SubsetIndex(graph, NOVELTY_SIZE)
    selected = set()
    for v in order[: data.draw(st.integers(1, graph.n_nodes - 1))]:
        selected.add(v)
        outside = [u for u in graph.nodes() if u not in selected]
        tied = data.draw(st.lists(st.sampled_from(outside), unique=True, min_size=1))
        assert_novelty_matches_reference(
            graph, index, selected, {u: -float(u) for u in tied}
        )
    assert index.nodes == selected


def test_novelty_keeps_only_mine_patterns_top_classes():
    """``G[S]`` has 233 classes: a star whose hub (type 0) has 21
    leaves of types 1-21 gives 21 edge classes and 210 path classes, a
    triangle and a lone edge of type-50 nodes give one triangle class
    and one 4-fold edge class. Every class but that edge occurs once
    and ties on MDL, so size orders them and the triangle ranks last,
    outside ``mine_patterns``' top 200. The candidate closes a second
    triangle on the lone edge: its class occurs in ``G[S]``, but is not
    among the known patterns, so the candidate is novel."""
    types = [0] + list(range(1, 22)) + [50] * 6
    star = [(0, leaf) for leaf in range(1, 22)]
    triangle = [(22, 23), (23, 24), (22, 24)]
    edge, candidate = [(25, 26)], 27
    graph = graph_from_edges(types, star + triangle + edge + [(25, 27), (26, 27)])
    selected = set(range(27))
    index = SubsetIndex(graph, NOVELTY_SIZE)
    for v in selected:
        index.add(v)
    assert len(index._ranked(10_000)[0]) == 233 > NOVELTY_KNOWN
    got = assert_novelty_matches_reference(graph, index, selected, {candidate: 0.0})
    assert got == {candidate: True}
    # the class is in the index: existence alone would call it known
    classify = index.classifier.classify
    assert classify(graph, (25, 26, 27)) == classify(graph, (22, 23, 24))
    assert classify(graph, (22, 23, 24)) not in index.top_classes(NOVELTY_KNOWN)


def test_novelty_walks_the_ball_as_incpgen_does_past_its_cap():
    """``S`` is a 51-clique (nodes 0-50, hub 50), a pendant on the hub
    and a lone node 52; the candidate 53 joins the hub and, by a new
    edge type, node 52. Its novel subsets ({52, 53} and the path
    52-53-50) are rooted at 50 and above, but the ball's subsets rooted
    in the clique already exceed ``FRESH_CAP``, and those that contain
    the candidate are all known paths. IncPGen's capped walk never
    reaches a novel subset, so the candidate is not novel."""
    graph = graph_from_edges([0] * 54, list(combinations(range(51), 2)))
    graph.add_edges([(50, 51), (50, 53)])
    graph.add_edge(52, 53, 1)
    selected = set(range(53))
    assert sum(comb(51, k) for k in range(1, NOVELTY_SIZE + 1)) > FRESH_CAP
    index = SubsetIndex(graph, NOVELTY_SIZE)
    got = assert_novelty_matches_reference(graph, index, selected, {53: 0.0})
    assert got == {53: False}


@pytest.mark.parametrize("bounds", [(0, 5), (2, 8)])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_approx_views_equal_re_mining_across_zoo(dataset, bounds, monkeypatch):
    """The index selects what re-mining selects, on every dataset. All
    but products (5-node graphs) break ties by novelty; mutagenicity
    does so 50 and 88 times, and asserts that it did."""
    db = load_dataset(dataset, scale="test", seed=0)
    info = dataset_info(dataset)
    model = GnnClassifier(info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0)
    config = GvexConfig(verification=VERIFY_SOFT).with_bounds(*bounds)
    with remine_patterns():
        remined = viewset_to_dict(ApproxGvex(model, config).explain(db))
    calls = []
    novelty = approx._pattern_novelty

    def counted(*args):
        calls.append(args)
        return novelty(*args)

    monkeypatch.setattr(approx, "_pattern_novelty", counted)
    indexed = viewset_to_dict(ApproxGvex(model, config).explain(db))
    assert indexed == remined, (dataset, bounds)
    if dataset == "mutagenicity":
        assert calls


def test_one_novelty_classifier_per_label_group_and_per_shard(monkeypatch):
    """Every graph of a label group, or of a shard, classifies through
    one classifier, and each call makes its own."""
    db = load_dataset("mutagenicity", scale="test", seed=0)
    info = dataset_info("mutagenicity")
    model = GnnClassifier(info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0)
    config = GvexConfig(verification=VERIFY_SOFT).with_bounds(0, 5)
    made = []
    init = SubsetIndex.__init__

    def record(index, *args, **kwargs):
        init(index, *args, **kwargs)
        made.append(index.classifier)

    monkeypatch.setattr(SubsetIndex, "__init__", record)
    indices = tuple(range(6))
    ApproxGvex(model, config).explain_label_group(db, 0, indices)
    WorkerState(model=model, config=config, db=db).run_shard(Shard(0, indices))
    assert len(made) == 2 * len(indices)
    group, shard = made[: len(indices)], made[len(indices) :]
    assert all(c is group[0] for c in group)
    assert all(c is shard[0] for c in shard)
    assert shard[0] is not group[0]
