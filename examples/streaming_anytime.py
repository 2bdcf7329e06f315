"""Anytime streaming explanation (paper §5 and Fig. 9f).

StreamGVEX processes each graph as a stream of nodes, maintaining an
explanation view a user can interrupt and inspect at any point. This
example streams one molecule, printing the view state and per-chunk
latency at every batch; ``IncEVerify`` builds each chunk's oracle from
the host's slices. It then replays the stream on the reference that
builds the induced prefix as a graph (substituted through
:func:`repro.reference.rebuild_everify`) to show both select the same
view at the same refresh count, and compares the final result with
the batch algorithm's.

    python examples/streaming_anytime.py
"""

from dataclasses import replace

from repro.config import GvexConfig
from repro.core.approx import explain_graph
from repro.core.streaming import StreamGvex
from repro.datasets import pcqm4m
from repro.gnn.model import GnnClassifier
from repro.gnn.training import train_classifier
from repro.reference import rebuild_everify


def main() -> None:
    db = pcqm4m(n_graphs=45, seed=2)
    model = GnnClassifier(9, 3, hidden_dims=(32, 32, 32), seed=0)
    model, encoder, metrics = train_classifier(db, model, seed=0)
    print(f"classifier: {metrics}")

    config = replace(
        GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
        stream_batch_size=3,
    )

    # pick the largest correctly-classified molecule and stream it
    target = max(
        (i for i in range(len(db)) if model.predict(db[i]) is not None),
        key=lambda i: db[i].n_nodes,
    )
    graph = db[target]
    label = model.predict(graph)
    print(f"\nstreaming graph {target} ({graph.n_nodes} nodes, label {label})")

    # discarded warm-up: first-touch costs would otherwise be charged
    # to whichever schedule runs first
    StreamGvex(model, config).explain_graph_stream(graph, label)
    results = {}
    results["host slices"] = StreamGvex(model, config).explain_graph_stream(
        graph, label, graph_index=target
    )
    with rebuild_everify():
        results["induced prefix"] = StreamGvex(model, config).explain_graph_stream(
            graph, label, graph_index=target
        )

    result = results["host slices"]
    print("\nanytime snapshots (one per batch):")
    print("  seen%   |V_S|  patterns  objective   chunk_ms   elapsed")
    prev_elapsed = 0.0
    for s in result.snapshots:
        chunk_ms = (s.elapsed_seconds - prev_elapsed) * 1e3
        prev_elapsed = s.elapsed_seconds
        print(
            f"  {s.fraction_seen:5.0%}   {s.selected_nodes:5d}  "
            f"{s.patterns:8d}  {s.objective:9.3f}   {chunk_ms:8.2f}   "
            f"{s.elapsed_seconds:.3f}s"
        )

    # both IncEVerify schedules select the same view, at one full
    # oracle build per chunk
    reference = results["induced prefix"]
    assert result.subgraph is not None and reference.subgraph is not None
    assert result.subgraph.nodes == reference.subgraph.nodes
    assert (
        result.oracle_stats.full_refreshes
        == reference.oracle_stats.full_refreshes
        == len(result.snapshots)
    )
    print("\nIncEVerify accounting (full oracle builds per stream):")
    for schedule, res in results.items():
        print(
            f"  {schedule:14s}: {res.oracle_stats.full_refreshes} full "
            f"refresh(es), {res.snapshots[-1].elapsed_seconds * 1e3:.1f} ms total"
        )

    print(f"\nfinal streaming explanation: {result.subgraph}")

    batch = explain_graph(model, graph, label, config, graph_index=target)
    print(f"batch (ApproxGVEX) explanation: {batch.subgraph}")
    if batch.subgraph is not None and batch.subgraph.score > 0:
        ratio = result.subgraph.score / batch.subgraph.score
        print(f"stream/batch objective ratio: {ratio:.2f} "
              f"(Theorem 5.1 guarantees >= 0.25 in the worst case)")


if __name__ == "__main__":
    main()
