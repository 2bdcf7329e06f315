"""Figure 8: conciseness — sparsity, compression, and edge loss.

Paper shapes:
  (a) AG/SG produce the most compact subgraphs (sparsity gap up to ~0.2
      vs GNNExplainer); explanations drop 60-80% of nodes+edges.
  (b) patterns compress subgraphs by > 90% (often > 95%).
  (c, d) edge loss grows mildly with u_l and stays small (a few %).
"""

import numpy as np

from benchmarks.harness import (
    bench_config,
    label_group_indices,
    majority_label,
    make_explainers,
)
from benchmarks.reporting import render_series, render_table, save_result
from repro.config import GvexConfig
from repro.core.approx import ApproxGvex
from repro.metrics.conciseness import mean_compression, mean_edge_loss, sparsity

from conftest import SEED, sweep_for, upper_sweep_for


def test_fig8a_sparsity(mut, enz, red, mal, benchmark):
    """Sparsity per dataset per explainer, from the Fig. 5/6 sweeps."""

    def collect():
        rows = []
        for name, setup in [
            ("RED", red),
            ("ENZ", enz),
            ("MUT", mut),
            ("MAL", mal),
        ]:
            uppers, sweeps = sweep_for(setup)
            rows.append(
                [name]
                + [float(np.mean(sweeps[m].sparsity)) for m in
                   ("AG", "SG", "GE", "SX", "GX", "GCF")]
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    text = render_table(
        "Figure 8(a): Sparsity per dataset",
        ["dataset", "AG", "SG", "GE", "SX", "GX", "GCF"],
        rows,
    )
    save_result("fig8a_sparsity", text)

    for row in rows:
        ag, sg = row[1], row[2]
        baselines = row[3:]
        # GVEX subgraphs are at least as compact as the median baseline
        assert max(ag, sg) >= sorted(baselines)[1] - 0.1, row[0]


def test_fig8b_compression(mut, enz, red, pcq, benchmark):
    """Pattern-over-subgraph compression of full GVEX views."""

    def collect():
        rows = []
        for name, setup in [
            ("MUT", mut),
            ("ENZ", enz),
            ("RED", red),
            ("PCQ", pcq),
        ]:
            config = bench_config(upper=8)
            views = ApproxGvex(setup.model, config).explain(setup.db)
            rows.append([name, mean_compression(views), mean_edge_loss(views)])
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    text = render_table(
        "Figure 8(b): Compression (patterns vs subgraphs)",
        ["dataset", "compression", "edge loss"],
        rows,
    )
    save_result("fig8b_compression", text)

    for name, comp, _ in rows:
        # paper: >95% of subgraph elements compressed away; we assert a
        # slightly looser 60% floor at test scale (fewer subgraphs to
        # amortize patterns over) and record the exact numbers
        assert comp >= 0.6, (name, comp)


def test_fig8cd_edge_loss(mut, red, benchmark):
    """Edge loss vs u_l on MUT and RED (paper: ~1.4%-2.1% on MUT)."""

    def collect():
        out = {}
        for name, setup in [("MUT", mut), ("RED", red)]:
            label = majority_label(setup)
            uppers = upper_sweep_for(setup)
            losses = []
            for upper in uppers:
                config = bench_config(upper=upper)
                algo = ApproxGvex(setup.model, config, labels=[label])
                views = algo.explain(setup.db)
                losses.append(views[label].edge_loss)
            out[name] = (uppers, losses)
        return out

    out = benchmark.pedantic(collect, rounds=1, iterations=1)
    parts = []
    for name, (uppers, losses) in out.items():
        parts.append(
            render_series(
                f"Figure 8(c/d): Edge loss vs u_l ({name})",
                "series \\ u_l",
                list(uppers),
                {"edge loss": losses},
            )
        )
    save_result("fig8cd_edge_loss", "\n\n".join(parts))

    for name, (uppers, losses) in out.items():
        assert all(0.0 <= l <= 0.5 for l in losses), (name, losses)
