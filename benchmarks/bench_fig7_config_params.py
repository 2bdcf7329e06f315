"""Figure 7: fidelity response to configuration parameters (θ, r) and γ.

Paper setup: on MUT, sweep (θ, r) combinations and γ values; the paper
selects (θ=0.08, r=0.25, γ=0.5) by grid search as the balance point.
Shape: fidelity varies smoothly with the parameters, and the chosen
defaults are within the best region (no parameter setting catastrophically
degrades Fidelity-, which GVEX delivers by construction).
"""

import numpy as np

from benchmarks.harness import bench_config, label_group_indices, majority_label
from benchmarks.reporting import render_table, save_result
from repro.config import GvexConfig
from repro.explainers import ApproxGvexExplainer
from repro.metrics.fidelity import fidelity_scores

from conftest import SEED

THETAS_RS = [(0.05, 0.2), (0.08, 0.25), (0.15, 0.4), (0.3, 0.6)]
GAMMAS = [0.0, 0.5, 1.0]
UPPER = 6


def _run_point(trained, theta, radius, gamma, label, indices):
    config = GvexConfig(theta=theta, radius=radius, gamma=gamma).with_bounds(
        0, UPPER
    )
    explainer = ApproxGvexExplainer(trained.model, config)
    expls = explainer.explain_database(
        trained.db, label=label, max_nodes=UPPER, indices=indices
    )
    return fidelity_scores(trained.model, trained.db, expls)


def _sweep(trained):
    label = majority_label(trained)
    indices = label_group_indices(trained, label, limit=5)
    theta_rows = []
    for theta, radius in THETAS_RS:
        plus, minus = _run_point(trained, theta, radius, 0.5, label, indices)
        theta_rows.append([f"({theta}, {radius})", plus, minus])
    gamma_rows = []
    for gamma in GAMMAS:
        plus, minus = _run_point(trained, 0.08, 0.25, gamma, label, indices)
        gamma_rows.append([f"gamma={gamma}", plus, minus])
    return theta_rows, gamma_rows


def test_fig7_parameter_sensitivity(mut, benchmark):
    theta_rows, gamma_rows = benchmark.pedantic(
        _sweep, args=(mut,), rounds=1, iterations=1
    )
    text = "\n\n".join(
        [
            render_table(
                "Figure 7 (a, b): Fidelity vs (theta, r) on MUT",
                ["(theta, r)", "Fidelity+", "Fidelity-"],
                theta_rows,
            ),
            render_table(
                "Figure 7 (c, d): Fidelity vs gamma on MUT",
                ["gamma", "Fidelity+", "Fidelity-"],
                gamma_rows,
            ),
        ]
    )
    save_result("fig7_config_params", text)

    # Fidelity- stays near zero across the grid (consistency is enforced
    # by the algorithm, not by parameter luck)
    for _, _, minus in theta_rows + gamma_rows:
        assert minus <= 0.3
    # the parameters matter (the sweep produces real variation — this is
    # why the paper grid-searches them) ...
    plus_values = [r[1] for r in theta_rows]
    assert max(plus_values) >= 0.1
    # ... and no setting catastrophically breaks Fidelity+ *and*
    # Fidelity- at once: the best-Fid+ configuration keeps Fid- low
    best = max(theta_rows, key=lambda r: r[1])
    assert best[2] <= 0.3
