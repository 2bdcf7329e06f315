"""Delta vs full remainder forwards: the crossover ledger.

``BatchedGnnVerifier`` fills a remainder frontier ``G \\ (S ∪ {v})``
either with the full stacked forward or, when the round's base
``G \\ S`` is cached, as a delta that recomputes only the rows within
reach of ``v`` (docs/verification.md, "Delta remainder forwards").
This bench measures both paths on frontiers taken from real explains,
so the crossover constants in ``repro/core/verifiers.py`` rest on data:

* **record** — run ApproxGVEX's per-graph explain (``explain_graph``,
  the workloads' ``[0, 8]`` bounds) with a verifier that groups every
  remainder miss under its base exactly as production does, but never
  takes the delta; every (base, frontier) group is logged, whatever
  the graph size. Every zoo dataset at test and large scale, plus
  mutagenicity and malnet at bench scale, soft mode; malnet and
  ba_synthetic at large scale in paper mode too (frontiers of every
  remaining node).
* **replay** — each group through both production launch methods,
  ``REPEATS`` times, interleaved: the full path (``_hidden_launch``)
  and the delta (``_delta_launch`` with the crossover forced open).
  Every remainder's probabilities and every layer's hidden rows must be
  bitwise equal on both paths; the bench raises if one is not.

Per frontier it reports the median and IQR of each path's time, the
remainder size, the frontier size and the widest-ball fraction, and
what the production crossover (``_delta_pays``) picks for it. Per set
it reports the summed medians (``delta_over_full``), the share of
frontiers where the delta is faster, and the time under the production
rule against always-full and always-delta. Results land in
``results/BENCH_remainder_delta.json``::

    PYTHONPATH=src python benchmarks/bench_remainder_delta.py \\
        --out results/BENCH_remainder_delta.json

A set whose model is not ``delta_capable`` on this BLAS is skipped and
listed under ``skipped``, and the script then exits 1: a ledger that
replays nothing must not pass. ``OPENBLAS_CORETYPE=Sandybridge``
selects a kernel that passes on any x86-64 machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

if __package__ in (None, ""):  # direct `python benchmarks/bench_remainder_delta.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import SEED, trained
from repro.config import GvexConfig, VERIFY_PAPER, VERIFY_SOFT
from repro.core.approx import explain_graph
from repro.core.verifiers import BatchedGnnVerifier
from repro.datasets.registry import DATASETS, load_dataset
from repro.gnn.batch import DELTA_MAX_ROWS

#: (dataset, scale, verification mode) sets recorded
SETS = (
    [(name, scale, VERIFY_SOFT) for name in sorted(DATASETS) for scale in ("test", "large")]
    + [("mutagenicity", "bench", VERIFY_SOFT), ("malnet", "bench", VERIFY_SOFT)]
    + [("malnet", "large", VERIFY_PAPER), ("ba_synthetic", "large", VERIFY_PAPER)]
)
#: graphs explained per set (the first ones of the dataset)
GRAPHS = {VERIFY_SOFT: 12, VERIFY_PAPER: 2}
#: timed replays per path and frontier
REPEATS = 5
#: the workloads' coverage bounds (perfbench)
BOUNDS = (0, 8)


# ----------------------------------------------------------------------
# record: production grouping, delta never taken
# ----------------------------------------------------------------------
class RecordingVerifier(BatchedGnnVerifier):
    """Groups remainder misses by base like production and logs each group.

    Every graph keeps bases (within the bitwise row cap), so frontiers
    below the crossover are recorded too; the delta itself is never
    taken, so the explain runs on the full path it is compared against.
    """

    log: list = []

    def __init__(self, model, graph) -> None:
        super().__init__(model, graph)
        self._keeps_bases = 3 <= graph.n_nodes <= DELTA_MAX_ROWS + 1

    def _delta_launch(self, base, group, frontier) -> bool:
        base_nodes, _ = self._frontier[base]
        removed = [next(iter(key - base)) for key in group]
        self.log.append((self.graph, base_nodes.copy(), removed))
        return False


@contextmanager
def recording():
    RecordingVerifier.log = []
    with mock.patch("repro.core.approx.BatchedGnnVerifier", RecordingVerifier):
        yield RecordingVerifier.log


def record_set(model, name: str, scale: str, mode: str, n_graphs: int) -> list:
    """Explain the set's first graphs; returns the recorded groups."""
    db = load_dataset(name, scale=scale, seed=SEED)
    config = GvexConfig(verification=mode).with_bounds(*BOUNDS)
    with recording() as log:
        for graph in list(db)[:n_graphs]:
            label = model.predict(graph)
            if label is not None:
                explain_graph(model, graph, label, config)
    return list(log)


# ----------------------------------------------------------------------
# replay: both launch paths, bitwise compared
# ----------------------------------------------------------------------
def _quartiles(samples):
    q1, q2, q3 = np.percentile(samples, [25, 50, 75])
    return float(q2), float(q3 - q1)


def replay(model, graph, base_nodes, removed) -> dict:
    """Time one recorded group on both paths; raises on any bit difference."""
    verifier = BatchedGnnVerifier(model, graph)
    verifier._delta_pays = lambda rows, frontier, widest: True
    base = frozenset(range(graph.n_nodes)) - frozenset(base_nodes.tolist())
    _, hiddens = model.predict_proba_hiddens(
        graph, base_nodes[None, :], cache=verifier._gather_cache
    )
    verifier._frontier = {base: (base_nodes, [h[0] for h in hiddens])}
    keys = [base | {v} for v in removed]

    def run(path):
        verifier._remainder_probas.clear()
        kept: dict = {}
        start = time.perf_counter()
        if path == "full":
            verifier._hidden_launch(keys, kept)
        else:
            assert verifier._delta_launch(base, keys, kept)
        elapsed = time.perf_counter() - start
        return elapsed, dict(verifier._remainder_probas), kept

    times = {"full": [], "delta": []}
    outputs = {}
    for _ in range(REPEATS):
        for path in ("full", "delta"):
            elapsed, probas, kept = run(path)
            times[path].append(elapsed)
            outputs[path] = (probas, kept)
    (p_full, k_full), (p_delta, k_delta) = outputs["full"], outputs["delta"]
    for key in keys:
        same = np.array_equal(p_full[key], p_delta[key]) and np.array_equal(
            k_full[key][0], k_delta[key][0]
        )
        same = same and all(
            np.array_equal(a, b) for a, b in zip(k_full[key][1], k_delta[key][1])
        )
        if not same:
            raise AssertionError(
                f"delta differs from the full forward on a {graph.n_nodes}-node "
                f"graph, base of {base_nodes.size} rows, removing {sorted(key - base)}"
            )

    balls = model.removal_balls(
        graph,
        base_nodes,
        np.searchsorted(base_nodes, removed),
        cache=verifier._gather_cache,
    )
    rows = int(base_nodes.size - 1)
    widest = balls.widest
    full_s, full_iqr = _quartiles(times["full"])
    delta_s, delta_iqr = _quartiles(times["delta"])
    return {
        "graph_nodes": int(graph.n_nodes),
        "rows": rows,
        "frontier": len(keys),
        "widest": widest,
        "widest_fraction": round(widest / max(1, rows), 4),
        "full_median_s": round(full_s, 7),
        "full_iqr_s": round(full_iqr, 7),
        "delta_median_s": round(delta_s, 7),
        "delta_iqr_s": round(delta_iqr, 7),
        "ratio": round(delta_s / full_s, 4),
        "rule_takes_delta": bool(
            BatchedGnnVerifier._delta_pays(verifier, rows, len(keys), widest)
        ),
        "bitwise_equal": True,
        "_ball_fractions": (balls.sizes[:, -1] / max(1, rows)).tolist(),
        "_full_graph_fractions": full_graph_fractions(
            model, graph, base_nodes, removed, verifier._gather_cache
        ),
    }


def full_graph_fractions(model, graph, base_nodes, removed, cache) -> list:
    """Per remainder, the share of its rows a delta from the full graph
    ``G`` would recompute: the union of the widest balls of every
    removed node (``S ∪ {v}``), measured in ``G``."""
    n = graph.n_nodes
    nodes = np.arange(n)
    widest = model.removal_balls(graph, nodes, nodes, cache=cache).ball(model.n_layers)
    gone_before = np.ones(n, dtype=bool)
    gone_before[base_nodes] = False
    near_before = widest[gone_before].any(axis=0)
    out = []
    for v in removed:
        dirty = (near_before | widest[v]) & ~gone_before
        dirty[v] = False
        out.append(float(dirty.sum() / max(1, base_nodes.size - 1)))
    return out


def summarize(rows: list) -> dict:
    balls = [f for r in rows for f in r.pop("_ball_fractions")]
    from_full = [f for r in rows for f in r.pop("_full_graph_fractions")]
    full = sum(r["full_median_s"] for r in rows)
    delta = sum(r["delta_median_s"] for r in rows)
    rule = sum(
        r["delta_median_s"] if r["rule_takes_delta"] else r["full_median_s"]
        for r in rows
    )
    return {
        "frontiers": len(rows),
        "remainders": sum(r["frontier"] for r in rows),
        "median_rows": float(np.median([r["rows"] for r in rows])) if rows else 0.0,
        "median_widest_fraction": (
            float(np.median([r["widest_fraction"] for r in rows])) if rows else 0.0
        ),
        # per remainder: rows its delta recomputes from the round's base,
        # against a delta from the full graph's forward
        "median_ball_fraction": float(np.median(balls)) if balls else 0.0,
        "median_full_graph_fraction": float(np.median(from_full)) if from_full else 0.0,
        "median_ratio": float(np.median([r["ratio"] for r in rows])) if rows else 0.0,
        "delta_over_full": delta / full if full else 0.0,
        "delta_faster_share": (
            sum(r["ratio"] < 1.0 for r in rows) / len(rows) if rows else 0.0
        ),
        "rule_delta_share": (
            sum(r["rule_takes_delta"] for r in rows) / len(rows) if rows else 0.0
        ),
        "always_full_s": full,
        "always_delta_s": delta,
        "rule_s": rule,
    }


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=Path(__file__).resolve().parent,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


def _commit() -> str:
    """``HEAD``, marked ``+dirty`` when tracked files differ from it."""
    try:
        head = _git("rev-parse", "HEAD")
        return head + ("+dirty" if _git("status", "--porcelain", "-uno") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(out_path=None, sets=SETS, graphs=None) -> dict:
    """Record and replay every set; writes the ledger when ``out_path`` is set.

    A set whose trained model is not ``delta_capable`` (a BLAS that
    fails the ``delta_exact`` probe) is neither recorded nor replayed:
    production never takes the delta there. It is listed under
    ``skipped``.
    """
    graphs = dict(GRAPHS, **(graphs or {}))
    result = {
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "numpy": np.__version__,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "repeats": REPEATS,
        "bounds": list(BOUNDS),
        "crossover": {
            "rule": "B * K * (K - D / 2) >= DELTA_MIN_WORK",
            "DELTA_MIN_WORK": BatchedGnnVerifier.DELTA_MIN_WORK,
            "DELTA_MAX_ROWS": DELTA_MAX_ROWS,
        },
        "sets": [],
        "skipped": [],
    }
    for name, scale, mode in sets:
        model = trained(name).model
        if not model.delta_capable:
            print(f"{name} {scale} {mode}: this BLAS rounds GEMM rows by block, "
                  "the delta stays off; skipped", flush=True)
            result["skipped"].append({"dataset": name, "scale": scale, "mode": mode})
            continue
        log = record_set(model, name, scale, mode, graphs[mode])
        rows = [replay(model, g, base, removed) for g, base, removed in log]
        result["sets"].append(
            {"dataset": name, "scale": scale, "mode": mode, **summarize(rows),
             "frontier_rows": rows}
        )
        s = result["sets"][-1]
        print(
            f"{name:>14s} {scale:<5s} {mode:<5s} frontiers={s['frontiers']:4d} "
            f"rows~{s['median_rows']:6.1f} ball~{s['median_ball_fraction']:.2f} "
            f"(full graph {s['median_full_graph_fraction']:.2f}) "
            f"delta/full={s['delta_over_full']:.2f} rule/full="
            f"{s['rule_s'] / s['always_full_s'] if s['always_full_s'] else 0:.2f}",
            flush=True,
        )
    result["all_bitwise_equal"] = True  # replay() raises otherwise
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(_render(result))
    return result


def _render(result: dict) -> str:
    """Indented JSON with one compact line per frontier row."""
    sets = result["sets"]
    text = json.dumps(
        {**result, "sets": [dict(s, frontier_rows=f"@{i}") for i, s in enumerate(sets)]},
        indent=1,
    )
    for i, s in enumerate(sets):
        lines = ",\n   ".join(
            json.dumps(r, separators=(",", ":")) for r in s["frontier_rows"]
        )
        text = text.replace(f'"frontier_rows": "@{i}"', f'"frontier_rows": [\n   {lines}\n  ]')
    return text + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="results/BENCH_remainder_delta.json")
    args = parser.parse_args()
    result = run(Path(args.out))
    if result["skipped"]:
        print(f"FAIL: {len(result['skipped'])} set(s) not replayed -> {args.out}")
        return 1
    print(f"OK: every frontier bitwise equal on both paths -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
