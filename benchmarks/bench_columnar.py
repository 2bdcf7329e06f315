"""Columnar tier: context-build throughput, small-host crossover, stacked forwards.

Three measurements back the columnar CSR storage claims
(``docs/columnar.md``):

* **context build** — building every ``MatchContext`` of a full label
  group (rows + the group's complete signature-count table) through
  the shared :class:`~repro.graphs.columnar.ColumnarGroup` vs a
  faithful replica of the pre-columnar per-edge Python loops. The
  acceptance bar is >= 3x group throughput on the synthetic
  full-scale group (the test-scale dataset groups are reported
  alongside; content-key digests are memoized on the graphs in both
  arms, as they are in steady state).
* **host-size crossover** — per-call ``find_isomorphisms`` against the
  seed VF2 of :mod:`repro.reference` on hosts of 8 to 5000 nodes: one
  64-bit word up to 64 nodes, several words at 128, 256 and 1500, and
  rows built per node on first use past the 4096-node lazy threshold.
  Three production arms: ``ad_hoc`` is the call as actually dispatched
  (plan-cache mediated — the reps include the single cold context/plan
  build, then the steady cache-hit state), ``fresh`` pays a context +
  plan build on every call (the regime that motivated the old
  ``SMALL_HOST_NODES = 24`` delegation), and ``warm`` reuses prebuilt
  state (pure enumeration). The acceptance bar — production >= 1.0x
  reference on hosts of <= 24 nodes — applies to the ``ad_hoc`` arm,
  which is why the delegation threshold is gone.
* **stacked forward** — one whole-shard GNN forward per size bucket
  (``predict_proba_db`` fed by the columnar mirror) vs the per-graph
  ``predict_proba`` loop, bit-identical by assertion.

Results land in ``results/BENCH_columnar.json``::

    PYTHONPATH=src python benchmarks/bench_columnar.py \\
        --out results/BENCH_columnar.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # direct `python benchmarks/bench_columnar.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import SEED, trained
from repro import reference
from repro.graphs.columnar import ColumnarDatabase
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.context import MatchContext, MatchPlan
from repro.matching.isomorphism import find_isomorphisms

#: label-group datasets of the context-build claim
DATASETS = ("mutagenicity", "enzymes")

#: context-build acceptance bar (full group, rows + sig table)
MIN_BUILD_SPEEDUP = 3.0

#: crossover host sizes: one word up to 64 nodes (the old delegation
#: threshold sat at 24), multi-word rows at 128/256/1500, and 5000
#: nodes past the lazy-row threshold
HOST_SIZES = (8, 12, 16, 24, 32, 48, 64, 128, 256, 1500, 5000)

#: hosts at or below this size carry the >= 1.0x acceptance bar
SMALL_HOST_BAR = 24


# ----------------------------------------------------------------------
# context build: columnar group vs the pre-columnar per-edge loops
# ----------------------------------------------------------------------
class LegacyContextBuild:
    """Replica of the pre-columnar ``MatchContext`` construction.

    Copied from the PR-5 implementation: degrees via a per-node
    ``fromiter``, packed rows via one Python loop over the edge dict,
    and each signature-count array via its own full pass over the edge
    dict. Kept here (not in the library) purely as the bench baseline.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        n = graph.n_nodes
        self.n = n
        self.words = (n + 63) >> 6
        self.node_types = np.asarray(graph.node_types, dtype=np.int64)
        self.degrees = np.fromiter(
            (graph.degree(v) for v in range(n)), dtype=np.int64, count=n
        )
        self.all_rows = np.zeros((n, self.words), dtype=np.uint64)
        for (u, v) in graph.edge_types:
            self.all_rows[u, v >> 6] |= np.uint64(1 << (v & 63))
            self.all_rows[v, u >> 6] |= np.uint64(1 << (u & 63))
        self.sig = {}

    def sig_counts(self, key) -> np.ndarray:
        counts = self.sig.get(key)
        if counts is None:
            _, etype, ntype = key
            counts = np.zeros(self.n, dtype=np.int64)
            for (u, v), t in self.graph.edge_types.items():
                if t != etype:
                    continue
                if self.node_types[v] == ntype:
                    counts[u] += 1
                if self.node_types[u] == ntype:
                    counts[v] += 1
            self.sig[key] = counts
        return counts


def group_sig_keys(graphs) -> list:
    """Every undirected signature key occurring in a graph group."""
    etypes = sorted({t for g in graphs for t in g.edge_types.values()})
    ntypes = sorted({int(t) for g in graphs for t in g.node_types})
    return [("", e, n) for e in etypes for n in ntypes]


def build_legacy(graphs, keys):
    out = []
    for g in graphs:
        ctx = LegacyContextBuild(g)
        for key in keys:
            ctx.sig_counts(key)
        out.append(ctx)
    return out


def build_columnar(graphs, keys):
    col = ColumnarDatabase.from_graphs(graphs)
    out = []
    for i, g in enumerate(graphs):
        ctx = MatchContext(g, columnar=col.slice_of(i))
        ctx.rows("all")  # the rows the legacy build packs eagerly
        for key in keys:
            ctx.sig_counts(key)
        out.append(ctx)
    return out


def synthetic_label_group(
    n_graphs: int = 48, seed: int = SEED, n_types: int = 4, e_types: int = 3
):
    """A full-scale label group: BA-style typed graphs of 32-64 nodes.

    The test-scale dataset groups are a handful of tiny graphs, which
    under-represents the per-edge loops' cost; this is the group shape
    the >= 3x context-build claim is about (ENZYMES-sized members, a
    realistic type alphabet).
    """
    from repro.graphs.generators import barabasi_albert
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed)
    graphs = []
    for _ in range(n_graphs):
        n = int(rng.integers(32, 65))
        base = barabasi_albert(n, m=3, seed=rng)
        g = Graph(rng.integers(0, n_types, size=n))
        for u, v, _ in base.edges():
            g.add_edge(u, v, int(rng.integers(0, e_types)))
        graphs.append(g)
    return graphs


def context_build_case(label: str, graphs, rounds: int = 5) -> dict:
    """Full-group context-build throughput, both construction paths."""
    keys = group_sig_keys(graphs)

    # parity first: both paths must produce identical tables
    legacy = build_legacy(graphs, keys)
    columnar = build_columnar(graphs, keys)
    for a, b in zip(legacy, columnar):
        assert np.array_equal(a.degrees, b.degrees)
        rows = b.rows("all")
        for v in range(a.n):
            packed = a.all_rows[v].astype("<u8").tobytes()
            assert int.from_bytes(packed, "little") == rows[v]
        for key in keys:
            assert np.array_equal(a.sig_counts(key), b.sig_counts(key))

    timings = {}
    for arm, builder in (("legacy", build_legacy), ("columnar", build_columnar)):
        start = time.perf_counter()
        for _ in range(rounds):
            builder(graphs, keys)
        timings[arm] = (time.perf_counter() - start) / rounds
    return {
        "group": label,
        "graphs": len(graphs),
        "edges": sum(g.n_edges for g in graphs),
        "sig_keys": len(keys),
        "rounds": rounds,
        "legacy_s": round(timings["legacy"], 4),
        "columnar_s": round(timings["columnar"], 4),
        "legacy_graphs_per_s": round(len(graphs) / timings["legacy"], 1),
        "columnar_graphs_per_s": round(len(graphs) / timings["columnar"], 1),
        "speedup": round(timings["legacy"] / timings["columnar"], 2),
    }


def dataset_group(name: str):
    """The largest truth-label group of one dataset, as graphs."""
    setup = trained(name)
    groups = setup.db.label_groups()
    label = max(groups, key=lambda l: len(groups[l]))
    return [setup.db[i] for i in groups[label]]


# ----------------------------------------------------------------------
# host-size crossover: per-call matching, context build priced in
# ----------------------------------------------------------------------
def crossover_host(n_nodes: int, seed: int):
    """A typed BA-style host plus neighborhood patterns to match.

    Patterns are hub stars of 3, 4, 4 and 5 nodes; hosts above 256
    nodes drop the 5-node star, whose embeddings around the big hubs
    run into the millions.
    """
    from repro.graphs.generators import barabasi_albert
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed)
    base = barabasi_albert(n_nodes, m=2, seed=rng)
    host = Graph(rng.integers(0, 3, size=n_nodes))
    for u, v, t in base.edges():
        host.add_edge(u, v, t)
    hubs = sorted(host.nodes(), key=host.degree, reverse=True)
    patterns = []
    for hub, size in zip(hubs, (3, 4, 4, 5) if n_nodes <= 256 else (3, 4, 4)):
        hood = [hub] + sorted(host.all_neighbors(hub))[: size - 1]
        if host.is_connected_subset(hood):
            patterns.append(Pattern.from_induced(host, hood))
    return host, patterns


def crossover_case(sizes=HOST_SIZES, reps: int = 40, seed: int = SEED) -> list:
    """Production-vs-reference per call: ad-hoc (cache-mediated), fresh,
    warm. Hosts above 64 nodes run ``reps // 8`` reps (at least 2)."""
    from repro.matching.plan_cache import PLAN_CACHE

    rows = []
    for n in sizes:
        host, patterns = crossover_host(n, seed)
        host_reps = reps if n <= 64 else max(2, reps // 8)

        def run_reference():
            count = 0
            for p in patterns:
                for _ in reference.find_isomorphisms(p, host):
                    count += 1
            return count

        def run_ad_hoc():
            # the call as dispatched: host context and plan come from
            # the process-wide plan cache
            count = 0
            for p in patterns:
                for _ in find_isomorphisms(p, host):
                    count += 1
            return count

        def run_fresh():
            # every call pays context + plan anew — the regime behind
            # the old SMALL_HOST_NODES delegation
            count = 0
            for p in patterns:
                ctx = MatchContext(host)
                plan = MatchPlan(p)
                for _ in find_isomorphisms(p, host, context=ctx, plan=plan):
                    count += 1
            return count

        warm_ctx = MatchContext(host)
        warm_plans = [MatchPlan(p) for p in patterns]

        def run_warm():
            count = 0
            for p, plan in zip(patterns, warm_plans):
                for _ in find_isomorphisms(p, host, context=warm_ctx, plan=plan):
                    count += 1
            return count

        arms = {}
        counts = {}
        for arm, fn in (
            ("reference", run_reference),
            ("ad_hoc", run_ad_hoc),
            ("fresh", run_fresh),
            ("warm", run_warm),
        ):
            counts[arm] = fn()  # parity probe (outside the timer)
            if arm == "ad_hoc":
                # time the true ad-hoc profile: one cold build on the
                # first rep, cache hits on the rest
                PLAN_CACHE.clear()
            start = time.perf_counter()
            for _ in range(host_reps):
                fn()
            arms[arm] = (time.perf_counter() - start) / host_reps
        for arm in ("ad_hoc", "fresh", "warm"):
            assert counts[arm] == counts["reference"], arm
        rows.append(
            {
                "host_nodes": n,
                "host_edges": host.n_edges,
                "lazy_rows": n > MatchContext.LAZY_ROW_THRESHOLD,
                "reps": host_reps,
                "patterns": len(patterns),
                "matches": counts["reference"],
                "reference_ms": round(arms["reference"] * 1e3, 4),
                "ad_hoc_ms": round(arms["ad_hoc"] * 1e3, 4),
                "fresh_ms": round(arms["fresh"] * 1e3, 4),
                "warm_ms": round(arms["warm"] * 1e3, 4),
                "ad_hoc_speedup": round(arms["reference"] / arms["ad_hoc"], 2),
                "fresh_speedup": round(arms["reference"] / arms["fresh"], 2),
                "warm_speedup": round(arms["reference"] / arms["warm"], 2),
            }
        )
    return rows


# ----------------------------------------------------------------------
# stacked whole-shard forwards vs the per-graph loop
# ----------------------------------------------------------------------
def stacked_forward_case(name: str, rounds: int = 5) -> dict:
    setup = trained(name)
    graphs = list(setup.db.graphs)
    model = setup.model
    col = setup.db.columnar()

    stacked = model.predict_proba_db(graphs, columnar=col)
    serial = [model.predict_proba(g) for g in graphs]
    for i in range(len(graphs)):
        assert np.array_equal(stacked[i], serial[i]), i

    timings = {}
    for arm, fn in (
        ("per_graph", lambda: [model.predict_proba(g) for g in graphs]),
        ("stacked", lambda: model.predict_proba_db(graphs, columnar=col)),
    ):
        start = time.perf_counter()
        for _ in range(rounds):
            fn()
        timings[arm] = (time.perf_counter() - start) / rounds
    return {
        "dataset": name,
        "graphs": len(graphs),
        "rounds": rounds,
        "per_graph_s": round(timings["per_graph"], 4),
        "stacked_s": round(timings["stacked"], 4),
        "speedup": round(timings["per_graph"] / timings["stacked"], 2),
        "bit_identical": True,
    }


# ----------------------------------------------------------------------
def run(out_path: Path) -> dict:
    result = {
        "bench": "columnar",
        "seed": SEED,
        "min_build_speedup": MIN_BUILD_SPEEDUP,
        "small_host_bar": SMALL_HOST_BAR,
        "context_build": [
            context_build_case("synthetic-full", synthetic_label_group())
        ]
        + [
            context_build_case(name, dataset_group(name))
            for name in DATASETS
        ],
        "crossover": crossover_case(),
        "stacked_forward": [
            stacked_forward_case(name) for name in DATASETS
        ],
    }
    # the throughput bar applies to the full-scale synthetic group; the
    # tiny dataset test-split groups are reported for context only
    result["best_build_speedup"] = result["context_build"][0]["speedup"]
    result["min_small_host_ad_hoc_speedup"] = min(
        row["ad_hoc_speedup"]
        for row in result["crossover"]
        if row["host_nodes"] <= SMALL_HOST_BAR
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/BENCH_columnar.json")
    args = parser.parse_args()
    result = run(Path(args.out))
    failures = []
    if result["best_build_speedup"] < MIN_BUILD_SPEEDUP:
        failures.append(
            f"context-build speedup {result['best_build_speedup']:.2f}x "
            f"< {MIN_BUILD_SPEEDUP}x"
        )
    if result["min_small_host_ad_hoc_speedup"] < 1.0:
        failures.append(
            "production matcher below reference on a host <= "
            f"{SMALL_HOST_BAR} nodes "
            f"({result['min_small_host_ad_hoc_speedup']:.2f}x)"
        )
    for line in failures:
        print(f"FAIL: {line}")
    if failures:
        return 1
    print(
        f"OK: context build {result['best_build_speedup']:.2f}x, "
        f"small-host ad-hoc floor "
        f"{result['min_small_host_ad_hoc_speedup']:.2f}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
