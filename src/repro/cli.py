"""Command-line interface — a thin shell over :mod:`repro.api`.

Everything a downstream user needs without writing Python::

    python -m repro.cli capabilities                 # Table 1
    python -m repro.cli datasets --scale test        # Table 3
    python -m repro.cli train --dataset mutagenicity --out model.npz
    python -m repro.cli explain --dataset mutagenicity --model model.npz \\
        --method gvex-approx --upper 6 --out views.json
    python -m repro.cli query --views views.json --dataset mutagenicity \\
        --pattern '{"node_types": [1, 2], "edges": [[0, 1, 0]]}'
    python -m repro.cli serve --dataset mutagenicity --views views.json \\
        --port 8080

Every subcommand drives the same :class:`repro.api.ExplanationService`
facade the examples, benchmarks, and HTTP layer use; ``--method``
accepts any name or alias from the explainer registry (``gvex-approx``,
``stream``, ``SX``, ...). The supported surface is documented in
``docs/api.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.api import (
    DEFAULT_TENANT,
    ExplanationService,
    Q,
    TenantRegistry,
    TenantSpec,
    create_server,
    explainer_names,
    pattern_from_spec,
)
from repro.api.server import DEFAULT_HOST, DEFAULT_PORT
from repro.config import GvexConfig
from repro.datasets.registry import DATASETS
from repro.datasets.statistics import statistics_table
from repro.exceptions import ReproError
from repro.graphs.pattern import Pattern
from repro.metrics.capability import capability_table

#: exposed for tests that need to discover a ``serve --port 0`` binding
_SERVE_STATE: Dict[str, object] = {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GVEX: view-based explanations for GNNs (SIGMOD 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("capabilities", help="print the Table 1 capability matrix")

    p_data = sub.add_parser("datasets", help="print Table 3 dataset statistics")
    p_data.add_argument("--scale", default="test", help="test | bench | large")
    p_data.add_argument("--seed", type=int, default=0)

    p_train = sub.add_parser("train", help="train a GCN classifier on a dataset")
    _add_dataset_args(p_train)
    p_train.add_argument("--out", required=True, help="output .npz model path")
    p_train.add_argument("--hidden", type=int, nargs="+", default=[32, 32, 32])
    p_train.add_argument("--epochs", type=int, default=150)

    p_explain = sub.add_parser("explain", help="generate explanation views")
    _add_dataset_args(p_explain)
    p_explain.add_argument("--model", help=".npz model (default: train fresh)")
    p_explain.add_argument(
        "--method",
        default="gvex-approx",
        type=str.lower,  # registry lookups are case-insensitive (SX == sx)
        choices=explainer_names(include_aliases=True),
        metavar="METHOD",
        help="registry name or alias (gvex-approx, stream, SX, ...); "
        "'approx' and 'stream' remain as aliases of the GVEX algorithms",
    )
    p_explain.add_argument("--theta", type=float, default=0.08)
    p_explain.add_argument("--radius", type=float, default=0.3)
    p_explain.add_argument("--gamma", type=float, default=0.5)
    p_explain.add_argument("--lower", type=int, default=0)
    p_explain.add_argument("--upper", type=int, default=6)
    p_explain.add_argument(
        "--labels", type=int, nargs="*", help="labels of interest (default: all)"
    )
    p_explain.add_argument(
        "--processes",
        type=int,
        default=1,
        help="fork this many warm-state workers for the explanation "
        "phase (repro.runtime fork-pool executor, §A.7)",
    )
    p_explain.add_argument("--out", required=True, help="output views .json path")

    p_query = sub.add_parser("query", help="query saved explanation views")
    _add_dataset_args(p_query)
    p_query.add_argument("--views", required=True, help="views .json path")
    p_query.add_argument(
        "--pattern",
        required=True,
        help='pattern as JSON: {"node_types": [...], "edges": [[u, v, type]...]} '
        "or a path to such a file",
    )
    p_query.add_argument(
        "--scope",
        choices=["explanations", "graphs"],
        default="explanations",
        help="match against explanation subgraphs or full source graphs",
    )
    p_query.add_argument("--label", type=int, help="restrict to one label group")

    p_serve = sub.add_parser(
        "serve", help="serve explain + query over JSON/HTTP (stdlib)"
    )
    _add_dataset_args(p_serve)
    p_serve.add_argument("--model", help=".npz model to preload")
    p_serve.add_argument("--views", help="views .json to preload")
    p_serve.add_argument("--host", default=DEFAULT_HOST)
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help="TCP port (0 picks a free one)")
    p_serve.add_argument(
        "--max-requests",
        type=int,
        default=0,
        help="exit after N requests (0 = serve forever); used by tests",
    )
    p_serve.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="bounded explain work queue capacity; submissions past it "
        "get 503 backpressure (see docs/runtime.md)",
    )
    p_serve.add_argument(
        "--auth-token",
        default=None,
        help="require 'Authorization: Bearer <token>' on POST routes "
        "(constant-time compare; GET routes stay open)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="explain worker threads draining the queue; queued explains "
        "for distinct tenants run concurrently",
    )
    p_serve.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME=DATASET[:SCALE]",
        help="register an extra serving tenant (repeatable); it "
        "materializes lazily on first request, addressed via the "
        "'tenant' field of /explain and /query",
    )
    p_serve.add_argument(
        "--max-tenants",
        type=int,
        default=4,
        help="resident (materialized) tenants kept per process; past it "
        "the least-recently-used idle tenant is evicted and rebuilds "
        "lazily on next use",
    )
    p_serve.add_argument(
        "--tenant-queue-depth",
        type=int,
        default=None,
        help="per-tenant bound on queued + in-flight explains; one hot "
        "tenant is rejected at its own limit (503, scope=tenant) while "
        "others keep being admitted",
    )

    p_coord = sub.add_parser(
        "cluster-coordinator",
        help="dispatch one explain job to a worker fleet over HTTP "
        "(repro.runtime.cluster; see docs/distribution.md)",
    )
    _add_dataset_args(p_coord)
    p_coord.add_argument("--model", help=".npz model (default: train fresh)")
    p_coord.add_argument(
        "--method",
        default="gvex-approx",
        type=str.lower,
        choices=explainer_names(include_aliases=True),
        metavar="METHOD",
    )
    p_coord.add_argument("--theta", type=float, default=0.08)
    p_coord.add_argument("--radius", type=float, default=0.3)
    p_coord.add_argument("--gamma", type=float, default=0.5)
    p_coord.add_argument("--lower", type=int, default=0)
    p_coord.add_argument("--upper", type=int, default=6)
    p_coord.add_argument("--host", default=DEFAULT_HOST)
    p_coord.add_argument("--port", type=int, default=0,
                         help="TCP port (0 picks a free one)")
    p_coord.add_argument(
        "--min-workers",
        type=int,
        default=1,
        help="wait for this many registered workers before dispatching",
    )
    p_coord.add_argument(
        "--wait",
        type=float,
        default=60.0,
        help="seconds to wait for --min-workers registrations",
    )
    p_coord.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        help="declare a worker dead after this many silent seconds "
        "(its in-flight shards re-dispatch to survivors)",
    )
    p_coord.add_argument(
        "--auth-token",
        default=None,
        help="shared bearer token for every cluster POST route",
    )
    p_coord.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="per-dispatch HTTP timeout in seconds (a shard must "
        "answer within this; default 300)",
    )
    p_coord.add_argument(
        "--retry-attempts",
        type=int,
        default=None,
        help="transient-failure dispatch attempts per shard before the "
        "circuit breaker quarantines the worker (default 3)",
    )
    p_coord.add_argument(
        "--journal",
        default=None,
        help="fsync'd shard-result journal path: every completed shard "
        "survives a coordinator crash (docs/distribution.md)",
    )
    p_coord.add_argument(
        "--resume",
        action="store_true",
        help="replay an existing --journal, skipping completed shards "
        "(refuses a journal written for a different plan)",
    )
    p_coord.add_argument("--out", required=True, help="merged views .json path")

    p_work = sub.add_parser(
        "cluster-worker",
        help="serve explain shards for a coordinator "
        "(registers, heartbeats, exits when the coordinator goes away)",
    )
    _add_dataset_args(p_work)
    p_work.add_argument(
        "--coordinator", required=True, help="coordinator base URL"
    )
    p_work.add_argument(
        "--model",
        required=True,
        help=".npz model — must be the same artifact the coordinator "
        "uses, since models never ship over the wire",
    )
    p_work.add_argument("--host", default=DEFAULT_HOST)
    p_work.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free one)")
    p_work.add_argument("--worker-id", default=None)
    p_work.add_argument("--heartbeat-interval", type=float, default=None)
    p_work.add_argument(
        "--max-missed-heartbeats",
        type=int,
        default=None,
        help="consecutive failed heartbeats before the worker presumes "
        "the coordinator gone and exits cleanly (default 3)",
    )
    p_work.add_argument(
        "--transport-timeout",
        type=float,
        default=None,
        help="HTTP timeout in seconds for register calls to the "
        "coordinator (default 30)",
    )
    p_work.add_argument("--auth-token", default=None)

    p_lint = sub.add_parser(
        "lint",
        help="run the repro.analysis invariant linter "
        "(lock discipline, fork safety, determinism, exception/wire "
        "policy; see docs/analysis.md)",
    )
    p_lint.add_argument(
        "--root",
        default=None,
        help="package directory to analyze (default: the installed "
        "repro package)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format on stdout",
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        help="baseline file of accepted findings (default: "
        "scripts/analysis_baseline.txt next to the analyzed tree, "
        "when present)",
    )
    p_lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    p_lint.add_argument(
        "--write-baseline",
        metavar="PATH",
        default=None,
        help="write the current unsuppressed findings as baseline "
        "candidates to PATH (justifications left as TODO) and exit 0",
    )
    p_lint.add_argument(
        "--out",
        default=None,
        help="also write the report (in --format) to this path",
    )

    return parser


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", required=True, choices=sorted(DATASETS), help="dataset name"
    )
    parser.add_argument("--scale", default="test")
    parser.add_argument("--seed", type=int, default=0)


def _parse_tenant(raw: str, seed: int = 0) -> TenantSpec:
    """Parse a ``--tenant NAME=DATASET[:SCALE]`` flag into a spec."""
    name, sep, rest = raw.partition("=")
    if not sep or not name or not rest:
        raise SystemExit(
            f"invalid --tenant {raw!r}: expected NAME=DATASET[:SCALE]"
        )
    dataset, sep, scale = rest.partition(":")
    if dataset not in DATASETS:
        raise SystemExit(
            f"invalid --tenant {raw!r}: unknown dataset {dataset!r} "
            f"(choose from {sorted(DATASETS)})"
        )
    return TenantSpec(
        name=name, dataset=dataset, scale=scale or "test", seed=seed
    )


def _load_pattern(spec: str) -> Pattern:
    path = Path(spec)
    raw = path.read_text() if path.exists() else spec
    return pattern_from_spec(json.loads(raw))


def _service(args, config: Optional[GvexConfig] = None) -> ExplanationService:
    return ExplanationService(
        args.dataset,
        scale=args.scale,
        seed=args.seed,
        config=config,
        hidden_dims=tuple(getattr(args, "hidden", (32, 32, 32))),
    )


def _attach_model(svc: ExplanationService, args, epochs: int = 150) -> None:
    """Load ``--model`` when given (must exist), else train in-service."""
    model_path = getattr(args, "model", None)
    if model_path:
        if not Path(model_path).exists():
            raise SystemExit(f"model file not found: {model_path}")
        svc.fit_or_load(model_path)
        return
    svc.fit_or_load(epochs=epochs)
    if svc.train_metrics is not None:
        print(
            f"trained on {args.dataset} ({args.scale}): "
            + ", ".join(f"{k}={v:.3f}" for k, v in svc.train_metrics.items())
        )


def _run_lint(args) -> int:
    """``repro lint``: exit 0 clean, 1 findings, 2 analysis failure."""
    import repro
    from repro.analysis import format_baseline, run_analysis
    from repro.exceptions import AnalysisError

    root = Path(args.root) if args.root else Path(repro.__file__).parent
    try:
        if args.write_baseline:
            report = run_analysis(root)
            Path(args.write_baseline).write_text(
                format_baseline(report.findings)
            )
            print(
                f"wrote {len({f.identity for f in report.findings})} "
                f"baseline candidate(s) to {args.write_baseline}"
            )
            return 0
        baseline: Optional[Path] = None
        if args.baseline:
            baseline = Path(args.baseline)
            if not baseline.is_file():
                raise AnalysisError(f"baseline file not found: {baseline}")
        elif not args.no_baseline:
            # <repo>/src/repro -> <repo>/scripts/analysis_baseline.txt
            default = (
                root.parent.parent / "scripts" / "analysis_baseline.txt"
            )
            if default.is_file():
                baseline = default
        report = run_analysis(root, baseline=baseline)
    except AnalysisError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    rendered = (
        json.dumps(report.to_dict(), indent=2)
        if args.format == "json"
        else report.render_text()
    )
    print(rendered)
    if args.out:
        Path(args.out).write_text(rendered + "\n")
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; a library error, or a file or flag that is not
    valid JSON, prints one ``error:`` line and exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReproError as exc:
        message = str(exc)
    except json.JSONDecodeError as exc:
        message = f"invalid JSON: {exc}"
    print("error: " + " ".join(message.split()), file=sys.stderr)
    return 2


def _run(args) -> int:
    if args.command == "lint":
        return _run_lint(args)

    if args.command == "capabilities":
        print(capability_table())
        return 0

    if args.command == "datasets":
        print(statistics_table(scale=args.scale, seed=args.seed))
        return 0

    if args.command == "train":
        svc = _service(args)
        _attach_model(svc, args, epochs=args.epochs)
        svc.model.save(args.out)
        print(f"saved model to {args.out}")
        return 0

    if args.command == "explain":
        config = GvexConfig(
            theta=args.theta, radius=args.radius, gamma=args.gamma
        ).with_bounds(args.lower, args.upper)
        svc = _service(args, config)
        _attach_model(svc, args)
        views = svc.explain(
            args.method,
            labels=args.labels if args.labels else None,
            processes=args.processes,
        )
        svc.persist(args.out)
        for view in views:
            print(
                f"label {view.label}: {len(view.subgraphs)} subgraphs, "
                f"{len(view.patterns)} patterns, f={view.score:.3f}, "
                f"compression={view.compression():.1%}"
            )
        print(f"saved views to {args.out}")
        return 0

    if args.command == "query":
        svc = _service(args)
        svc.load_views(args.views)
        pattern = _load_pattern(args.pattern)
        query = Q.pattern(pattern) & Q.in_scope(args.scope)
        if args.label is not None:
            query = query & Q.label(args.label)
        hits = svc.query(query)
        print(f"{len(hits)} match(es) for pattern ({pattern.n_nodes} nodes, "
              f"{pattern.n_edges} edges), scope={args.scope}")
        for hit in hits:
            where = "explanation" if hit.in_explanation else "graph"
            print(f"  label={hit.label} graph={hit.graph_index} ({where})")
        stats = svc.index.pattern_statistics(pattern)
        print("per-label explanation counts: "
              + ", ".join(f"{l}: {c}" for l, c in sorted(stats.items())))
        return 0

    if args.command == "serve":
        svc = _service(args)
        if args.model:
            _attach_model(svc, args)
        if args.views:
            svc.load_views(args.views)
        # the --dataset service is the pinned default tenant; --tenant
        # entries materialize lazily on first addressed request
        registry = TenantRegistry(max_residents=args.max_tenants)
        registry.add_service(DEFAULT_TENANT, svc, pinned=True)
        for raw in args.tenant:
            registry.register(_parse_tenant(raw, seed=args.seed))
        server = create_server(
            registry=registry,
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_capacity=args.queue_depth,
            tenant_queue_capacity=args.tenant_queue_depth,
            auth_token=args.auth_token,
        )
        _SERVE_STATE["server"] = server
        tenants = ", ".join(registry.names())
        print(f"serving {args.dataset} ({args.scale}) on {server.url} "
              f"[tenants: {tenants}; workers: {args.workers}]")
        print("routes: GET /health /tenants /explainers /capabilities "
              "/views | POST /explain /query")
        try:
            if args.max_requests > 0:
                # non-daemon handlers: server_close() then joins them, so
                # the final response finishes before the process exits
                server.daemon_threads = False
                for _ in range(args.max_requests):
                    server.handle_request()
            else:  # pragma: no cover - interactive loop
                server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            server.server_close()
            _SERVE_STATE.pop("server", None)
        return 0

    if args.command == "cluster-coordinator":
        from repro.runtime import build_plan
        from repro.runtime.cluster import ClusterCoordinator, DistributedExecutor

        config = GvexConfig(
            theta=args.theta, radius=args.radius, gamma=args.gamma
        ).with_bounds(args.lower, args.upper)
        if args.resume and not args.journal:
            raise SystemExit("--resume requires --journal PATH")
        svc = _service(args, config)
        _attach_model(svc, args)
        kwargs = {"auth_token": args.auth_token}
        if args.heartbeat_timeout is not None:
            kwargs["heartbeat_timeout"] = args.heartbeat_timeout
        if args.request_timeout is not None:
            kwargs["request_timeout"] = args.request_timeout
        if args.retry_attempts is not None:
            from repro.runtime.cluster import RetryPolicy

            kwargs["retry_policy"] = RetryPolicy(attempts=args.retry_attempts)
        coordinator = ClusterCoordinator(args.host, args.port, **kwargs)
        _SERVE_STATE["coordinator"] = coordinator
        with coordinator:
            print(f"coordinator on {coordinator.url} "
                  f"[dataset: {args.dataset} ({args.scale})]", flush=True)
            coordinator.wait_for_workers(args.min_workers, timeout=args.wait)
            plan = build_plan(
                svc.db, svc.model, config, method=args.method, seed=args.seed
            )
            journal = None
            if args.journal:
                from repro.runtime.cluster import ShardJournal

                if not args.resume and Path(args.journal).exists():
                    # a fresh (non-resume) run must not inherit records
                    Path(args.journal).unlink()
                journal = ShardJournal.for_plan(args.journal, plan)
                if args.resume:
                    print(
                        f"resume: {len(journal.completed)} shard(s) "
                        f"replayed from {args.journal} "
                        f"({journal.skipped} line(s) skipped)"
                    )
                views, stats = coordinator.run(plan, journal=journal)
                journal.close()
            else:
                views, stats = DistributedExecutor(coordinator).run(plan)
            from repro.graphs.io import save_views

            save_views(views, args.out)
            for view in views:
                print(
                    f"label {view.label}: {len(view.subgraphs)} subgraphs, "
                    f"{len(view.patterns)} patterns, f={view.score:.3f}"
                )
            print(
                f"completed {stats['shards']} shard(s) via "
                f"{stats['workers_used']} worker(s), "
                f"re-dispatched {stats['redispatched']}, "
                f"resumed {stats.get('resumed', 0)}; "
                f"saved views to {args.out}"
            )
        _SERVE_STATE.pop("coordinator", None)
        return 0

    if args.command == "cluster-worker":
        from repro.datasets import load_dataset
        from repro.gnn.model import GnnClassifier
        from repro.runtime.cluster import ClusterWorker

        if not Path(args.model).exists():
            raise SystemExit(f"model file not found: {args.model}")
        db = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        model = GnnClassifier.load(args.model)
        kwargs = {
            "host": args.host,
            "port": args.port,
            "worker_id": args.worker_id,
            "auth_token": args.auth_token,
        }
        if args.heartbeat_interval is not None:
            kwargs["heartbeat_interval"] = args.heartbeat_interval
        if args.max_missed_heartbeats is not None:
            kwargs["max_missed_heartbeats"] = args.max_missed_heartbeats
        if args.transport_timeout is not None:
            kwargs["transport_timeout"] = args.transport_timeout
        worker = ClusterWorker(db, model, args.coordinator, **kwargs)
        _SERVE_STATE["worker"] = worker
        with worker:
            print(f"worker {worker.worker_id} on {worker.url} -> "
                  f"{worker.coordinator_url}", flush=True)
            try:
                worker.join()
            except KeyboardInterrupt:  # pragma: no cover - interactive only
                pass
        print(f"worker {worker.worker_id} exited after "
              f"{worker.shards_run} shard(s)")
        _SERVE_STATE.pop("worker", None)
        return 0

    return 1  # pragma: no cover - argparse enforces valid commands


if __name__ == "__main__":
    sys.exit(main())
