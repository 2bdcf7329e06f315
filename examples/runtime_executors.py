"""The `repro.runtime` execution engine: one plan, two local executors.

Builds an explain plan over the mutagenicity workload, runs it with
the serial and fork-pool executors, and shows that both produce
identical views — only the scheduling differs:

    python examples/runtime_executors.py

The same plan/executor path is what `ExplanationService.explain`,
`python -m repro.cli explain --processes N`, the bench harness, and
the HTTP `/explain` route all use (see docs/runtime.md). The third
executor, `repro.runtime.cluster.DistributedExecutor`, runs the same
plan on remote workers (see docs/distribution.md).
"""

import time

from repro.api import ExplanationService
from repro.config import GvexConfig
from repro.runtime import ForkPoolExecutor, SerialExecutor, build_plan


def fingerprint(views):
    return {
        view.label: [s.nodes for s in view.subgraphs] for view in views
    }


def main() -> None:
    svc = ExplanationService(
        "mutagenicity",
        scale="test",
        config=GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
    )
    svc.fit_or_load()

    plan = build_plan(svc.db, svc.model, svc.config, processes=2)
    print(f"plan: {plan.n_tasks} tasks in {len(plan.shards)} shard(s) "
          f"over labels {list(plan.labels)}")
    for shard in plan.shards:
        print(f"  label {shard.label}: graphs {list(shard.indices)}")

    results = {}
    for executor in (SerialExecutor(), ForkPoolExecutor(processes=2)):
        start = time.perf_counter()
        views, stats = executor.run(plan)
        seconds = time.perf_counter() - start
        results[executor.name] = views
        print(f"{executor.name:>10}: {seconds:.2f}s, "
              f"{stats['inference_calls']} inference calls, "
              f"score {views.total_score():.3f}")

    serial = fingerprint(results["serial"])
    for name, views in results.items():
        assert fingerprint(views) == serial, name
    print("both executors selected identical views")


if __name__ == "__main__":
    main()
