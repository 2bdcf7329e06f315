"""Run one GVEX benchmark workload and print its metrics.

    python3 perfbench/run.py --workload explain-malnet-large --seed 0 \\
        --seconds 15 --trace 0

From the root of a checkout of the repository. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace
1``. Earlier lines record the environment and the run's settings.
Exits non-zero, printing no result, when the checkout holds no
program (``src/repro``) or a run cannot complete.

``--role`` selects an internal child process (training, a fresh-process
probe, the server of the serve workload); ``--record-digests`` rewrites
``perfbench/digests.json`` from seed-0 runs on this machine.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402 - needs the path above; imports no numpy


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="explain-malnet-large")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default=None,
                        help="override the workload's dataset scale (smoke runs)")
    parser.add_argument("--role", choices=("main", "train", "probe", "server"),
                        default="main")
    parser.add_argument("--record-digests", action="store_true")
    return parser.parse_args(argv)


def record_digests(scale=None) -> None:
    """Write the seed-0 view digests of every workload for this machine."""
    from perfbench.workloads import WORKLOADS, run_child, train_models

    workloads = [w.at_scale(scale) for w in WORKLOADS.values()]
    train_models(workloads)
    path = env.ROOT / "perfbench" / "digests.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    if data.get("fingerprint") != env.fingerprint():
        data = {"fingerprint": env.fingerprint(), "digests": {}}
    for w in workloads:
        data["digests"][f"{w.name}@{w.scale}"] = run_child("probe", w, 0)["digest"]
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        env.bootstrap()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS, probe, train_models

    if args.record_digests:
        record_digests(args.scale)
        return 0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"options: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload].at_scale(args.scale)
    tracer = Tracer() if args.trace else None

    if args.role == "train":
        train_models([w])
        print(json.dumps({"trained": w.dataset}))
        return 0
    if args.role == "probe":
        print(json.dumps(probe(w, args.seed)))
        return 0
    if args.role == "server":
        from perfbench.serve import serve_host

        serve_host(w, args.seed, tracer)
        return 0

    from perfbench.workloads import run_child

    run_child("train", w, args.seed, timeout=850)
    print(json.dumps({"environment": env.environment_record()}), flush=True)
    print(json.dumps({"settings": {
        "workload": w.name, "dataset": w.dataset, "scale": w.scale,
        "method": w.method, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }}), flush=True)
    if w.serve:
        from perfbench.serve import run_serve

        result = run_serve(w, args.seed, args.seconds, tracer)
    else:
        from perfbench.workloads import run_explain

        result = run_explain(w, args.seed, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(env.TRACES / f"{w.name}.jsonl")
    ledger = result["ledger"]
    if "info" in result:
        print(json.dumps({"info": result["info"]}), flush=True)
    if ledger.reasons:
        print(json.dumps({"failures": ledger.reasons}), flush=True)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result["metrics"],
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
