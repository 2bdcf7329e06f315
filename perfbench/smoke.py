"""Smoke test of the benchmark itself, at test scale.

    python3 perfbench/smoke.py

For every workload in ``BENCHMARK.json`` it runs an untraced and a
traced run on the datasets' ``test`` scale and checks that the last
output line has exactly the result keys, that every declared metric is
there with its declared unit and a finite value, and that every
output check passed. It also checks that a directory holding only
``BENCHMARK.json`` and the benchmark fails without printing a result.
Exits non-zero on the first failure. Takes under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def check_result(stdout: str, declared) -> None:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, f"result keys {sorted(result)}"
    assert result["correct"] is True, "an output check failed"
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, "metric names differ"
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']}"
        assert math.isfinite(got["value"]), f"{m['name']}: {got['value']}"


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "--workload", "explain-malnet-large", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0, "a bare directory must fail"
    assert '"metrics"' not in proc.stdout, "a bare directory must print no result"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    print("bare directory: fails without a result")
    for workload in bench["workloads"]:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            proc = _run(ROOT, "--workload", workload["name"], "--seed", "3",
                        "--seconds", "2", "--trace", trace, "--scale", "test")
            if proc.returncode != 0:
                print(proc.stderr[-3000:], file=sys.stderr)
                raise SystemExit(f"{workload['name']} trace={trace}: exit {proc.returncode}")
            check_result(proc.stdout, declared)
            print(f"{workload['name']} trace={trace}: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
