"""Smoke test of the benchmark harness at tiny sizes.

    python3 hardybench/smoke.py

Runs the `smoke` workload (construct K=2, verify on the frozen K=3
config, and the three table commands at small sizes) with --trace 0 and
--trace 1, and checks that each run is correct and prints every metric
BENCHMARK.json names, by name with its unit, both on a text line and in
the final JSON object.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(trace: int, entries: list[dict]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "hardybench" / "run.py"), "--workload", "smoke",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"trace {trace}: exit code {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"trace {trace}: run not correct: {lines[-1]}\n{proc.stderr}")
    if not any(line.startswith("failed_ops: ") and " ratio " in line for line in lines):
        problems.append(f"trace {trace}: no failed_ops line")
    if set(result["metrics"]) != {e["name"] for e in entries}:
        problems.append(f"trace {trace}: metric names differ from BENCHMARK.json")
    for e in entries:
        name, unit = e["name"], e["unit"]
        got = result["metrics"].get(name)
        if (got is None or set(got) != {"value", "unit"} or got["unit"] != unit
                or not isinstance(got["value"], (int, float))):
            problems.append(f"trace {trace}: {name} reported as {got}, expected unit {unit}")
        if not any(line.lstrip().startswith(f"{name}: ") and f" {unit}" in line for line in lines[:-1]):
            problems.append(f"trace {trace}: no text line gives {name} with unit {unit}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_run(0, spec["end_to_end"]) + check_run(1, spec["per_layer"])
    for p in problems:
        print(f"FAIL {p}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
