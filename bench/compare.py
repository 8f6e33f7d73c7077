"""Before/after numbers for two hardyshift checkouts, written as one BENCH_*.json.

    python3 bench/compare.py --parent PARENT_CHECKOUT --change . --out BENCH_4.json

Four parts, each run on both checkouts with this same script:

* in-process CPU and wall time of `ConstructionConfig.plan` (alpha 1,
  delta 0.5, K = 3..8), of `verify_f_conditions` /
  `verify_theorem_conditions` (eps 2) on the frozen K = 8 config, and of
  `verify_theorem_conditions` (eps 0.004) on the frozen K = 4, delta 1e-3
  config, the two `verify` runs of the `certify` workload; each in a
  fresh interpreter with the checkout's `src` first on the path, the two
  checkouts alternating, REPS times;
* cold-start wall time of `python -c "import hardyshift.cli"` and of the
  `weights`, `orbit`, `curvature` and `construct --K 2` commands on the
  frozen K = 3 config, each a fresh process, the two checkouts
  alternating, COLD_REPS times;
* the per-layer counts of `hardybench/run.py --trace 1` on the `search`
  and `certify` workloads, from each checkout's own `hardybench`;
* PAIRS alternating end-to-end runs of `hardybench/run.py --trace 0` per
  workload, each as long as `run_seconds` in the change's BENCHMARK.json,
  with medians and quartiles.

Each side is identified by its commit and by `src_digest`, a sha256 over
its `src/**/*.py` files, so the measured trees can be told apart even when
one of them is uncommitted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

K8_STARTS = (3, 32, 117, 343, 906, 2248, 5368, 12479)
# frozen verify configs by K: (delta, spike starts, epsilon)
VERIFY_CONFIGS = {8: (0.5, K8_STARTS, 2.0),
                  4: (1e-3, (2549, 16580, 59309, 172510), 0.004)}
PLAN_KS = (3, 4, 5, 6, 7, 8)
WORKLOADS = ("search", "certify", "tables")
REPS = 3  # in-process timings per job and side
PAIRS = 10  # alternating end-to-end runs per workload
COLD_REPS = 7  # cold-start timings per command and side


def child(kind: str, k: int) -> None:
    """Time one in-process call; print {"cpu_s", "wall_s", "result"}."""
    # checkouts that import scipy on first use would count the import in
    # the timed call; cold starts have their own job
    import scipy.integrate  # noqa: F401
    import scipy.special  # noqa: F401
    from hardyshift.construction import (ConstructionConfig, verify_f_conditions,
                                         verify_theorem_conditions)

    if kind == "plan":
        call = lambda: list(ConstructionConfig.plan(1.0, 0.5, k).spike_starts)  # noqa: E731
    else:
        delta, starts, epsilon = VERIFY_CONFIGS[k]
        config = ConstructionConfig(alpha=1.0, delta=delta, n_spikes=k, spike_starts=starts)
        if kind == "verify_f":
            call = lambda: verify_f_conditions(config).passed  # noqa: E731
        else:
            call = lambda: verify_theorem_conditions(config, epsilon).passed  # noqa: E731
    c0, t0 = time.process_time(), time.perf_counter()
    result = call()
    print(json.dumps({"cpu_s": time.process_time() - c0,
                      "wall_s": time.perf_counter() - t0, "result": result}))


def run_child(checkout: Path, kind: str, k: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, __file__, "--child", kind, str(k)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cold_commands(work: Path) -> dict[str, list[str]]:
    """Interpreter arguments of each cold-start job, on the frozen K = 3 config."""
    config = work / "k3.json"
    config.write_text(json.dumps({"alpha": 1.0, "delta": 0.5, "K": 3,
                                  "spike_starts": list(K8_STARTS[:3]),
                                  "r_max": 0.999, "tol": 1e-9}))
    cli = ["-m", "hardyshift.cli"]
    out = ["--out", str(work / "out")]
    return {"import": ["-c", "import hardyshift.cli"],
            "weights": [*cli, "weights", str(config), *out],
            "orbit": [*cli, "orbit", str(config), "130", *out],
            "curvature": [*cli, "curvature", str(config), *out],
            "construct_K2": [*cli, "construct", "--alpha", "1", "--delta", "0.5",
                             "--K", "2", *out]}


def run_cold(checkout: Path, args: list[str]) -> float:
    """Wall seconds of one fresh interpreter running args on the checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
    return time.perf_counter() - t0


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(checkout / "hardybench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=checkout, capture_output=True, text=True, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], "failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def src_digest(checkout: Path) -> str:
    """sha256 over (relative path, NUL, bytes, NUL) of each src/**/*.py, sorted by path."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def identify(checkout: Path) -> dict:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "src"], cwd=checkout,
                           capture_output=True, text=True).stdout.strip()
    return {"head": head, "src_uncommitted": bool(dirty), "src_digest": src_digest(checkout)}


def summary(samples: list[float]) -> dict:
    q1, q2, q3 = quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": median(samples), "q1": q1, "q3": q3, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", nargs=2, metavar=("KIND", "K"), help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child[0], int(args.child[1]))
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = json.loads((sides["change"] / "BENCHMARK.json").read_text())["run_seconds"]

    inprocess = {side: {} for side in sides}
    jobs = [("plan", k) for k in PLAN_KS] + [("verify_f", 8), ("verify_theorem", 8),
                                              ("verify_theorem", 4)]
    for rep in range(REPS):
        order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
        for kind, k in jobs:
            for side in order:
                res = run_child(sides[side], kind, k)
                slot = inprocess[side].setdefault(f"{kind}_K{k}", {"cpu_s": [], "wall_s": []})
                slot["cpu_s"].append(res["cpu_s"])
                slot["wall_s"].append(res["wall_s"])
                slot["result"] = res["result"]
                print(f"{side} {kind} K={k}: cpu {res['cpu_s']:.3f} s", flush=True)
    for side in sides:
        for slot in inprocess[side].values():
            slot["cpu_s"] = summary(slot["cpu_s"])
            slot["wall_s"] = summary(slot["wall_s"])

    cold = {side: {} for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        commands = cold_commands(Path(tmp))
        for rep in range(COLD_REPS):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            for name, cmd in commands.items():
                for side in order:
                    cold[side].setdefault(name, []).append(run_cold(sides[side], cmd))
    for side in sides:
        cold[side] = {name: summary(vals) for name, vals in cold[side].items()}
        print(f"{side} cold start: "
              + ", ".join(f"{n} {s['median']:.3f} s" for n, s in cold[side].items()), flush=True)

    traced = {side: {w: run_bench(path, w, 1, seconds, 1) for w in ("search", "certify")}
              for side, path in sides.items()}

    end_to_end = {}
    for w in WORKLOADS:
        runs = {side: [] for side in sides}
        for pair in range(PAIRS):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs[side].append(run_bench(sides[side], w, 101 + pair, seconds, 0))
                print(f"{side} {w} pair {pair}: {runs[side][-1]['metrics']}", flush=True)
        names = runs["parent"][0]["metrics"]
        end_to_end[w] = {
            side: {"correct": all(r["correct"] for r in rs),
                   **{n: summary([r["metrics"][n] for r in rs]) for n in names}}
            for side, rs in runs.items()}
        wins = sum(c["metrics"]["wall_s"] < p["metrics"]["wall_s"]
                   for p, c in zip(runs["parent"], runs["change"]))
        end_to_end[w]["wall_s_change_wins"] = f"{wins}/{PAIRS}"

    args.out.write_text(json.dumps({
        "script": "bench/compare.py",
        "settings": {"reps": REPS, "cold_reps": COLD_REPS, "pairs": PAIRS,
                     "seconds": seconds},
        "commits": {side: identify(path) for side, path in sides.items()},
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count(), "loadavg_end": list(os.getloadavg())},
        "inprocess": inprocess,
        "cold_start_wall_s": cold,
        "traced": traced,
        "end_to_end": end_to_end,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
