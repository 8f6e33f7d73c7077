"""Before/after numbers for two hardyshift checkouts, written as one BENCH_*.json.

    python3 bench/compare.py --parent PARENT_CHECKOUT --change . --out BENCH_5.json

Six parts, each run on both checkouts with this same script:

* output identity: every command of the `search`, `certify` and
  `tables` workloads (from the change's `hardybench/workloads.py`, verify
  seed 1), `lemma` and `construct --K 2`, run once per checkout; every
  output file and stdout must be byte-identical, manifests compared as
  JSON without `elapsed_seconds`; for each CSV that is not, per column,
  the count of moved cells, the first 20 with their old and new text,
  and the largest relative move, and for each JSON file or manifest that
  is not, the leaf paths added, removed and changed;
* in-process CPU and wall time of `ConstructionConfig.plan` (alpha 1,
  delta 0.5, K = 3..8), of `verify_f_conditions` /
  `verify_theorem_conditions` (eps 2) on the frozen K = 8 config, and of
  `verify_theorem_conditions` (eps 0.004) on the frozen K = 4, delta 1e-3
  config, the two `verify` runs of the `certify` workload, and of
  `verify_f_conditions` on the K = 8, delta 1e-6 config, whose powers
  reach 6.2e9; jobs are named `<kind>_<config>`; each in a
  fresh interpreter with the checkout's `src` first on the path, the two
  checkouts alternating, REPS times;
* in-process layer timings on the frozen K = 8 config, as microseconds
  per call (after one untimed call): `RadialSeries.eval` of the kernel
  ratio at 1 point and at 1000 points, `ratio_log_laplacian` at 1 point,
  and `radial_carleson_norm` of `SeriesGapDensity` on the float Laplacian
  series of f - 1 (a fresh density per call, so sign roots included; the
  `laplacian_carleson` row itself reads `laplacian_masses` of f - 1), and
  `kernel_ratio_series` (building f and checking it against the weights)
  on the frozen K = 8 and K = 4, delta 1e-3 configs; same fresh
  interpreters and alternation;
* cold-start wall time and CPU time (user + system, from the child's
  rusage) of `python -c "import hardyshift.cli"` and of the
  `weights`, `orbit`, `curvature`, `construct --K 2`, `lemma` and
  `verify --epsilon 2` commands on the frozen K = 3 config, of
  `verify --epsilon 0.004` on the frozen K = 4, delta 1e-3 config (the
  slower `certify` command), and of `construct --K 6` (delta 0.5, the
  first command of the `search` workload), each a fresh process, the two
  checkouts alternating, COLD_REPS times; plus, per job and checkout, one
  untimed run under `-X importtime` that records whether the process
  imported numpy;
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
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

K8_STARTS = (3, 32, 117, 343, 906, 2248, 5368, 12479)
# frozen verify configs by name: (delta, spike starts, epsilon); K8_delta1e-6
# holds the minimal starts `construct --alpha 1 --delta 1e-6 --K 8` selects,
# powers up to 6.2e9 that no workload reaches
VERIFY_CONFIGS = {"K8": (0.5, K8_STARTS, 2.0),
                  "K4": (1e-3, (2549, 16580, 59309, 172510), 0.004),
                  "K8_delta1e-6": (1e-6, (2551008, 16581563, 59310981, 172512049, 453601462,
                                          1124756247, 2684818434, 6240348396), 4e-6)}
PLAN_KS = (3, 4, 5, 6, 7, 8)
WORKLOADS = ("search", "certify", "tables")
REPS = 7  # in-process timings per job and side
# layer timings: calls per timed loop
LAYER_CALLS = {"eval_1pt": 20000, "eval_1000pt": 2000, "ratio_log_laplacian_1pt": 5000,
               "radial_carleson_norm_laplacian": 50, "kernel_ratio": 20}
LEMMA_POWERS = ("1", "2", "10", "2248", "172510", "416216560", "1124756484", str(2 ** 40 + 16))
PAIRS = 10  # alternating end-to-end runs per workload
COLD_REPS = 7  # cold-start timings per command and side


def child(kind: str, key: str) -> None:
    """Time one in-process call; print {"cpu_s", "wall_s", "result"}.  key is
    K<k> for `plan` and a VERIFY_CONFIGS name otherwise."""
    from hardyshift.construction import (ConstructionConfig, verify_f_conditions,
                                         verify_theorem_conditions)

    if kind in LAYER_CALLS:
        layer(kind, key)
        return
    if kind == "plan":
        k = int(key.removeprefix("K"))
        call = lambda: list(ConstructionConfig.plan(1.0, 0.5, k).spike_starts)  # noqa: E731
    else:
        delta, starts, epsilon = VERIFY_CONFIGS[key]
        config = ConstructionConfig(alpha=1.0, delta=delta, n_spikes=len(starts),
                                    spike_starts=starts)
        if kind == "verify_f":
            call = lambda: verify_f_conditions(config).passed  # noqa: E731
        else:
            call = lambda: verify_theorem_conditions(config, epsilon).passed  # noqa: E731
    c0, t0 = time.process_time(), time.perf_counter()
    result = call()
    print(json.dumps({"cpu_s": time.process_time() - c0,
                      "wall_s": time.perf_counter() - t0, "result": result}))


def layer(kind: str, key: str) -> None:
    """Time LAYER_CALLS[kind] calls of one layer; print {"cpu_s", "wall_s", "us_per_call", "result"}."""
    import numpy as np
    from hardyshift.carleson import SeriesGapDensity, radial_carleson_norm
    from hardyshift.construction import ConstructionConfig
    from hardyshift.series import RadialSeries
    from hardyshift.spectral import kernel_ratio_series, ratio_log_laplacian

    delta, starts, _ = VERIFY_CONFIGS[key]
    config = ConstructionConfig(alpha=1.0, delta=delta, n_spikes=len(starts), spike_starts=starts)
    f = kernel_ratio_series(config.weights(), r_max=config.r_max, tol=config.tol)
    if kind == "eval_1pt":
        call = lambda: f.eval(0.998)  # noqa: E731
    elif kind == "eval_1000pt":
        s = np.linspace(0.0, 0.998, 1000)
        call = lambda: float(f.eval(s).sum())  # noqa: E731
    elif kind == "ratio_log_laplacian_1pt":
        call = lambda: ratio_log_laplacian(f, 0.999)  # noqa: E731
    elif kind == "kernel_ratio":
        w = config.weights()
        call = lambda: len(kernel_ratio_series(w, r_max=config.r_max, tol=config.tol))  # noqa: E731
    else:
        lap = f.add(RadialSeries.from_terms([(0, -1.0)])).laplacian()
        call = lambda: radial_carleson_norm(SeriesGapDensity(lap, 1))  # noqa: E731
    result = call()
    n = LAYER_CALLS[kind]
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(n):
        call()
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    print(json.dumps({"cpu_s": cpu, "wall_s": wall, "us_per_call": 1e6 * wall / n,
                      "result": result}))


def run_child(checkout: Path, kind: str, key: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, __file__, "--child", kind, key], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cold_commands(work: Path) -> dict[str, list[str]]:
    """Interpreter arguments of each cold-start job, on the frozen K = 3 config
    (and, for `verify_eps0.004_K4`, the frozen K = 4, delta 1e-3 config)."""
    config, small_delta = work / "k3.json", work / "k4_small_delta.json"
    config.write_text(json.dumps({"alpha": 1.0, "delta": 0.5, "K": 3,
                                  "spike_starts": list(K8_STARTS[:3]),
                                  "r_max": 0.999, "tol": 1e-9}))
    delta, starts, epsilon = VERIFY_CONFIGS["K4"]
    small_delta.write_text(json.dumps({"alpha": 1.0, "delta": delta, "K": 4,
                                       "spike_starts": list(starts),
                                       "r_max": 0.999, "tol": 1e-9}))
    cli = ["-m", "hardyshift.cli"]
    out = ["--out", str(work / "out")]
    return {"import": ["-c", "import hardyshift.cli"],
            "weights": [*cli, "weights", str(config), *out],
            "orbit": [*cli, "orbit", str(config), "130", *out],
            "curvature": [*cli, "curvature", str(config), *out],
            "construct_K2": [*cli, "construct", "--alpha", "1", "--delta", "0.5",
                             "--K", "2", *out],
            "construct_K6": [*cli, "construct", "--alpha", "1", "--delta", "0.5",
                             "--K", "6", *out],
            "lemma": [*cli, "lemma", *LEMMA_POWERS, *out],
            "verify_eps2": [*cli, "verify", str(config), "--epsilon", "2", *out],
            "verify_eps0.004_K4": [*cli, "verify", str(small_delta), "--epsilon",
                                   str(epsilon), *out]}


def identity_commands(change: Path, work: Path) -> dict[str, list[str]]:
    """CLI arguments (without --out) of each command of the output-identity job."""
    spec = importlib.util.spec_from_file_location(
        "hardybench_workloads", change / "hardybench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    configs = {}
    for key, cfg in workloads.CONFIGS.items():
        configs[f"{{config:{key}}}"] = str(work / f"{key}.json")
        (work / f"{key}.json").write_text(json.dumps(cfg))
    commands = {op.label: [configs.get(a, a).replace("{seed}", "1") for a in op.args]
                for w in WORKLOADS for op in workloads.WORKLOADS[w].ops}
    commands["lemma"] = ["lemma", *LEMMA_POWERS]
    commands["construct-K2"] = ["construct", "--alpha", "1", "--delta", "0.5", "--K", "2"]
    return commands


def output_differences(left: Path, right: Path) -> list[str]:
    """Files that differ between two output directories (manifests without elapsed_seconds)."""
    names = sorted({p.name for p in left.iterdir()} | {p.name for p in right.iterdir()})
    diffs = []
    for name in names:
        a, b = left / name, right / name
        if not (a.exists() and b.exists()):
            diffs.append(f"{name}: only on one side")
        elif name.endswith("_manifest.json"):
            ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
            ja.pop("elapsed_seconds", None)
            jb.pop("elapsed_seconds", None)
            if ja != jb:
                diffs.append(name)
        elif a.read_bytes() != b.read_bytes():
            diffs.append(name)
    return diffs


def csv_moves(left: Path, right: Path) -> dict:
    """Per column of two CSVs with one header and row count: how many cells
    moved, the first 20 of them as [first cell of its row, old, new], the
    largest relative move among the numeric ones and the first cell of its
    row."""
    old, new = ([ln.split(",") for ln in p.read_text().splitlines()] for p in (left, right))
    if len(old) != len(new) or old[0] != new[0]:
        return {"shape": "differs"}
    moves: dict = {}
    for a, b in zip(old[1:], new[1:]):
        for name, x, y in zip(old[0], a, b):
            if x == y:
                continue
            slot = moves.setdefault(name, {"cells": 0, "moved": [], "max_rel": None, "at": None})
            slot["cells"] += 1
            if len(slot["moved"]) < 20:
                slot["moved"].append([a[0], x, y])
            try:
                rel = abs(float(y) - float(x)) / abs(float(x))
            except (ValueError, ZeroDivisionError):
                continue
            if slot["max_rel"] is None or rel > slot["max_rel"]:
                slot["max_rel"], slot["at"] = rel, a[0]
    return moves


def json_leaves(obj, path: str = "") -> dict:
    """Leaf values of a JSON document keyed by dotted path, such as
    `reports.curvature_match.meta.epsilon`; empty objects and lists are leaves."""
    if isinstance(obj, (dict, list)) and obj:
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        leaves = {}
        for key, value in items:
            leaves.update(json_leaves(value, f"{path}.{key}" if path else str(key)))
        return leaves
    return {path: obj}


def json_changes(left: Path, right: Path) -> dict:
    """Leaf paths added, removed and changed from one JSON file to the other,
    a manifest's top-level `elapsed_seconds` excluded."""
    old, new = (json_leaves(json.loads(p.read_text())) for p in (left, right))
    for leaves in (old, new):
        leaves.pop("elapsed_seconds", None)
    return {"added": sorted(new.keys() - old.keys()),
            "removed": sorted(old.keys() - new.keys()),
            "changed": sorted(k for k in old.keys() & new.keys() if old[k] != new[k])}


def output_identity(sides: dict[str, Path]) -> dict:
    """Run each identity command on both checkouts and compare every output
    file; for each CSV that differs, record its csv_moves, and for each JSON
    file its json_changes."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = identity_commands(sides["change"], work)
        result = {"commands": {}, "files_compared": 0}
        for label, cmd in commands.items():
            outs, stdout = {}, {}
            for side, checkout in sides.items():
                outs[side] = work / side / label
                env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
                printed = subprocess.run([sys.executable, "-m", "hardyshift.cli", *cmd,
                                          "--out", str(outs[side])], env=env,
                                         capture_output=True, text=True, check=True).stdout
                # the table commands print their output path, which differs by side
                stdout[side] = printed.replace(str(outs[side]), "{out}")
            diffs = output_differences(outs["parent"], outs["change"])
            if stdout["parent"] != stdout["change"]:
                diffs.append("stdout")
            result["files_compared"] += len(list(outs["change"].iterdir()))
            moves = {name: csv_moves(outs["parent"] / name, outs["change"] / name)
                     for name in diffs if name.endswith(".csv")}
            paths = {name: json_changes(outs["parent"] / name, outs["change"] / name)
                     for name in diffs if name.endswith(".json")}
            result["commands"][label] = {"args": cmd, "differences": diffs, "moves": moves,
                                         "json_paths": paths}
            print(f"identity {label}: {diffs or 'identical'}", flush=True)
        result["identical"] = not any(c["differences"] for c in result["commands"].values())
    return result


def run_cold(checkout: Path, args: list[str]) -> tuple[float, float]:
    """Wall and CPU seconds of one fresh interpreter running args on the checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def imports_numpy(checkout: Path, args: list[str]) -> bool:
    """Whether one fresh interpreter running args on the checkout's src imports
    numpy, read from its `-X importtime` report."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    err = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                         capture_output=True, text=True, check=True).stderr
    return any(line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "numpy"
               for line in err.splitlines())


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
    parser.add_argument("--child", nargs=2, metavar=("KIND", "KEY"), help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = json.loads((sides["change"] / "BENCHMARK.json").read_text())["run_seconds"]

    identity = output_identity(sides)

    inprocess = {side: {} for side in sides}
    jobs = ([("plan", f"K{k}") for k in PLAN_KS]
            + [("verify_f", "K8"), ("verify_theorem", "K8"), ("verify_theorem", "K4"),
               ("verify_f", "K8_delta1e-6")]
            + [(kind, "K8") for kind in LAYER_CALLS] + [("kernel_ratio", "K4")])
    for rep in range(REPS):
        order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
        for kind, key in jobs:
            for side in order:
                res = run_child(sides[side], kind, key)
                slot = inprocess[side].setdefault(f"{kind}_{key}", {})
                for name in ("cpu_s", "wall_s", "us_per_call"):
                    if name in res:
                        slot.setdefault(name, []).append(res[name])
                slot["result"] = res["result"]
                print(f"{side} {kind} {key}: cpu {res['cpu_s']:.3f} s", flush=True)
    for side in sides:
        for job, slot in inprocess[side].items():
            for name in ("cpu_s", "wall_s", "us_per_call"):
                if name in slot:
                    slot[name] = summary(slot[name])
            cpu = slot["cpu_s"]
            print(f"{side} {job}: cpu median {cpu['median']:.4f} s "
                  f"[q1 {cpu['q1']:.4f}, q3 {cpu['q3']:.4f}]", flush=True)

    cold = {side: {} for side in sides}
    cold_cpu = {side: {} for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        commands = cold_commands(Path(tmp))
        numpy_loaded = {side: {name: imports_numpy(path, cmd) for name, cmd in commands.items()}
                        for side, path in sides.items()}
        print(f"imports numpy: {numpy_loaded}", flush=True)
        for rep in range(COLD_REPS):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            for name, cmd in commands.items():
                for side in order:
                    wall, cpu = run_cold(sides[side], cmd)
                    cold[side].setdefault(name, []).append(wall)
                    cold_cpu[side].setdefault(name, []).append(cpu)
    for side in sides:
        cold[side] = {name: summary(vals) for name, vals in cold[side].items()}
        cold_cpu[side] = {name: summary(vals) for name, vals in cold_cpu[side].items()}
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
        "output_identity": identity,
        "inprocess": inprocess,
        "cold_start_wall_s": cold,
        "cold_start_cpu_s": cold_cpu,
        "cold_start_imports_numpy": numpy_loaded,
        "traced": traced,
        "end_to_end": end_to_end,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
