"""Before/after numbers for two hardyshift checkouts, written as one BENCH_*.json.

    python3 bench/compare.py --parent PARENT_CHECKOUT --change . --out BENCH_5.json

Seven parts, each run on both checkouts with this same script:

* output identity: every command of the `search`, `certify` and
  `tables` workloads (from the change's `hardybench/workloads.py`, verify
  seed 1), `lemma`, `construct --K 2`, `verify --epsilon 4e-6` on the
  K = 8, delta 1e-6 config (powers up to 6.2e9, which no workload
  reaches), `weights --n-max 3000` and `orbit 3000` on the alpha 0.6,
  K = 6 config (weights that are not exact floats, where every workload
  has alpha 1), and `construct --alpha 100 --delta 0.5 --K 8` and
  `verify --epsilon 2` on the starts it selects (spike terms with
  differences that round to exactly 0), and the error paths
  `curvature --points 1`, `weights --n-max -1` and `weights --n-max
  10^20` (all on the alpha 0.6 config), `verify` on a missing file and
  on a config nested 200,000 arrays deep, `construct --alpha 1 --epsilon
  1e16 --K 2`, and `verify --epsilon 2` and `curvature` on the alpha 0.6,
  starts (2, 26, 103), tol 1e-17 config (exit 4), run once per
  checkout; the exit code, stdout, stderr (with the --out and work
  paths normalised) and every output file must be byte-identical,
  manifests compared as JSON without `elapsed_seconds`; for each command
  whose exit code or stderr is not, both sides' exit codes and stderr;
  for each CSV that is not, per column, the count of moved cells, the
  first 20 with their old and new text, and the largest relative move,
  and for each JSON file or manifest that is not, the leaf paths added,
  removed and changed;
* in-process CPU and wall time of `ConstructionConfig.plan` (alpha 1,
  delta 0.5, K = 3..8, 24 and 32; delta 1e-3, K = 4, the second `search`
  command; delta 1e-6, K = 8), per call over a loop of PLAN_CALLS calls
  after one untimed call, each from a cold lemma cache, with the lemma
  cache misses of that untimed plan, of
  `verify_f_conditions` / `verify_theorem_conditions` (eps 2) on the
  frozen K = 8 config, and of `verify_theorem_conditions` (eps 0.004)
  on the frozen K = 4, delta 1e-3 config, the two `verify` runs of the
  `certify` workload, of
  `verify_f_conditions` on the K = 8, delta 1e-6 config, whose powers
  reach 6.2e9, of `verify_f_conditions` and `verify_theorem_conditions`
  (eps 2) on the K = 16 and K = 24 starts `construct --alpha 1 --delta 0.5`
  selects, and of `verify_f_conditions` on its K = 32 starts,
  each `verify_theorem_conditions` after an untimed
  `verify_f_conditions` on the same config, as `verify --epsilon` runs
  them; jobs are named `<kind>_<config>`; each in a fresh
  interpreter with the checkout's `src` first on the path, the two
  checkouts alternating, REPS times;
* in-process layer timings on the frozen K = 8 config, as microseconds
  per call (after one untimed call): `RadialSeries.eval` of the kernel
  ratio at 1 point and at 1000 points, `ratio_log_laplacian` at 1 point,
  `gradient_sq_mass` of f - 1 (the `gradient_carleson` row of `verify_f`),
  `term_decay` of f - 1 (all five ratio rows of `verify_f`), and
  `kernel_ratio_series` (building f and checking it against the weights)
  on the frozen K = 8 and K = 4, delta 1e-3 configs, and
  `carleson._block_roots` over every block list `term_decay` scans for
  f - 1 and for the last spike's term (Laplacian and slope blocks) on the
  frozen K = 8 and K = 32 configs; same fresh interpreters and alternation;
* for each in-process job, whether the two sides return the same
  `result` and `lemma_misses`, and each job where they do not, printed:
  this catches a plan start that moves at K = 24 or 32, or at delta
  1e-6, which the output-identity part does not reach;
* cold-start wall time, CPU time (user + system) and peak RSS
  (`ru_maxrss`), the last two from the child's own `os.wait4` rusage, of
  `python -c "import hardyshift.cli"` and of the
  `weights`, `orbit`, `curvature`, `construct --K 2`, `lemma`, `verify`
  and `verify --epsilon 2` commands on the frozen K = 3 config, of
  `curvature --points 20000`, `orbit 20000` and `weights --n-max 200000`
  on the frozen K = 8 config (the sizes of the `tables` workload), of
  `verify --epsilon 0.004` on the frozen K = 4, delta 1e-3 config (the
  slower `certify` command), of `construct --K 6` (delta 0.5, the
  first command of the `search` workload), and of `verify --epsilon 2`
  on the K = 16 and K = 32 configs that each side's own
  `construct --alpha 1 --delta 0.5` writes, each a fresh process, the two
  checkouts alternating, COLD_REPS times, printed as median [q1, q3];
  Linux carries the spawning process's high-water RSS into the child, so
  each job is spawned by a bare interpreter (LAUNCHER), and the
  launcher's own high-water RSS, about the floor the job inherits, is
  recorded too;
  plus, per job and checkout, one
  untimed run under `-X importtime` that records which of numpy,
  dataclasses and inspect the process imported beyond what a bare
  interpreter's start-up imports;
* the per-layer counts of `hardybench/run.py --trace 1` on the `search`
  and `certify` workloads, from each checkout's own `hardybench`;
* PAIRS alternating end-to-end runs of `hardybench/run.py --trace 0` per
  workload, each as long as `run_seconds` in the change's BENCHMARK.json,
  with medians and quartiles, and the pairs in which the change's
  `wall_s` and `cpu_s` are the lower.

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
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Sequence

K8_STARTS = (3, 32, 117, 343, 906, 2248, 5368, 12479)
# frozen verify configs by name: (delta, spike starts, epsilon); K8_delta1e-6
# holds the minimal starts `construct --alpha 1 --delta 1e-6 --K 8` selects,
# powers up to 6.2e9 that no workload reaches; K16 and K24 hold the starts
# `construct --alpha 1 --delta 0.5 --K 16`, `--K 24` and `--K 32` select
K24_STARTS = (*K8_STARTS, 28443, 63853, 141639, 311144, 678018, 1467493, 3157899, 6761622,
              14414887, 30613062, 64792695, 136718533, 287703349, 603939264, 1264943658,
              2644017572)
K32_STARTS = (*K24_STARTS, 5516295655, 11489112332, 23891266705, 49608617490, 102869403141,
              213043142602, 440694957842, 910607260958)
VERIFY_CONFIGS = {"K8": (0.5, K8_STARTS, 2.0),
                  "K4": (1e-3, (2549, 16580, 59309, 172510), 0.004),
                  "K8_delta1e-6": (1e-6, (2551008, 16581563, 59310981, 172512049, 453601462,
                                          1124756247, 2684818434, 6240348396), 4e-6),
                  "K16": (0.5, K24_STARTS[:16], 2.0),
                  "K24": (0.5, K24_STARTS, 2.0),
                  "K32": (0.5, K32_STARTS, 2.0)}
# the starts `construct --alpha 0.6 --delta 0.5 --K 6` selects
ALPHA06_K6_STARTS = (2, 26, 103, 312, 841, 2116)
# the starts `construct --alpha 100 --delta 0.5 --K 8` selects
ALPHA100_K8_STARTS = (5, 39, 134, 379, 978, 2393, 5658, 13059)
# plan jobs by key: K<k> at delta 0.5, K<k>_delta<delta> otherwise
PLAN_KEYS = ("K3", "K4", "K5", "K6", "K7", "K8", "K24", "K32", "K4_delta1e-3", "K8_delta1e-6")
WORKLOADS = ("search", "certify", "tables")
REPS = 7  # in-process timings per job and side
PLAN_CALLS = 10  # plan calls per timed loop, each with a cold lemma cache
# layer timings: calls per timed loop
LAYER_CALLS = {"eval_1pt": 20000, "eval_1000pt": 2000, "ratio_log_laplacian_1pt": 5000,
               "gradient_sq_mass": 50, "term_decay": 20, "kernel_ratio": 20,
               "block_roots": 10}
# up to MAX_POWER = 2^40 + 2^21 - 1, the largest power the lemma accepts
LEMMA_POWERS = ("1", "2", "10", "2248", "172510", "416216560", "1124756484",
                str(2 ** 40 + 2 ** 21 - 1))
PAIRS = 10  # alternating end-to-end runs per workload
# modules whose loading each cold job records: numpy, and dataclasses with
# the inspect it imports, together about 10 ms of a cold start
WATCHED_IMPORTS = ("numpy", "dataclasses", "inspect")
COLD_REPS = 15  # cold-start timings per command and side
# spawns one cold job, its stdout to /dev/null, and prints its exit code,
# wall seconds, CPU seconds and peak RSS, then the launcher's own high-water
# RSS, the job's floor (both in KiB); the launcher's getrusage would also
# carry this script's peak, so the floor is read from /proc/self/status
LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
with open("/proc/self/status") as status_file:
    hwm = next(ln.split()[1] for ln in status_file if ln.startswith("VmHWM:"))
print(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
      usage.ru_maxrss, hwm)
"""


def child(kind: str, key: str) -> None:
    """Time one in-process job; print {"cpu_s", "wall_s", "result"}.  key is
    one of PLAN_KEYS for `plan` and a VERIFY_CONFIGS name otherwise.  A
    verify_theorem job times the call after an untimed verify_f_conditions
    on the same config, the order `verify --epsilon` runs them in."""
    from hardyshift.construction import (ConstructionConfig, verify_f_conditions,
                                         verify_theorem_conditions)

    if kind in LAYER_CALLS:
        layer(kind, key)
        return
    if kind == "plan":
        spikes, _, delta = key.partition("_delta")
        plan_loop(int(spikes.removeprefix("K")), float(delta) if delta else 0.5)
        return
    delta, starts, epsilon = VERIFY_CONFIGS[key]
    config = ConstructionConfig(alpha=1.0, delta=delta, n_spikes=len(starts),
                                spike_starts=starts)
    if kind == "verify_f":
        call = lambda: verify_f_conditions(config).passed  # noqa: E731
    else:
        verify_f_conditions(config)
        call = lambda: verify_theorem_conditions(config, epsilon).passed  # noqa: E731
    c0, t0 = time.process_time(), time.perf_counter()
    result = call()
    print(json.dumps({"cpu_s": time.process_time() - c0,
                      "wall_s": time.perf_counter() - t0, "result": result}))


def plan_loop(k: int, delta: float) -> None:
    """Time PLAN_CALLS plans at alpha 1, each from a cold lemma cache; print
    {"cpu_s", "wall_s", "result", "lemma_misses"} with the times per call and
    the lemma cache misses of one plan."""
    from hardyshift.construction import ConstructionConfig
    from hardyshift.search import lemma_bounds

    def call():
        lemma_bounds.cache_clear()
        return list(ConstructionConfig.plan(1.0, delta, k).spike_starts)

    result = call()
    misses = lemma_bounds.cache_info().misses
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(PLAN_CALLS):
        call()
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    print(json.dumps({"cpu_s": cpu / PLAN_CALLS, "wall_s": wall / PLAN_CALLS, "result": result,
                      "lemma_misses": misses}))


def layer(kind: str, key: str) -> None:
    """Time LAYER_CALLS[kind] calls of one layer; print {"cpu_s", "wall_s", "us_per_call", "result"}."""
    import numpy as np
    from hardyshift import carleson
    from hardyshift.carleson import term_decay
    from hardyshift.construction import ConstructionConfig
    from hardyshift.search import Terms, gradient_sq_mass, spike_ratio_term
    from hardyshift.spectral import kernel_ratio_series, ratio_log_laplacian

    delta, starts, _ = VERIFY_CONFIGS[key]
    config = ConstructionConfig(alpha=1.0, delta=delta, n_spikes=len(starts), spike_starts=starts)
    f = kernel_ratio_series(config.weights(), r_max=config.r_max, tol=config.tol)
    deviation = Terms(f.exponents[1:], f.coeffs[1:])
    if kind == "eval_1pt":
        call = lambda: f.eval(0.998)  # noqa: E731
    elif kind == "eval_1000pt":
        s = np.linspace(0.0, 0.998, 1000)
        call = lambda: float(f.eval(s).sum())  # noqa: E731
    elif kind == "ratio_log_laplacian_1pt":
        call = lambda: ratio_log_laplacian(f, 0.999)  # noqa: E731
    elif kind == "gradient_sq_mass":
        call = lambda: gradient_sq_mass(deviation)  # noqa: E731
    elif kind == "kernel_ratio":
        w = config.weights()
        call = lambda: len(kernel_ratio_series(w, r_max=config.r_max, tol=config.tol))  # noqa: E731
    elif kind == "block_roots":
        scanned, roots = [], carleson._block_roots
        carleson._block_roots = lambda blocks: scanned.append(blocks) or roots(blocks)
        term_decay(deviation)
        term_decay(spike_ratio_term(1.0, config.weights().spikes[-1]))
        carleson._block_roots = roots
        call = lambda: [u for blocks in scanned for u in roots(blocks)]  # noqa: E731
    else:
        call = lambda: [value for _, value in term_decay(deviation)]  # noqa: E731
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


def config_file(path: Path, delta: float, starts: Sequence[int], alpha: float = 1.0) -> Path:
    """Write the config with these starts to path, for the CLI."""
    path.write_text(json.dumps({"alpha": alpha, "delta": delta, "K": len(starts),
                                "spike_starts": list(starts), "r_max": 0.999, "tol": 1e-9}))
    return path


def cold_commands(work: Path, side: str, checkout: Path) -> dict[str, list[str]]:
    """Interpreter arguments of each cold-start job on one side, on the frozen
    K = 3 config (for the `*_K8_*` table jobs, the frozen K = 8 config at the
    `tables` workload's sizes, for `verify_eps0.004_K4`, the frozen K = 4,
    delta 1e-3 config, and for `verify_eps2_K16` and `verify_eps2_K32`, the
    configs the side's own `construct` writes under work / side)."""
    config = config_file(work / "k3.json", 0.5, K8_STARTS[:3])
    k8 = str(config_file(work / "k8.json", 0.5, K8_STARTS))
    delta, starts, epsilon = VERIFY_CONFIGS["K4"]
    small_delta = config_file(work / "k4_small_delta.json", delta, starts)
    cli = ["-m", "hardyshift.cli"]
    out = ["--out", str(work / "out")]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    constructed = {k: work / side / f"k{k}" for k in (16, 32)}
    for k, path in constructed.items():
        subprocess.run([sys.executable, *cli, "construct", "--alpha", "1", "--delta", "0.5",
                        "--K", str(k), "--out", str(path)], env=env,
                       capture_output=True, check=True)
    return {"import": ["-c", "import hardyshift.cli"],
            "weights": [*cli, "weights", str(config), *out],
            "orbit": [*cli, "orbit", str(config), "130", *out],
            "curvature": [*cli, "curvature", str(config), *out],
            "curvature_K8_20000": [*cli, "curvature", k8, "--points", "20000", *out],
            "orbit_K8_20000": [*cli, "orbit", k8, "20000", *out],
            "weights_K8_200000": [*cli, "weights", k8, "--n-max", "200000", *out],
            "construct_K2": [*cli, "construct", "--alpha", "1", "--delta", "0.5",
                             "--K", "2", *out],
            "construct_K6": [*cli, "construct", "--alpha", "1", "--delta", "0.5",
                             "--K", "6", *out],
            "lemma": [*cli, "lemma", *LEMMA_POWERS, *out],
            "verify": [*cli, "verify", str(config), *out],
            "verify_eps2": [*cli, "verify", str(config), "--epsilon", "2", *out],
            "verify_eps0.004_K4": [*cli, "verify", str(small_delta), "--epsilon",
                                   str(epsilon), *out],
            **{f"verify_eps2_K{k}": [*cli, "verify", str(path / "config.json"), "--epsilon",
                                     "2", *out] for k, path in constructed.items()}}


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
    delta, starts, epsilon = VERIFY_CONFIGS["K8_delta1e-6"]
    config = config_file(work / "k8_delta1e-6.json", delta, starts)
    commands["verify-K8-delta1e-6"] = ["verify", str(config), "--epsilon", str(epsilon)]
    config = str(config_file(work / "alpha0.6_k6.json", 0.5, ALPHA06_K6_STARTS, alpha=0.6))
    commands["weights-alpha0.6-K6-3000"] = ["weights", config, "--n-max", "3000"]
    commands["orbit-alpha0.6-K6-3000"] = ["orbit", config, "3000"]
    commands["construct-alpha100-K8"] = ["construct", "--alpha", "100", "--delta", "0.5",
                                         "--K", "8"]
    config = str(config_file(work / "alpha100_k8.json", 0.5, ALPHA100_K8_STARTS, alpha=100.0))
    commands["verify-alpha100-K8"] = ["verify", config, "--epsilon", "2"]
    # error paths: exit 3, exit 4 and the epsilon whose quotient rounds to 1
    config = str(work / "alpha0.6_k6.json")
    commands["curvature-points1"] = ["curvature", config, "--points", "1"]
    commands["weights-n-max-1"] = ["weights", config, "--n-max", "-1"]
    commands["weights-n-max-1e20"] = ["weights", config, "--n-max", str(10 ** 20)]
    commands["verify-absent"] = ["verify", str(work / "absent.json")]
    nested = work / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    commands["verify-nested"] = ["verify", str(nested)]
    commands["construct-epsilon1e16-K2"] = ["construct", "--alpha", "1", "--epsilon", "1e16",
                                            "--K", "2"]
    tight = work / "alpha0.6_k3_tol1e-17.json"
    tight.write_text(json.dumps({"alpha": 0.6, "delta": 0.5, "K": 3, "spike_starts": [2, 26, 103],
                                 "r_max": 0.999, "tol": 1e-17}))
    commands["verify-tol1e-17"] = ["verify", str(tight), "--epsilon", "2"]
    commands["curvature-tol1e-17"] = ["curvature", str(tight)]
    return commands


def output_differences(left: Path, right: Path) -> list[str]:
    """Files that differ between two output directories, either of which may
    be missing (manifests without elapsed_seconds)."""
    names = sorted({p.name for d in (left, right) if d.exists() for p in d.iterdir()})
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
    """Run each identity command on both checkouts and compare its exit code,
    stdout, stderr and every output file; for a command whose exit code or
    stderr differs, record both sides' exit codes and stderr, for each CSV
    that differs its csv_moves, and for each JSON file its json_changes."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = identity_commands(sides["change"], work)
        result = {"commands": {}, "files_compared": 0}
        for label, cmd in commands.items():
            outs, ran = {}, {}
            for side, checkout in sides.items():
                outs[side] = work / side / label
                env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
                proc = subprocess.run([sys.executable, "-m", "hardyshift.cli", *cmd,
                                       "--out", str(outs[side])], env=env,
                                      capture_output=True, text=True)
                # the table commands print their output path, which differs by
                # side, and an error names its input file under work
                ran[side] = {name: text.replace(str(outs[side]), "{out}").replace(tmp, "{work}")
                             for name, text in (("stdout", proc.stdout),
                                                ("stderr", proc.stderr))}
                ran[side]["exit"] = proc.returncode
            diffs = output_differences(outs["parent"], outs["change"])
            diffs += [name for name in ("exit", "stdout", "stderr")
                      if ran["parent"][name] != ran["change"][name]]
            if outs["change"].exists():
                result["files_compared"] += len(list(outs["change"].iterdir()))
            moves = {name: csv_moves(outs["parent"] / name, outs["change"] / name)
                     for name in diffs if name.endswith(".csv")}
            paths = {name: json_changes(outs["parent"] / name, outs["change"] / name)
                     for name in diffs if name.endswith(".json")}
            result["commands"][label] = {"args": cmd, "exit": ran["change"]["exit"],
                                         "differences": diffs, "moves": moves,
                                         "json_paths": paths}
            if {"exit", "stderr"} & set(diffs):
                result["commands"][label]["exit_and_stderr"] = {
                    side: [r["exit"], r["stderr"]] for side, r in ran.items()}
            print(f"identity {label}: exit {ran['change']['exit']}, {diffs or 'identical'}",
                  flush=True)
        result["identical"] = not any(c["differences"] for c in result["commands"].values())
    return result


def run_cold(checkout: Path, args: list[str]) -> tuple[float, float, float, float]:
    """Wall seconds, CPU seconds and peak RSS in MB of one fresh interpreter
    running args on the checkout's src, spawned by LAUNCHER, and the
    launcher's own high-water RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, *args], env=env,
                         capture_output=True, text=True, check=True)
    code, wall, cpu, rss, floor = out.stdout.split()
    if int(code):
        raise subprocess.CalledProcessError(int(code), args, stderr=out.stderr)
    return float(wall), float(cpu), int(rss) / 1024.0, int(floor) / 1024.0


def imported(checkout: Path, args: list[str]) -> set[str]:
    """Names of the modules one fresh interpreter running args on the
    checkout's src imports, read from its `-X importtime` report."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    err = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                         capture_output=True, text=True, check=True).stderr
    return {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()
            if line.startswith("import time:")}


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
    jobs = ([("plan", key) for key in PLAN_KEYS]
            + [("verify_f", "K8"), ("verify_theorem", "K8"), ("verify_theorem", "K4"),
               ("verify_f", "K8_delta1e-6"), ("verify_f", "K16"), ("verify_f", "K24"),
               ("verify_theorem", "K16"), ("verify_theorem", "K24"), ("verify_f", "K32")]
            + [(kind, "K8") for kind in LAYER_CALLS] + [("kernel_ratio", "K4"),
                                                         ("block_roots", "K32")])
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
                if "lemma_misses" in res:
                    slot["lemma_misses"] = res["lemma_misses"]
                print(f"{side} {kind} {key}: cpu {res['cpu_s']:.3f} s", flush=True)
    for side in sides:
        for job, slot in inprocess[side].items():
            for name in ("cpu_s", "wall_s", "us_per_call"):
                if name in slot:
                    slot[name] = summary(slot[name])
            cpu = slot["cpu_s"]
            misses = f", lemma misses {slot['lemma_misses']}" if "lemma_misses" in slot else ""
            print(f"{side} {job}: cpu median {cpu['median']:.4f} s "
                  f"[q1 {cpu['q1']:.4f}, q3 {cpu['q3']:.4f}]{misses}", flush=True)
    # whether both sides return the same result and lemma misses, job by job
    agree = {job: all(inprocess["parent"][job].get(name) == slot.get(name)
                      for name in ("result", "lemma_misses"))
             for job, slot in inprocess["change"].items()}
    for job in (job for job, same in agree.items() if not same):
        old, new = inprocess["parent"][job], inprocess["change"][job]
        print(f"in-process {job}: the sides disagree: result {old['result']} -> {new['result']}, "
              f"lemma misses {old.get('lemma_misses')} -> {new.get('lemma_misses')}", flush=True)

    cold = {side: {} for side in sides}
    cold_cpu = {side: {} for side in sides}
    cold_rss = {side: {} for side in sides}
    floors = []
    with tempfile.TemporaryDirectory() as tmp:
        commands = {side: cold_commands(Path(tmp), side, path) for side, path in sides.items()}
        startup = imported(sides["change"], ["-c", "pass"])  # a site hook may preload some
        loaded = {side: {name: [m for m in WATCHED_IMPORTS if m in imported(path, cmd) - startup]
                         for name, cmd in commands[side].items()}
                  for side, path in sides.items()}
        print(f"imports {', '.join(WATCHED_IMPORTS)}: {loaded}", flush=True)
        for rep in range(COLD_REPS):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            for name in commands["change"]:
                for side in order:
                    wall, cpu, rss, floor = run_cold(sides[side], commands[side][name])
                    floors.append(floor)
                    cold[side].setdefault(name, []).append(wall)
                    cold_cpu[side].setdefault(name, []).append(cpu)
                    cold_rss[side].setdefault(name, []).append(rss)
    print(f"cold start peak RSS floor (the launcher's own high-water RSS): "
          f"{min(floors):.1f} to {max(floors):.1f} MB", flush=True)
    for side in sides:
        cold[side] = {name: summary(vals) for name, vals in cold[side].items()}
        cold_cpu[side] = {name: summary(vals) for name, vals in cold_cpu[side].items()}
        cold_rss[side] = {name: summary(vals) for name, vals in cold_rss[side].items()}
        print(f"{side} cold start: "
              + ", ".join(f"{n} {s['median']:.3f} s [{s['q1']:.3f}, {s['q3']:.3f}]"
                          for n, s in cold[side].items()), flush=True)
        print(f"{side} cold start peak RSS: "
              + ", ".join(f"{n} {s['median']:.1f} MB" for n, s in cold_rss[side].items()),
              flush=True)

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
        for name in ("wall_s", "cpu_s"):
            wins = sum(c["metrics"][name] < p["metrics"][name]
                       for p, c in zip(runs["parent"], runs["change"]))
            end_to_end[w][f"{name}_change_wins"] = f"{wins}/{PAIRS}"

    args.out.write_text(json.dumps({
        "script": "bench/compare.py",
        "settings": {"reps": REPS, "cold_reps": COLD_REPS, "pairs": PAIRS,
                     "seconds": seconds},
        "commits": {side: identify(path) for side, path in sides.items()},
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count(), "loadavg_end": list(os.getloadavg())},
        "output_identity": identity,
        "inprocess": inprocess,
        "inprocess_agree": agree,
        "cold_start_wall_s": cold,
        "cold_start_cpu_s": cold_cpu,
        "cold_start_peak_rss_mb": cold_rss,
        "cold_start_peak_rss_floor_mb": summary(floors),
        "cold_start_imports": loaded,
        "traced": traced,
        "end_to_end": end_to_end,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
