"""Workloads of the hardyshift benchmark.

A workload is a fixed sequence of CLI commands, each run as its own cold
`python -m hardyshift.cli` process, plus a tiny warm-up sequence over the
same subcommands.  Every input is fixed here; the only thing the workload
seed changes is `verify --seed`, the program's one random input.

Each command carries a check on its outputs.  Checks compare against
frozen spike starts, PASS status and row counts, never against float
bytes, so a change that moves last digits still passes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# spike starts the search finds at alpha = 1; the K = 8 row extends the
# delta = 0.5 search two spikes beyond what `search` runs
STARTS_HALF = (3, 32, 117, 343, 906, 2248, 5368, 12479)
STARTS_SMALL_DELTA = (2549, 16580, 59309, 172510)


def _config(delta: float, starts: tuple[int, ...]) -> dict:
    return {"alpha": 1.0, "delta": delta, "K": len(starts),
            "spike_starts": list(starts), "r_max": 0.999, "tol": 1e-9}


# config files the benchmark writes before a run; commands name them as
# "{config:<key>}"
CONFIGS = {
    "k3": _config(0.5, STARTS_HALF[:3]),
    "k8": _config(0.5, STARTS_HALF),
    "k4_small_delta": _config(1e-3, STARTS_SMALL_DELTA),
}

Check = Callable[[Path, str], "str | None"]  # (out dir, stdout) -> error or None


def expect_starts(starts: tuple[int, ...]) -> Check:
    def check(out: Path, stdout: str) -> str | None:
        found = tuple(json.loads((out / "config.json").read_text())["spike_starts"])
        if found != starts:
            return f"spike starts {found}, expected {starts}"
        return None
    return check


def condition_names(k: int) -> list[str]:
    """Rows of `verify --epsilon` on a K = k config."""
    names = ["ratio_deviation", "laplacian_sup", "gradient_sup",
             "laplacian_carleson", "gradient_carleson"]
    for i in range(1, k + 1):
        names += [f"spike{i}_{q}" for q in ("value_sup", "laplacian_sup", "gradient_sup",
                                            "laplacian_carleson", "gradient_sq_carleson")]
    return names + ["ratio_band", "curvature_sup", "curvature_carleson", "coisometry_band"]


def expect_all_pass(names: list[str]) -> Check:
    def check(out: Path, stdout: str) -> str | None:
        with open(out / "conditions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        found = [r["condition"] for r in rows]
        if sorted(found) != sorted(names):
            return f"condition names changed: {sorted(set(found) ^ set(names))}"
        failing = [r["condition"] for r in rows if r["pass"] != "true"]
        if failing:
            return f"conditions not passing: {failing}"
        if "all conditions pass" not in stdout:
            return "verify did not report that all conditions pass"
        return None
    return check


def expect_rows(filename: str, rows: int) -> Check:
    def check(out: Path, stdout: str) -> str | None:
        with open(out / filename) as fh:
            found = sum(1 for _ in fh) - 1  # header
        if found != rows:
            return f"{filename} has {found} rows, expected {rows}"
        return None
    return check


@dataclass(frozen=True)
class Op:
    """One CLI command: its arguments (before --out) and its output check."""

    label: str
    args: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    warmup: tuple[Op, ...]


def _construct(delta: str, starts: tuple[int, ...]) -> Op:
    k = len(starts)
    return Op(f"construct-K{k}-delta{delta}",
              ("construct", "--alpha", "1", "--delta", delta, "--K", str(k)),
              expect_starts(starts))


def _verify(key: str, epsilon: str) -> Op:
    return Op(f"verify-{key}-eps{epsilon}",
              ("verify", f"{{config:{key}}}", "--epsilon", epsilon, "--seed", "{seed}"),
              expect_all_pass(condition_names(CONFIGS[key]["K"])))


def _tables(key: str, points: int, orbit_max: int, weights_max: int) -> tuple[Op, ...]:
    cfg = f"{{config:{key}}}"
    return (
        Op(f"curvature-{key}-{points}", ("curvature", cfg, "--points", str(points)),
           expect_rows("curvature.csv", points)),
        Op(f"orbit-{key}-{orbit_max}", ("orbit", cfg, str(orbit_max)),
           expect_rows("orbit.csv", orbit_max + 1)),
        Op(f"weights-{key}-{weights_max}", ("weights", cfg, "--n-max", str(weights_max)),
           expect_rows("weights.csv", weights_max + 1)),
    )


WORKLOADS = {
    # spike search: scalar polish in refined_supremum and exact Carleson
    # masses; the second command reaches starts near 1.7e5
    "search": Workload(
        ops=(_construct("0.5", STARTS_HALF[:6]), _construct("1e-3", STARTS_SMALL_DELTA)),
        warmup=(_construct("0.5", STARTS_HALF[:2]),),
    ),
    # verification of frozen configs: quad over ratio_log_laplacian, and
    # the coisometry check on 172k-long vectors; no search runs
    "certify": Workload(
        ops=(_verify("k8", "2"), _verify("k4_small_delta", "0.004")),
        warmup=(_verify("k3", "2"),),
    ),
    # table dumps: cold imports, CSV writing and vectorized evaluation
    "tables": Workload(
        ops=_tables("k8", 20000, 20000, 200000),
        warmup=_tables("k3", 200, 130, 300),
    ),
    # every subcommand at tiny size; used by smoke.py, not by BENCHMARK.json
    "smoke": Workload(
        ops=(_construct("0.5", STARTS_HALF[:2]), _verify("k3", "2"))
        + _tables("k3", 200, 130, 300),
        warmup=(_construct("0.5", STARTS_HALF[:1]),),
    ),
}
