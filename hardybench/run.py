"""hardyshift benchmark: cold CLI processes, closed loop, one client.

    python3 hardybench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each command of the workload is a fresh
`python -m hardyshift.cli` process on the checkout's `src`, started only
after the previous one exited.  One untimed warm-up sequence fills
`__pycache__` and the file cache first; then whole command sequences
repeat, at least twice, as often as fits in --seconds.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: wall and
CPU time of one sequence, the largest peak RSS of a command, and the
set-up time of a cold `import hardyshift.cli`; times are scaled to
reference host speed by speed.py (raw ones are printed as raw_*).
--trace 1 runs untraced
and traced sequences in turn and reports the per-layer metrics; traced
commands go through tracer.py.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Every command's
outputs are checked; a failed command counts in `failed` and the
failed_ops line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from speed import SpeedProbe, steal_s
from workloads import CONFIGS, WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".hardybench_work"
SETUP_REPS = 5
IMPORTTIME_REPS = 3
MIN_REPS = 2  # so that every command's outputs are compared across repetitions
OP_TIMEOUT_S = 150.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PACKAGES = ("numpy", "scipy", "hardyshift")

PROBE = """
import json, sys, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({exc})"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float
    steal_s: float  # CPU time the host took away during the process
    slowdown: float  # host speed during the process, from speed.py
    maxrss_mb: float
    stdout: str
    stderr: str

    @property
    def ref_wall_s(self) -> float:
        return (self.wall_s - self.steal_s) / self.slowdown

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s / self.slowdown


def spawn(argv: list[str], cwd: Path, env: dict, log: Path, probe: SpeedProbe) -> Proc:
    """Run one process to completion; wall time from spawn to exit, rusage from
    wait4, and the steal and the probe's slowdown over the same interval."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        steal0, t0 = steal_s(), perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        probe.follow(proc.pid)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            probe.follow(None)
        t1, steal1 = perf_counter(), steal_s()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(returncode=proc.returncode, wall_s=t1 - t0,
                cpu_s=usage.ru_utime + usage.ru_stime, steal_s=steal1 - steal0,
                slowdown=probe.slowdown(t0, t1),
                maxrss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
                stdout=out_path.read_text(errors="replace"),
                stderr=err_path.read_text(errors="replace"))


@dataclass
class OpResult:
    op: Op
    proc: Proc
    error: str | None
    manifest: dict | None
    spans: dict | None

    @property
    def bytes_written(self) -> int:
        return sum(o["bytes"] for o in self.manifest["outputs"]) if self.manifest else 0


class Runner:
    """Runs command sequences of one workload inside a private run directory."""

    def __init__(self, run_dir: Path, seed: int, probe: SpeedProbe):
        self.run_dir = run_dir
        self.seed = seed
        self.probe = probe
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        inputs = run_dir / "inputs"
        inputs.mkdir()
        self.configs = {}
        for key, cfg in CONFIGS.items():
            path = inputs / f"{key}.json"
            path.write_text(json.dumps(cfg, indent=2) + "\n")
            self.configs[key] = str(path)
        self.reference: dict[str, dict] = {}  # op label -> manifest of its first full-size run
        self.attempted = 0
        self.failed = 0
        self._seq = 0

    def python(self, args: list[str], log: Path) -> Proc:
        return spawn([sys.executable, *args], self.run_dir, self.env, log, self.probe)

    def _arg(self, a: str) -> str:
        if a.startswith("{config:"):
            return self.configs[a[len("{config:"):-1]]
        return str(self.seed) if a == "{seed}" else a

    def run_op(self, op: Op, op_dir: Path, traced: bool) -> OpResult:
        out = op_dir / "out"
        out.mkdir(parents=True)  # fresh and empty for every command
        args = [self._arg(a) for a in op.args] + ["--out", str(out)]
        spans_path = op_dir / "spans.json"
        if traced:
            argv = [str(BENCH_DIR / "tracer.py"), str(spans_path), *args]
        else:
            argv = ["-m", "hardyshift.cli", *args]
        proc = self.python(argv, op_dir / "log")
        error, manifest, spans = None, None, None
        if proc.returncode != 0:
            error = f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"
        else:
            try:
                error = op.check(out, proc.stdout)
                manifest = json.loads((out / f"{op.args[0]}_manifest.json").read_text())
                manifest.pop("elapsed_seconds")  # the one field allowed to differ
            except (OSError, ValueError, KeyError) as exc:
                error = f"output check raised {exc!r}"
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text())
        return OpResult(op, proc, error, manifest, spans)

    def sequence(self, ops: tuple[Op, ...], traced: bool = False) -> list[OpResult]:
        """Run ops in order; compare manifests with earlier runs of the same op."""
        self._seq += 1
        seq_dir = self.run_dir / f"seq{self._seq:03d}"
        results = []
        for i, op in enumerate(ops):
            res = self.run_op(op, seq_dir / f"{i}-{op.label}", traced)
            if res.error is None:
                ref = self.reference.setdefault(op.label, res.manifest)
                if res.manifest != ref:
                    res.error = "manifest differs from the first run of this command"
            self.attempted += 1
            if res.error is not None:
                self.failed += 1
                print(f"FAILED {op.label}: {res.error}", file=sys.stderr)
            results.append(res)
        shutil.rmtree(seq_dir)
        return results


# ---------------------------------------------------------------------- #
# measurements


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds of import per top-level package, summed over `-X importtime`
    self times so that nested imports are counted once."""
    totals: dict[str, float] = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us = int(parts[0])
        except ValueError:  # the column header
            continue
        totals[parts[2].strip().split(".")[0]] += self_us / 1e6
    return {f"setup.import_{p}_s": totals[p] for p in SETUP_PACKAGES}


def setup_runs(runner: Runner, reps: int, importtime: bool) -> list[Proc]:
    args = ["-X", "importtime"] if importtime else []
    procs = []
    for i in range(reps):
        proc = runner.python([*args, "-c", "import hardyshift.cli"],
                             runner.run_dir / f"setup{int(importtime)}-{i}")
        if proc.returncode != 0:
            raise BenchError(f"import hardyshift.cli failed: {proc.stderr.strip()[-400:]}")
        procs.append(proc)
    return procs


def layer_values(results: list[OpResult]) -> dict[str, float]:
    """Per-layer metrics of one traced sequence, summed over its commands."""
    vals: dict[str, float] = defaultdict(int)  # counts stay integers
    for res in results:
        vals["cli.bytes_written"] += res.bytes_written
        if res.spans is None:
            continue
        for name, s in res.spans["spans"].items():
            vals[f"{name}.calls"] += s["calls"]
            vals[f"{name}.s"] += s["s"]
            vals[f"{name}.self_s"] += s["self_s"]
            vals[f"{name.split('.')[0]}.self_s"] += s["self_s"]
        for name, c in res.spans["counters"].items():
            vals[name] += c
    return dict(vals)


def is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


def unit_of(name: str) -> str:
    if is_time(name):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "bytes" if name.endswith("bytes_written") else "count"


def sequence_totals(seq: list[OpResult]) -> dict[str, float]:
    """Times at reference host speed, and the raw ones as measured."""
    return {"wall_s": sum(r.proc.ref_wall_s for r in seq),
            "cpu_s": sum(r.proc.ref_cpu_s for r in seq),
            "peak_rss_mb": max(r.proc.maxrss_mb for r in seq),
            "raw_wall_s": sum(r.proc.wall_s for r in seq),
            "raw_cpu_s": sum(r.proc.cpu_s for r in seq),
            "host_steal_s": sum(r.proc.steal_s for r in seq)}


def fits(elapsed: float, done: int, seconds: float) -> bool:
    """Whether one more repetition, as long as the average so far, ends within seconds."""
    return elapsed * (done + 1) / done <= seconds


def timed_run(runner: Runner, workload, seconds: float) -> dict[str, float]:
    setup = setup_runs(runner, SETUP_REPS, importtime=False)
    reps = []
    t0 = perf_counter()
    while len(reps) < MIN_REPS or fits(perf_counter() - t0, len(reps), seconds):
        reps.append(sequence_totals(runner.sequence(workload.ops)))
    samples = {name: [rep[name] for rep in reps] for name in reps[0]}
    samples["setup_s"] = [p.ref_wall_s for p in setup]
    samples["raw_setup_s"] = [p.wall_s for p in setup]
    print(f"medians of {len(reps)} sequences and {len(setup)} cold imports; "
          "times at reference host speed (speed.py), raw_* as measured")
    for name, vals in samples.items():
        print(f"{name}: {median(vals):.6f} {unit_of(name)}, samples: "
              + ", ".join(f"{v:.4f}" for v in vals))
    return {name: median(vals) for name, vals in samples.items()}


def traced_run(runner: Runner, workload, seconds: float, trace_file: Path) -> tuple[dict, bool]:
    breakdowns = [import_breakdown(p.stderr) for p in setup_runs(runner, IMPORTTIME_REPS, True)]
    plain, traced = [], []
    t0 = perf_counter()
    while not traced or fits(perf_counter() - t0, len(traced), seconds):
        plain.append(runner.sequence(workload.ops))
        traced.append(runner.sequence(workload.ops, traced=True))
    per_rep = [layer_values(seq) for seq in traced]
    names = sorted(set().union(*per_rep))
    steady = True
    values = {}
    for name in names:
        samples = [rep.get(name, 0.0) for rep in per_rep]
        if is_time(name):
            values[name] = median(samples)
        else:
            if len(set(samples)) > 1:
                steady = False
                print(f"count {name} differs between traced sequences: {samples}", file=sys.stderr)
            values[name] = samples[0]
    for name in breakdowns[0]:
        values[name] = median([b[name] for b in breakdowns])
    values["trace.overhead_s"] = (median([sequence_totals(s)["wall_s"] for s in traced])
                                  - median([sequence_totals(s)["wall_s"] for s in plain]))
    trace_file.write_text(json.dumps({
        "sequences": len(traced),
        "values": values,
        "commands": [{"label": r.op.label, "trace": r.spans} for r in traced[-1]],
    }, indent=1, sort_keys=True) + "\n")
    print(f"per-layer metrics, {len(traced)} traced and {len(plain)} untraced sequences "
          f"(times are medians, counts must repeat exactly); spans in {trace_file.relative_to(ROOT)}")
    for name in sorted(values):
        print(f"  {name}: {values[name]:.9g} {unit_of(name)}")
    return values, steady


# ---------------------------------------------------------------------- #
# driver


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def run_record(runner: Runner, args) -> dict:
    probe = runner.python(["-c", PROBE], runner.run_dir / "probe")
    if probe.returncode != 0:
        raise BenchError(f"version probe failed: {probe.stderr.strip()[-400:]}")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": commit(), "src_sha256": src_digest(),
        **json.loads(probe.stdout),
        "blas_threads": {k: os.environ.get(k, "default (unset)") for k in BLAS_ENV},
        "nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def select(values: dict, entries: list[dict]) -> dict:
    out = {}
    for entry in entries:
        name = entry["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        if entry["unit"] != unit_of(name):
            raise BenchError(f"metric {name} has unit {unit_of(name)}, spec says {entry['unit']}")
        out[name] = {"value": values[name], "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hardyshift" / "cli.py").is_file():
        print(f"error: no hardyshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        with SpeedProbe() as probe:
            spec = load_spec()
            runner = Runner(run_dir, args.seed, probe)
            record = run_record(runner, args)
            print("run record: " + json.dumps(record, sort_keys=True))
            runner.sequence(workload.warmup)  # untimed
            if args.trace:
                trace_file = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
                values, steady = traced_run(runner, workload, args.seconds, trace_file)
                metrics = select(values, spec["per_layer"])
            else:
                steady = True
                metrics = select(timed_run(runner, workload, args.seconds), spec["end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed_ops = runner.failed / runner.attempted
    print(f"failed_ops: {failed_ops:.6g} ratio ({runner.failed} of {runner.attempted} commands)")
    correct = steady and runner.failed == 0
    record.update(correct=correct, attempted=runner.attempted, failed=runner.failed,
                  metrics=metrics)
    with open(WORK_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
