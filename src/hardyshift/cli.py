"""Command line front end.

Subcommands mirror the library stages: construct picks spike positions
and writes the config JSON plus a per-spike certificate table, verify
measures the flatness conditions and the coisometry band (exact, from
the weight slopes), lemma tabulates single-bump decay, curvature and
orbit and weights dump sample tables.  All file output is deterministic
byte for byte at fixed inputs (floats use 17 significant digits); each
run also writes a manifest listing the produced files with digests,
whose elapsed-time field is the only thing allowed to differ between
identical runs.  construct and lemma run on hardyshift.search alone:
numpy and the verifier are imported inside the subcommands that use them.

Exit codes: 0 success, 2 a measured condition failed its threshold,
3 bad input (a table too large for memory included), 4 numerical
infeasibility (truncation or search caps, route disagreement).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Sequence

from . import __version__
from .search import (
    ConstructionConfig,
    Decay,
    DecompositionMismatchError,
    InfeasibleConstructionError,
    TruncationError,
    lemma_bounds,
    bump_gradient_sq_carleson_bound,
    bump_laplacian_carleson_bound,
    delta_for_epsilon,
    spike_gate,
)

EXIT_OK = 0
EXIT_CONDITION_FAILED = 2
EXIT_BAD_INPUT = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is taken
    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


# floats are written to 17 significant digits, enough to round-trip every
# binary64; integers and text as given
_format_float = "%.17g".__mod__


def _write_csv(path: Path, columns: dict[str, Sequence]) -> None:
    """Write equal-length named columns as one CSV.

    Each column is a list or an array, read through tolist(), of one kind
    of value: int, float or str.  Its format is picked once, from the
    Python type of its first value, rather than cell by cell.
    """
    cells = []
    for values in columns.values():
        values = values.tolist() if hasattr(values, "tolist") else list(values)
        float_column = bool(values) and isinstance(values[0], float)
        cells.append(map(_format_float if float_column else str, values))
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _write_manifest(out: Path, command: str, params: dict, files: list[Path],
                    started: float, config_path: str | None = None) -> None:
    entries = []
    for p in files:
        data = p.read_bytes()
        entries.append({
            "name": p.name,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })
    _write_json(out / f"{command}_manifest.json", {
        "command": command,
        "version": __version__,
        "config_path": config_path,
        "parameters": params,
        "outputs": entries,
        "elapsed_seconds": time.time() - started,  # excluded from determinism
    })


def _load_config(path: str) -> ConstructionConfig:
    return ConstructionConfig.from_json(Path(path).read_text())


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------- #
# subcommands


def _cmd_construct(args) -> int:
    started = time.time()
    out = _out_dir(args)
    if args.delta is not None:
        delta = args.delta
    else:
        delta = delta_for_epsilon(args.epsilon)
    config = ConstructionConfig.plan(args.alpha, delta, args.K,
                                     r_max=args.rmax, tol=args.tol)

    # per-spike certificate: the gate bounds the search actually used, for
    # every metric but value_sup, which shares the laplacian_sup budget
    spikes = config.weights().spikes
    gates = [spike_gate(args.alpha, delta, sp) for sp in spikes]
    columns = {"k": [sp.half_width for sp in spikes], "start": [sp.start for sp in spikes]}
    for name in Decay._fields[1:]:
        columns[f"threshold_{name}"] = [getattr(g.thresholds, name) for g in gates]
        columns[f"bound_{name}"] = [getattr(g.values, name) for g in gates]
    cert_path = out / "certificate.csv"
    _write_csv(cert_path, columns)

    config_path = out / "config.json"
    config_path.write_text(config.to_json() + "\n")
    print(config.to_json())
    _write_manifest(out, "construct", {
        "alpha": args.alpha, "delta": delta, "epsilon": args.epsilon,
        "K": args.K, "rmax": args.rmax, "tol": args.tol,
    }, [config_path, cert_path], started)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .construction import ConditionResult, verify_f_conditions, verify_theorem_conditions
    from .operators import BAND_THRESHOLD, coisometry_check

    started = time.time()
    if args.epsilon is not None:
        delta_for_epsilon(args.epsilon)  # rejects a bad epsilon before the measurement
    out = _out_dir(args)
    config = _load_config(args.config)
    reports = {"ratio_flatness": verify_f_conditions(config)}
    if args.epsilon is not None:
        reports["curvature_match"] = verify_theorem_conditions(config, args.epsilon)

    band = coisometry_check(config.weights())
    # the two-sided band as one upper-bounded deviation
    coisometry = [ConditionResult(condition="coisometry_band", threshold=BAND_THRESHOLD,
                                  measured=band.deviation, argmax_r=None, passed=band.passed)]
    conditions = [c for rep in reports.values() for c in rep.conditions] + coisometry
    for cond in conditions:
        status = "PASS" if cond.passed else "FAIL"
        print(f"{status} {cond.condition}: measured {cond.measured:.10g} "
              f"vs threshold {cond.threshold:.10g}")

    all_passed = all(c.passed for c in conditions)
    csv_path = out / "conditions.csv"
    _write_csv(csv_path, {
        "condition": [c.condition for c in conditions],
        "threshold": [c.threshold for c in conditions],
        "measured": [c.measured for c in conditions],
        # rows with no argmax (Carleson masses, the band) leave the cell empty
        "argmax_r": ["" if c.argmax_r is None else _format_float(c.argmax_r)
                     for c in conditions],
        "pass": ["true" if c.passed else "false" for c in conditions],
    })
    json_path = out / "report.json"
    _write_json(json_path, {
        "passed": all_passed,
        "seed": args.seed,
        "reports": {name: r.to_dict() for name, r in reports.items()},
        "coisometry": [c.to_dict() for c in coisometry],
    })
    _write_manifest(out, "verify", {
        "config": config.to_dict(), "epsilon": args.epsilon, "seed": args.seed,
    }, [csv_path, json_path], started, config_path=args.config)
    print("all conditions pass" if all_passed else "CONDITION FAILURES")
    unmeasured = [c.condition for c in conditions if not math.isfinite(c.measured)]
    if unmeasured:
        print(f"numerical infeasibility: not finite: {', '.join(unmeasured)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK if all_passed else EXIT_CONDITION_FAILED


def _cmd_lemma(args) -> int:
    started = time.time()
    out = _out_dir(args)
    powers = list(args.powers)
    reports = [lemma_bounds(n) for n in powers]
    for n, rep in zip(powers, reports):
        print(f"n={n}: sup {rep.value_sup:.6g}, laplacian sup {rep.laplacian_sup:.6g}, "
              f"laplacian mass {rep.laplacian_carleson:.6g}")
    # lemma.csv keeps its own column names; it tabulates the square of the
    # gradient sup, which scales like 1/n^2 as the gradient mass does
    columns = {
        "n": powers,
        "sup_value": [rep.value_sup for rep in reports],
        "sup_laplacian": [rep.laplacian_sup for rep in reports],
        "sup_grad_sq": [rep.gradient_sup ** 2 for rep in reports],
        "carl_laplacian": [rep.laplacian_carleson for rep in reports],
        "carl_grad_sq": [rep.gradient_sq_carleson for rep in reports],
        "carl_laplacian_bound": [bump_laplacian_carleson_bound(n) for n in powers],
        "carl_grad_sq_bound": [bump_gradient_sq_carleson_bound(n) for n in powers],
    }
    path = out / "lemma.csv"
    _write_csv(path, columns)
    _write_manifest(out, "lemma", {"powers": powers}, [path], started)
    return EXIT_OK


def _cmd_curvature(args) -> int:
    import numpy as np

    from .grids import boundary_refined_grid
    from .spectral import curvature_difference, curvature_samples

    started = time.time()
    if not 0.0 < args.rmax < 1.0:
        raise ValueError(f"rmax must lie in (0, 1), got {args.rmax}")
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    out = _out_dir(args)
    config = _load_config(args.config)
    weights = config.weights()
    u_max = -np.log2(1.0 - args.rmax)
    grid = boundary_refined_grid(args.points, u_max)
    samples = curvature_samples(weights, grid)
    # route agreement spot check on a subsample
    spot = grid[:: max(1, len(grid) // 16)]
    curvature_difference(weights, spot)
    # numpy's ** 2 is the correctly rounded square, libm pow is not
    gap_sq = samples.difference * (1.0 - samples.r) ** 2
    path = out / "curvature.csv"
    _write_csv(path, {**samples._asdict(), "difference_gap_sq": gap_sq})
    print(f"wrote {len(grid)} curvature samples to {path}")
    _write_manifest(out, "curvature", {
        "config": config.to_dict(), "points": args.points,
        "rmax": args.rmax,
    }, [path], started, config_path=args.config)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    import numpy as np

    from .operators import orbit_norms

    started = time.time()
    out = _out_dir(args)
    config = _load_config(args.config)
    norms = orbit_norms(config.weights(), [1.0], args.n_max)
    path = out / "orbit.csv"
    _write_csv(path, {"n": np.arange(len(norms)), "orbit_norm": norms})
    print(f"wrote orbit norms 0..{args.n_max} to {path}; "
          f"max {float(np.max(norms)):.10g}")
    _write_manifest(out, "orbit", {
        "config": config.to_dict(), "n_max": args.n_max,
    }, [path], started, config_path=args.config)
    return EXIT_OK


def _cmd_weights(args) -> int:
    import numpy as np

    started = time.time()
    if args.n_max is not None and args.n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {args.n_max}")
    out = _out_dir(args)
    config = _load_config(args.config)
    weights = config.weights()
    n_max = args.n_max if args.n_max is not None else weights.last_index + 2
    path = out / "weights.csv"
    _write_csv(path, {"n": np.arange(n_max + 1), "weight": weights.weight_range(0, n_max + 1)})
    print(f"wrote weights 0..{n_max} to {path}")
    _write_manifest(out, "weights", {
        "config": config.to_dict(), "n_max": n_max,
    }, [path], started, config_path=args.config)
    return EXIT_OK


# ---------------------------------------------------------------------- #
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="hardyshift",
                     description="spiked-weight backward shifts with flat curvature")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("construct", help="choose spike positions for a budget")
    p.add_argument("--alpha", type=float, required=True, help="slope parameter, > 0")
    budget = p.add_mutually_exclusive_group(required=True)
    budget.add_argument("--delta", type=float, help="correction budget in (0, 1)")
    budget.add_argument("--epsilon", type=float,
                        help="flatness level; mapped to delta = min(eps/(1+eps), eps/4)")
    p.add_argument("--K", type=int, required=True, dest="K", help="number of spikes, 0..8")
    p.add_argument("--rmax", type=float, default=0.999, help="kernel-ratio check radius, in (0, 1)")
    p.add_argument("--tol", type=float, default=1e-9, help="allowed kernel-ratio error on r <= rmax")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="measure flatness conditions for a config")
    p.add_argument("config", help="path to config JSON")
    p.add_argument("--epsilon", type=float, default=None,
                   help="also certify the curvature match at this level")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in report.json and the manifest; affects no check")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lemma", help="tabulate single-bump decay quantities; "
                                     "CSV columns: n, sup_value, sup_laplacian, sup_grad_sq, "
                                     "carl_laplacian, carl_grad_sq, and the two closed-form bounds")
    p.add_argument("powers", type=int, nargs="+", help="bump powers to tabulate")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("curvature", help="sample both curvatures on a radial grid; "
                                         "CSV columns: r, kappa_reference, kappa_weighted, "
                                         "difference, difference_gap_sq")
    p.add_argument("config", help="path to config JSON")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--rmax", type=float, default=0.999)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("orbit", help="norms along the adjoint orbit of the first basis "
                                     "vector; CSV columns: n, orbit_norm")
    p.add_argument("config", help="path to config JSON")
    p.add_argument("n_max", type=int, help="largest orbit power")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("weights", help="dump the weight sequence; CSV columns: n, weight")
    p.add_argument("config", help="path to config JSON")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_weights)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleConstructionError, TruncationError, DecompositionMismatchError) as exc:
        print(f"numerical infeasibility: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as exc:
        # a table sized by --n-max, n_max or --points that cannot be held;
        # numpy's message names the size it tried to allocate
        print(f"input error: table too large for memory: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
