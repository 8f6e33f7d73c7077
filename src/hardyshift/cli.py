"""Command line front end.

Subcommands mirror the library stages: construct picks spike positions
and writes the config JSON plus a per-spike certificate table, verify
measures the flatness conditions and the coisometry band (exact, from
the weight slopes), lemma tabulates single-bump decay, curvature and
orbit and weights dump sample tables.  All file output is deterministic
byte for byte at fixed inputs (floats use 17 significant digits); each
run also writes a manifest listing the produced files with digests,
whose elapsed-time field is the only thing allowed to differ between
identical runs.  construct and lemma run on hardyshift.search alone,
orbit and weights on hardyshift.weights and hardyshift.operators, and
verify on hardyshift.construction and hardyshift.carleson, all on the
standard library.  Only curvature loads numpy; it and the verifier are
imported inside the subcommands that use them.  No command calls a BLAS
routine, so curvature asks OpenBLAS for one thread unless
OPENBLAS_NUM_THREADS is set: the worker numpy's import starts on each
further core spun idle.

main reads the config and writes every file.  It calls each subcommand
as _cmd_x(args, config), with the config it read once for verify,
curvature, orbit and weights and None for construct and lemma, and gets
back (status, files, params, done): the exit status, the files as
{name: chunks of text}, the subcommand's own manifest parameters and the
text to print once the files are written: the config JSON of construct,
the report lines of lemma, the condition lines of verify, the
"wrote ..." line of a table command.  A CSV's chunks are its header and
then blocks of _CSV_ROWS rows, each formatted only when main asks for
it, so no table's text is held whole; a JSON file is one chunk.  main
makes the --out directory, opens each file once and writes its chunks,
feeding one sha256 and one byte count as it goes, then writes
<command>_manifest.json with those sizes and digests, the config path
and the config itself first among the parameters, and prints the text.
A subcommand computes every value before it returns, so a command that
fails before it returns leaves no --out directory and prints nothing on
stdout, while verify's exit 2 or 4, which it returns after measuring,
still writes its files; for a row that is not finite its status is a
NumericalInfeasibility, which main raises once the files and stdout are
written.  Only main, through its argument parser too, writes to stderr.
The manifest's elapsed_seconds runs from the parsed arguments to the
manifest, the config's read and the subcommand's lazy imports included.

Exit codes: 0 success, 2 a measured condition failed its threshold,
3 bad input (a table too large for memory and a config nested too deep
included), 4 numerical infeasibility: NumericalInfeasibility and its
subclasses (truncation or search cap, unconverged root search or
quadrature, route disagreement, a row that is not finite).  Any other
exception is a fault of the program: its traceback and exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Iterator, Sequence

from . import __version__
from .search import (
    ConstructionConfig,
    Decay,
    NumericalInfeasibility,
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


# rows per chunk of a CSV's text: a table is never formatted whole
_CSV_ROWS = 4096


def _csv(columns: dict[str, Sequence]) -> Iterator[str]:
    """Equal-length named columns as the text of one CSV: the header, then
    one chunk of _CSV_ROWS rows at a time.

    Each column is a list, a range or an array of one kind of value: int,
    float or str.  Its format is picked once, from the Python type of its
    first value (through tolist() for an array): %.17g for floats, %s
    otherwise.  Each chunk slices every column, interleaves the slices into
    one flat tuple and formats them with one %.
    """
    def cells(column, start, stop):
        part = column[start:stop]
        return part.tolist() if hasattr(part, "tolist") else list(part)

    values = list(columns.values())
    width, rows = len(values), len(values[0]) if values else 0
    firsts = [cells(c, 0, 1) for c in values]
    row = ",".join("%.17g" if f and isinstance(f[0], float) else "%s" for f in firsts) + "\n"
    yield ",".join(columns) + "\n"
    for start in range(0, rows, _CSV_ROWS):
        parts = [cells(c, start, start + _CSV_ROWS) for c in values]
        flat = [None] * (width * len(parts[0]))
        for i, part in enumerate(parts):
            flat[i::width] = part
        yield row * len(parts[0]) % tuple(flat)


# ---------------------------------------------------------------------- #
# subcommands: _cmd_x(args, config) -> (status, files, params, done), as
# the module docstring sets out


def _cmd_construct(args, _):
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

    text = config.to_json()
    files = {"config.json": [text + "\n"], "certificate.csv": _csv(columns)}
    return EXIT_OK, files, {"alpha": args.alpha, "delta": delta, "epsilon": args.epsilon,
                            "K": args.K, "rmax": args.rmax, "tol": args.tol}, text


def _cmd_verify(args, config):
    from .construction import ConditionResult, verify_f_conditions, verify_theorem_conditions
    from .operators import BAND_THRESHOLD, coisometry_check

    if args.epsilon is not None:
        delta_for_epsilon(args.epsilon)  # rejects a bad epsilon before the measurement
    reports = {"ratio_flatness": verify_f_conditions(config)}
    if args.epsilon is not None:
        reports["curvature_match"] = verify_theorem_conditions(config, args.epsilon)

    band = coisometry_check(config.weights())
    # the two-sided band as one upper-bounded deviation
    coisometry = [ConditionResult(condition="coisometry_band", threshold=BAND_THRESHOLD,
                                  measured=band.deviation, argmax_r=None, passed=band.passed)]
    conditions = [c for rep in reports.values() for c in rep.conditions] + coisometry
    all_passed = all(c.passed for c in conditions)
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.condition}: measured {c.measured:.10g} "
             f"vs threshold {c.threshold:.10g}" for c in conditions]
    lines.append("all conditions pass" if all_passed else "CONDITION FAILURES")
    files = {
        "conditions.csv": _csv({
            "condition": [c.condition for c in conditions],
            "threshold": [c.threshold for c in conditions],
            "measured": [c.measured for c in conditions],
            # rows with no argmax (Carleson masses, the band) leave the cell empty
            "argmax_r": ["" if c.argmax_r is None else "%.17g" % c.argmax_r
                         for c in conditions],
            "pass": ["true" if c.passed else "false" for c in conditions],
        }),
        "report.json": [json.dumps({
            "passed": all_passed,
            "seed": args.seed,
            "reports": {name: r.to_dict() for name, r in reports.items()},
            "coisometry": [c.to_dict() for c in coisometry],
        }, indent=2) + "\n"],
    }
    code = EXIT_OK if all_passed else EXIT_CONDITION_FAILED
    unmeasured = [c.condition for c in conditions if not math.isfinite(c.measured)]
    if unmeasured:  # main raises it once the measured rows are written
        code = NumericalInfeasibility(f"not finite: {', '.join(unmeasured)}")
    return code, files, {"epsilon": args.epsilon, "seed": args.seed}, "\n".join(lines)


def _cmd_lemma(args, _):
    powers = list(args.powers)
    reports = [lemma_bounds(n) for n in powers]
    done = "\n".join(f"n={n}: sup {rep.value_sup:.6g}, laplacian sup {rep.laplacian_sup:.6g}, "
                     f"laplacian mass {rep.laplacian_carleson:.6g}"
                     for n, rep in zip(powers, reports))
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
    return EXIT_OK, {"lemma.csv": _csv(columns)}, {"powers": powers}, done


def _cmd_curvature(args, config):
    # checked before numpy's import, which a bad value need not pay
    if not 0.0 < args.rmax < 1.0:
        raise ValueError(f"--rmax must lie in (0, 1), got {args.rmax}")
    if 1.0 - args.rmax == 1.0:
        # the grid would end at u = -log2(1 - rmax) = 0
        raise ValueError(f"--rmax must exceed 2**-54, got {args.rmax}: 1 - rmax rounds to 1")
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    weights = config.weights()

    # no command calls BLAS; OpenBLAS's idle pool cost about 0.13 s of CPU a run
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np

    from .grids import boundary_refined_grid
    from .spectral import curvature_difference, curvature_samples

    u_max = -np.log2(1.0 - args.rmax)
    grid = boundary_refined_grid(args.points, u_max)
    samples = curvature_samples(weights, grid)
    # route agreement spot check on a subsample, with the config's kernel-ratio check
    spot = grid[:: max(1, len(grid) // 16)]
    curvature_difference(weights, spot, config.r_max, config.tol)
    # numpy's ** 2 is the correctly rounded square, libm pow is not
    gap_sq = samples.difference * (1.0 - samples.r) ** 2
    files = {"curvature.csv": _csv({**samples._asdict(), "difference_gap_sq": gap_sq})}
    done = f"wrote {len(grid)} curvature samples to {Path(args.out) / 'curvature.csv'}"
    return EXIT_OK, files, {"points": args.points, "rmax": args.rmax}, done


def _cmd_orbit(args, config):
    from .operators import orbit_norms

    norms = orbit_norms(config.weights(), [1.0], args.n_max)
    files = {"orbit.csv": _csv({"n": range(len(norms)), "orbit_norm": norms})}
    done = (f"wrote orbit norms 0..{args.n_max} to {Path(args.out) / 'orbit.csv'}; "
            f"max {max(norms):.10g}")
    return EXIT_OK, files, {"n_max": args.n_max}, done


def _cmd_weights(args, config):
    if args.n_max is not None and args.n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {args.n_max}")
    weights = config.weights()
    n_max = args.n_max if args.n_max is not None else weights.last_index + 2
    files = {"weights.csv": _csv({"n": range(n_max + 1),
                                  "weight": weights.weight_range(0, n_max + 1)})}
    done = f"wrote weights 0..{n_max} to {Path(args.out) / 'weights.csv'}"
    return EXIT_OK, files, {"n_max": n_max}, done


# ---------------------------------------------------------------------- #
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="hardyshift",
                     description="spiked-weight backward shifts with flat curvature")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, help, config=False):
        p = sub.add_parser(name, help=help)
        if config:  # main reads it
            p.add_argument("config", help="path to config JSON")
        p.set_defaults(func=func)
        return p

    p = command("construct", _cmd_construct, "choose spike positions for a budget")
    p.add_argument("--alpha", type=float, required=True, help="slope parameter, > 0")
    budget = p.add_mutually_exclusive_group(required=True)
    budget.add_argument("--delta", type=float, help="correction budget in (0, 1)")
    budget.add_argument("--epsilon", type=float,
                        help="flatness level; mapped to delta = min(eps/(1+eps), eps/4)")
    p.add_argument("--K", type=int, required=True, dest="K", help="number of spikes, >= 0")
    p.add_argument("--rmax", type=float, default=0.999, help="kernel-ratio check radius, in (0, 1)")
    p.add_argument("--tol", type=float, default=1e-9, help="allowed kernel-ratio error on r <= rmax")

    p = command("verify", _cmd_verify, "measure flatness conditions for a config", config=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="also bound the ratio band and curvature rows at this level")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in report.json and the manifest; affects no check")

    p = command("lemma", _cmd_lemma, "tabulate single-bump decay quantities; "
                                     "CSV columns: n, sup_value, sup_laplacian, sup_grad_sq, "
                                     "carl_laplacian, carl_grad_sq, and the two closed-form bounds")
    p.add_argument("powers", type=int, nargs="+", help="bump powers to tabulate")

    p = command("curvature", _cmd_curvature, "sample both curvatures on a radial grid; "
                                             "CSV columns: r, kappa_reference, kappa_weighted, "
                                             "difference, difference_gap_sq", config=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--rmax", type=float, default=0.999)

    p = command("orbit", _cmd_orbit, "norms along the adjoint orbit of the first basis "
                                     "vector; CSV columns: n, orbit_norm", config=True)
    p.add_argument("n_max", type=int, help="largest orbit power")

    p = command("weights", _cmd_weights, "dump the weight sequence; CSV columns: n, weight",
                config=True)
    p.add_argument("--n-max", type=int, default=None)

    for p in sub.choices.values():  # last, as each --help lists it
        p.add_argument("--out", default=".")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.time()
    try:
        config_path = getattr(args, "config", None)
        config = (None if config_path is None
                  else ConstructionConfig.from_json(Path(config_path).read_text()))
        status, files, params, done = args.func(args, config)
        if config is not None:
            params = {"config": config.to_dict(), **params}
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        outputs = []
        for name, chunks in files.items():
            digest, size = hashlib.sha256(), 0
            with open(out / name, "wb") as f:
                for chunk in chunks:
                    data = chunk.encode()
                    f.write(data)
                    digest.update(data)
                    size += len(data)
            outputs.append({"name": name, "bytes": size, "sha256": digest.hexdigest()})
        manifest = {
            "command": args.command,
            "version": __version__,
            "config_path": config_path,
            "parameters": params,
            "outputs": outputs,
            "elapsed_seconds": time.time() - started,  # excluded from determinism
        }
        (out / f"{args.command}_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        if done:
            print(done)
        if isinstance(status, NumericalInfeasibility):
            raise status
        return status
    except NumericalInfeasibility as exc:
        print(f"numerical infeasibility: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as exc:
        # a table sized by --n-max, n_max or --points that cannot be held;
        # numpy's message names the size it tried to allocate, a list's is empty
        print("input error: table too large for memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
