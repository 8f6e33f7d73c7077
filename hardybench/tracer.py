"""Run one hardyshift CLI command with per-layer spans.

    python hardybench/tracer.py SPANS.json <cli arguments...>

Wraps the public functions of each hardyshift module, runs
`hardyshift.cli.main`, and writes the aggregated spans to SPANS.json
when the command ends.  The program itself is not modified: wrappers are
installed from outside, on every module attribute that refers to the
wrapped object, so calls through `from .grids import refined_supremum`
are traced as well.

Spans are aggregated in memory per name (calls, total time, self time)
and per parent -> child edge.  Self time is a span's duration minus the
time covered by the spans it directly encloses.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = [["root", 0.0]]  # [name, child time]

    def wrap(self, name: str, fn, before=None):
        """Span around fn; before(args, kwargs) may count or replace arguments."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, edges = self._stack, self.edges

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1]
            edges[f"{parent[0]}>{name}"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                parent[1] += dt

        return functools.update_wrapper(traced, fn)

    def to_dict(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in self.spans.items()},
            "edges": dict(self.edges),
            "counters": dict(self.counters),
        }


def _replace_everywhere(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> dict:
    """Wrap the hardyshift layers; returns the objects read back at exit."""
    import hardyshift.cli  # noqa: F401  (imports every module of the package)
    from hardyshift import carleson, cli, construction, grids, operators, series, spectral, weights

    modules = [m for n, m in sys.modules.items() if n == "hardyshift" or n.startswith("hardyshift.")]
    count = tracer.counters
    for name in ("series.eval.points", "series.eval.single_point_calls",
                 "grids.refined_supremum.fn_evals", "grids.refined_supremum.polish_evals",
                 "weights.weight_range.elements"):
        count[name] = 0

    def function(module, attr, before=None):
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[-1]
        _replace_everywhere(modules, original, tracer.wrap(f"{layer}.{attr}", original, before))

    def method(cls, attr, name, before=None):
        wrapped = tracer.wrap(name, cls.__dict__[attr], before)
        setattr(cls, attr, wrapped)
        return wrapped

    # series: one-point versus bulk evaluation
    def eval_points(args, kwargs):
        n = int(np.size(args[1] if len(args) > 1 else kwargs["s"]))
        count["series.eval.points"] += n
        count["series.eval.single_point_calls"] += n == 1
        return args, kwargs

    RS = series.RadialSeries
    RS.__call__ = method(RS, "eval", "series.eval", eval_points)
    for attr in ("d_ds", "laplacian", "grad_sq", "multiply", "add", "times_one_minus_s"):
        method(RS, attr, f"series.{attr}")

    # grids: count evaluations of the function handed to refined_supremum
    def count_fn_evals(args, kwargs):
        fn = args[0]

        def counted(r):
            count["grids.refined_supremum.fn_evals"] += 1
            count["grids.refined_supremum.polish_evals"] += int(np.size(r)) == 1
            return fn(r)

        return (counted,) + tuple(args[1:]), kwargs

    function(grids, "refined_supremum", count_fn_evals)
    for attr in ("boundary_refined_grid", "merge_grids", "peak_candidates", "sign_change_brackets"):
        function(grids, attr)

    # construction: lemma_bounds is wrapped outside its lru_cache, so its
    # calls count cache hits too; misses come from cache_info() at exit
    lemma_cache = construction.lemma_bounds
    for attr in ("lemma_bounds", "spike_gate", "spike_budget", "select_spike_positions",
                 "measure_spike_conditions", "verify_f_conditions", "verify_theorem_conditions",
                 "bump_laplacian_carleson_bound", "bump_gradient_sq_carleson_bound"):
        function(construction, attr)
    method(construction.ConstructionConfig, "weights", "construction.config_weights")

    # carleson: exact windows, quadrature windows and the cached sign roots
    method(carleson.SeriesGapDensity, "window_integral", "carleson.exact_window")
    method(carleson.RadialDensity, "window_integral", "carleson.quad_window")
    roots = carleson.SeriesGapDensity.__dict__["sign_roots"]
    traced_roots = functools.cached_property(tracer.wrap("carleson.sign_roots", roots.func))
    traced_roots.__set_name__(carleson.SeriesGapDensity, "sign_roots")
    carleson.SeriesGapDensity.sign_roots = traced_roots
    for attr in ("carleson_norm", "radial_carleson_norm"):
        function(carleson, attr)

    for attr in ("ratio_log_laplacian", "kernel_ratio_series", "kernel_diagonal_series",
                 "curvature_samples", "curvature_difference", "curvature_weighted",
                 "spike_ratio_term", "deficit_coefficients"):
        function(spectral, attr)

    for attr in ("coisometry_check", "orbit_norms", "norm_w"):
        function(operators, attr)

    def count_elements(args, kwargs):
        count["weights.weight_range.elements"] += int(args[2]) - int(args[1])
        return args, kwargs

    method(weights.WeightSequence, "weight_range", "weights.weight_range", count_elements)
    function(weights, "build_spiked_weights")

    function(cli, "main")
    return {"main": cli.main, "lemma_cache": lemma_cache}


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    hooks = install(tracer)
    try:
        return hooks["main"](cli_args)
    finally:
        tracer.counters["construction.lemma_bounds.misses"] = hooks["lemma_cache"].cache_info().misses
        with open(spans_path, "w") as fh:
            json.dump(tracer.to_dict(), fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
