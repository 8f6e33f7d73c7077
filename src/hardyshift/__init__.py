"""Weighted backward shifts with spiked weights and flat bundle curvature.

Build weight sequences whose backward shift keeps the curvature of its
eigenvector bundle within any prescribed distance of the unweighted
shift's curvature (1 - |z|^2)^{-2}, in both the pointwise and the
Carleson-mass sense.  With K spikes the shift is similar to S*, with
constant (1+alpha)^K; that constant is unbounded in K, so the limiting
operator is not power bounded, hence not similar to S*.
"""

import importlib

# where each top-level name lives; a name is imported from its submodule on
# first access (PEP 562), so `import hardyshift` loads no submodule, and
# names from hardyshift.search, hardyshift.weights, hardyshift.operators,
# hardyshift.carleson and hardyshift.construction load no numpy (the
# operators' vector functions and the carleson densities import it when called)
_SUBMODULES = {
    "search": (
        "ConstructionConfig", "DecompositionMismatchError", "InfeasibleConstructionError",
        "TruncationError", "bump_gradient_sq_carleson_bound", "bump_laplacian_carleson_bound",
        "bump_peak", "deficit_coefficients", "delta_for_epsilon", "edge_integral_exact",
        "lemma_bounds", "select_spike_positions", "spike_budget",
        "spike_correction_thresholds", "spike_gate", "spike_kernel_term", "spike_ratio_term",
    ),
    "weights": ("SpikeSpec", "WeightSequence", "build_spiked_weights"),
    "series": ("RadialSeries",),
    "carleson": ("RadialDensity", "radial_carleson_norm"),
    "construction": ("verify_f_conditions", "verify_theorem_conditions"),
    "operators": ("backward_shift", "coisometry_check", "forward_shift", "inner_w", "norm_w",
                  "orbit_norms"),
    "spectral": (
        "curvature_backward_shift", "curvature_difference", "curvature_samples",
        "curvature_weighted", "kernel_diagonal_series", "kernel_eval", "kernel_ratio_series",
        "ratio_log_laplacian",
    ),
}
_ORIGIN = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
