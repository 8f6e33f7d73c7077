"""Weighted backward shifts with spiked weights and flat bundle curvature.

Build weight sequences whose backward shift is power bounded yet not
similar to a contraction, while the curvature of its eigenvector bundle
stays within any prescribed distance of the unweighted shift's curvature
(1 - |z|^2)^{-2}, in both the pointwise and the Carleson-mass sense.
"""

from .carleson import (
    RadialDensity,
    carleson_norm,
    dyadic_t_grid,
    edge_integral,
    edge_integral_exact,
    edge_integral_partial,
    radial_carleson_norm,
    window_measure,
    window_quotient,
)
from .construction import (
    ConstructionConfig,
    InfeasibleConstructionError,
    lemma_bounds,
    bump_gradient_sq_carleson_bound,
    bump_laplacian_carleson_bound,
    bump_peak,
    delta_for_epsilon,
    select_spike_positions,
    spike_budget,
    spike_correction_thresholds,
    spike_gate,
    verify_theorem_conditions,
    verify_f_conditions,
)
from .operators import (
    backward_shift,
    coisometry_check,
    forward_shift,
    inner_w,
    norm_w,
    orbit_norms,
)
from .series import RadialSeries, TruncationError
from .spectral import (
    DecompositionMismatchError,
    curvature_backward_shift,
    curvature_difference,
    curvature_samples,
    curvature_weighted,
    deficit_coefficients,
    kernel_diagonal_series,
    kernel_eval,
    kernel_ratio_series,
    ratio_log_laplacian,
    spike_kernel_term,
    spike_ratio_term,
)
from .weights import SpikeSpec, WeightSequence, build_spiked_weights, slope_report

__version__ = "0.1.0"

__all__ = [
    "ConstructionConfig",
    "DecompositionMismatchError",
    "InfeasibleConstructionError",
    "RadialDensity",
    "RadialSeries",
    "SpikeSpec",
    "TruncationError",
    "WeightSequence",
    "backward_shift",
    "build_spiked_weights",
    "lemma_bounds",
    "bump_gradient_sq_carleson_bound",
    "bump_laplacian_carleson_bound",
    "bump_peak",
    "carleson_norm",
    "coisometry_check",
    "curvature_backward_shift",
    "curvature_difference",
    "curvature_samples",
    "curvature_weighted",
    "deficit_coefficients",
    "delta_for_epsilon",
    "dyadic_t_grid",
    "edge_integral",
    "edge_integral_exact",
    "edge_integral_partial",
    "forward_shift",
    "inner_w",
    "kernel_diagonal_series",
    "kernel_eval",
    "kernel_ratio_series",
    "norm_w",
    "orbit_norms",
    "radial_carleson_norm",
    "ratio_log_laplacian",
    "select_spike_positions",
    "slope_report",
    "spike_budget",
    "spike_correction_thresholds",
    "spike_gate",
    "spike_kernel_term",
    "spike_ratio_term",
    "verify_theorem_conditions",
    "verify_f_conditions",
    "window_measure",
    "window_quotient",
]
