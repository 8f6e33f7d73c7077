"""The sampled route to the theorem rows, an oracle for their corollary.

verify_theorem_conditions bounds its three rows by the five rows of f - 1.
This module measures the same three quantities by sampling instead:
max(f, 1/f) and |Delta log f| (1 - r)^2 by refined_supremum on an 801-point
boundary-refined r-grid plus the bump peak radii, and the Carleson mass
2 pi integral |Delta log f| (1 - r) r dr by Gauss-Kronrod quadrature split at
the sign roots of Delta log f.  Each sampled value is a lower estimate of
what the corollary bounds.
"""

import math
from typing import NamedTuple, Sequence

import numpy as np

from hardyshift.carleson import TWO_PI, RadialDensity
from hardyshift.grids import boundary_refined_grid, merge_grids, refined_supremum, sign_roots
from hardyshift.series import RadialSeries
from hardyshift.spectral import ratio_log_laplacian
from hardyshift.weights import SpikeSpec


def peak_hints(spikes: Sequence[SpikeSpec]) -> list[float]:
    """Peak radii sqrt(m/(m+1)) of the bumps s^m (1 - s) over the spike interiors."""
    return [math.sqrt(m / (m + 1.0)) for sp in spikes for m in sp.interior]


def curvature_density(f: RadialSeries, spikes: Sequence[SpikeSpec]) -> RadialDensity:
    """Density |Delta log f| (1 - r) of the curvature Carleson mass.

    Quadrature splits at the spike peak radii and at the sign changes of
    Delta log f, evaluated in factored form (ratio_log_laplacian) on the
    scan grid of f's own exponents.
    """
    cuts = sign_roots(lambda s: ratio_log_laplacian(f, np.sqrt(s)), f.exponents)
    return RadialDensity(
        lambda r: np.abs(ratio_log_laplacian(f, r)) * (1.0 - r),
        breakpoints=merge_grids(cuts, peak_hints(spikes)),
        label="curvature_deviation",
    )


class SampledRows(NamedTuple):
    """The three theorem rows by sampling, and 2 pi times the quadrature's
    error estimate of the mass."""

    ratio_band: float
    curvature_sup: float
    curvature_carleson: float
    carleson_error: float


def sampled_theorem_rows(f: RadialSeries, spikes: Sequence[SpikeSpec]) -> SampledRows:
    grid = merge_grids(boundary_refined_grid(801, 46.0), peak_hints(spikes))

    def band(r):
        vals = f.eval(r * r)
        assert np.all(vals > 0.0), "kernel ratio must stay positive"
        return np.maximum(vals, 1.0 / vals)

    _, sup_band = refined_supremum(band, grid)
    _, sup_curv = refined_supremum(
        lambda r: np.abs(ratio_log_laplacian(f, r)) * (1.0 - r) ** 2, grid)
    errors: list[float] = []
    mass = curvature_density(f, spikes).window_integral(0.0, 1.0, errors)
    return SampledRows(sup_band, sup_curv, TWO_PI * mass, TWO_PI * errors[0])
