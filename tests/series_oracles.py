"""Stock series and checks that only the tests use.

The edge bump s^n (1 - s), the truncated geometric series and a config's
kernel ratio as RadialSeries, a series' coefficients as a dense array, and a five point
stencil for the normalized Laplacian, the independent route the curvature
tests compare the series calculus against.
"""

from typing import Callable

import numpy as np

from hardyshift.series import RadialSeries
from hardyshift.spectral import kernel_ratio_series


def geometric_series(order: int) -> RadialSeries:
    """Truncation of 1/(1-s) at s^order; tail_bound_geometric bounds the rest."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return RadialSeries.from_dense(np.ones(order + 1))


def edge_bump(n: int) -> RadialSeries:
    """The bump s^n (1 - s), vanishing at both s = 0 (for n >= 1) and s = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return RadialSeries(np.array([n, n + 1]), np.array([1.0, -1.0]))


def kernel_ratio(config) -> RadialSeries:
    """f = (1-s) K(s) of a ConstructionConfig, checked against its weights as
    its ratio rows are (within tol on r <= r_max)."""
    return kernel_ratio_series(config.weights(), r_max=config.r_max, tol=config.tol)


def is_dense(series: RadialSeries) -> bool:
    """Whether the series holds every power 0 .. order."""
    n = len(series.exponents)
    return n > 0 and series.exponents[0] == 0 and series.exponents[-1] == n - 1


def dense_coeffs(series: RadialSeries) -> np.ndarray:
    """Coefficients b_0..b_order as a dense array (order must be modest)."""
    if series.order > 10_000_000:
        raise ValueError("series too large to densify")
    out = np.zeros(series.order + 1 if series.order >= 0 else 0, dtype=np.float64)
    out[series.exponents] = series.coeffs
    return out


def fd_laplacian(field: Callable[[complex], float], z: complex, h: float = 1e-4) -> float:
    """Five point stencil for the normalized Laplacian d^2/(dz dzbar).

    (F(z+h) + F(z-h) + F(z+ih) + F(z-ih) - 4 F(z)) / (4 h^2), one quarter of
    the standard five point Laplacian.  All stencil points must stay inside
    the unit disk.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if abs(z) + h >= 1.0:
        raise ValueError("stencil exits the unit disk")
    z = complex(z)
    acc = field(z + h) + field(z - h) + field(z + 1j * h) + field(z - 1j * h) - 4.0 * field(z)
    return acc / (4.0 * h * h)
