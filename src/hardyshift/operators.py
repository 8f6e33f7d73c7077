"""The weighted backward shift, its adjoint, and norm diagnostics.

Vectors are finite coefficient arrays a_0..a_L against the monomial
basis, with squared norm sum |a_n|^2 w_n.  The backward shift acts as

    (T a)_n = (w_{n+1} / w_n) a_{n+1},

which is unitarily equivalent to the plain coefficient shift on the
weighted space; its adjoint is the index shift upward.  With spiked
weights the ratio ||T* a|| / ||a|| stays inside
[(1+alpha)^{-1}, 1+alpha] whatever the spikes: its square is a mean of
the slopes w_{n+1}/w_n, which never leave [(1+alpha)^{-2}, (1+alpha)^2],
so coisometry_check reads the exact band off the weights.  Meanwhile
||T*^n e_0|| = sqrt(w_n) climbs to the spike peaks (1+alpha)^k and
returns to 1.  With K spikes diag(sqrt(w_n)) makes T similar to S*, with
constant (1+alpha)^K; that constant is unbounded in K, so the limiting
operator is not power bounded, hence not similar to S*.

orbit_norms and coisometry_check run on the standard library; the
vector operations import numpy inside themselves.
"""

from __future__ import annotations

import math
import numbers
from operator import mul, truediv
from typing import TYPE_CHECKING, NamedTuple

from .weights import WeightSequence

if TYPE_CHECKING:
    import numpy as np


def _coeffs(x) -> np.ndarray:
    import numpy as np

    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError("coefficient vectors must be one dimensional")
    return arr.astype(np.complex128, copy=False)


def backward_shift(weights: WeightSequence, x) -> np.ndarray:
    """Apply T: output has one entry fewer, (Tx)_n = (w_{n+1}/w_n) x_{n+1}."""
    import numpy as np

    a = _coeffs(x)
    if len(a) <= 1:
        return np.zeros(0, dtype=np.complex128)
    w = np.array(weights.weight_range(0, len(a)))
    return (w[1:] / w[:-1]) * a[1:]


def forward_shift(x) -> np.ndarray:
    """Apply T*: prepend a zero coefficient."""
    import numpy as np

    a = _coeffs(x)
    return np.concatenate([np.zeros(1, dtype=np.complex128), a])


def norm_w(weights: WeightSequence, x) -> float:
    import numpy as np

    a = _coeffs(x)
    if len(a) == 0:
        return 0.0
    w = np.array(weights.weight_range(0, len(a)))
    return float(np.sqrt(np.sum(np.abs(a) ** 2 * w)))


def inner_w(weights: WeightSequence, x, y) -> complex:
    """Weighted inner product sum x_n conj(y_n) w_n, zero-padding the shorter."""
    import numpy as np

    a, b = _coeffs(x), _coeffs(y)
    n = max(len(a), len(b))
    if n == 0:
        return 0j
    a = np.pad(a, (0, n - len(a)))
    b = np.pad(b, (0, n - len(b)))
    w = np.array(weights.weight_range(0, n))
    return complex(np.sum(a * np.conj(b) * w))


def orbit_norms(weights: WeightSequence, x, n_max: int) -> list[float]:
    """Norms ||T*^n x|| for n = 0..n_max, a sequence x of coefficients.

    ||T*^n x||^2 = sum_j |x_j|^2 w_{j+n}: the adjoint slides the
    coefficient profile up the weight sequence, so orbits trace the spike
    profile itself.  Each sum is a correctly rounded fsum; for x = e_0 it
    is w_n itself, so the norm is sqrt(w_n) bit for bit.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    coeffs = list(x)
    if not all(isinstance(c, numbers.Number) for c in coeffs):
        raise ValueError("coefficient vectors must be one dimensional")
    mags = [m * m for m in map(abs, coeffs)]
    k = len(mags)
    w = weights.weight_range(0, k + n_max)
    return [math.sqrt(math.fsum(map(mul, mags, w[n:n + k]))) for n in range(n_max + 1)]


# rounding slack of the band: the slopes are quotients of float weights
BAND_THRESHOLD = 1.0 + 1e-12


class CoisometryReport(NamedTuple):
    """Exact range of ||T* x|| / ||x|| over all nonzero x.

    lower/upper are the sharp slope bounds (1+alpha)^{-1} and 1+alpha;
    the classical floor 1-alpha lies below lower, so it holds whenever
    the check passes.
    """

    min_ratio: float
    max_ratio: float
    lower: float
    upper: float

    @property
    def deviation(self) -> float:
        """max(max_ratio/upper, lower/min_ratio): at most 1 inside the band."""
        return max(self.max_ratio / self.upper, self.lower / self.min_ratio)

    @property
    def passed(self) -> bool:
        return self.deviation <= BAND_THRESHOLD


def coisometry_check(weights: WeightSequence) -> CoisometryReport:
    """The band of ||T* x|| / ||x|| from the weight slopes.

    ||T* x||^2 / ||x||^2 = sum |x_n|^2 w_{n+1} / sum |x_n|^2 w_n is a mean
    of the slopes w_{n+1}/w_n, so its extremes over all x are the extreme
    slopes, attained on basis vectors.  Every slope off the spikes
    [start, end] is 1, so a 1 and the slopes across each spike suffice.
    """
    slopes = [1.0]
    for sp in weights.spikes:
        w = weights.weight_range(sp.start, sp.end + 1)
        slopes += map(truediv, w[1:], w[:-1])
    return CoisometryReport(min_ratio=math.sqrt(min(slopes)),
                            max_ratio=math.sqrt(max(slopes)),
                            lower=1.0 / (1.0 + weights.alpha),
                            upper=1.0 + weights.alpha)
