"""The per-n loop of operators.orbit_norms, its oracle.

orbit_norms is orbit_norms as it was before it formed every sum in one
pass, unchanged: both must return the same floats, bit for bit.
"""

import math
import numbers
from operator import mul


def orbit_norms(weights, x, n_max: int) -> list[float]:
    """sqrt(fsum_j |x_j|^2 w_{j+n}) for n = 0..n_max, one slice and one
    fsum per n."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    coeffs = list(x)
    if not all(isinstance(c, numbers.Number) for c in coeffs):
        raise ValueError("coefficient vectors must be one dimensional")
    mags = [m * m for m in map(abs, coeffs)]
    k = len(mags)
    w = weights.weight_range(0, k + n_max)
    return [math.sqrt(math.fsum(map(mul, mags, w[n:n + k]))) for n in range(n_max + 1)]
