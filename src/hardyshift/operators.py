"""The weighted backward shift, its adjoint, and norm diagnostics.

Vectors are finite coefficient arrays a_0..a_L against the monomial
basis, with squared norm sum |a_n|^2 w_n.  The backward shift acts as

    (T a)_n = (w_{n+1} / w_n) a_{n+1},

which is unitarily equivalent to the plain coefficient shift on the
weighted space; its adjoint is the index shift upward.  With spiked
weights the ratio ||T* a|| / ||a|| stays inside
[(1+alpha)^{-1}, 1+alpha] whatever the spikes, because consecutive
weights never jump by more than the slope bound, while ||T*^n a|| along
an orbit can climb to the spike peaks (1+alpha)^k and return to 1: the
operator is power bounded without being similar to a contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weights import WeightSequence


def _coeffs(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError("coefficient vectors must be one dimensional")
    return arr.astype(np.complex128, copy=False)


def backward_shift(weights: WeightSequence, x) -> np.ndarray:
    """Apply T: output has one entry fewer, (Tx)_n = (w_{n+1}/w_n) x_{n+1}."""
    a = _coeffs(x)
    if len(a) <= 1:
        return np.zeros(0, dtype=np.complex128)
    w = weights.weight_range(0, len(a))
    return (w[1:] / w[:-1]) * a[1:]


def forward_shift(x) -> np.ndarray:
    """Apply T*: prepend a zero coefficient."""
    a = _coeffs(x)
    return np.concatenate([np.zeros(1, dtype=np.complex128), a])


def norm_w(weights: WeightSequence, x) -> float:
    a = _coeffs(x)
    if len(a) == 0:
        return 0.0
    w = weights.weight_range(0, len(a))
    return float(np.sqrt(np.sum(np.abs(a) ** 2 * w)))


def inner_w(weights: WeightSequence, x, y) -> complex:
    """Weighted inner product sum x_n conj(y_n) w_n, zero-padding the shorter."""
    a, b = _coeffs(x), _coeffs(y)
    n = max(len(a), len(b))
    if n == 0:
        return 0j
    a = np.pad(a, (0, n - len(a)))
    b = np.pad(b, (0, n - len(b)))
    w = weights.weight_range(0, n)
    return complex(np.sum(a * np.conj(b) * w))


def orbit_norms(weights: WeightSequence, x, n_max: int) -> np.ndarray:
    """Norms ||T*^n x|| for n = 0..n_max.

    ||T*^n x||^2 = sum_j |x_j|^2 w_{j+n}: the adjoint slides the
    coefficient profile up the weight sequence, so orbits trace the spike
    profile itself.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    a = _coeffs(x)
    if len(a) == 0:
        return np.zeros(n_max + 1)
    mags = np.abs(a) ** 2
    w = weights.weight_range(0, len(a) + n_max)
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        out[n] = np.sqrt(np.dot(mags, w[n:n + len(a)]))
    return out


@dataclass(frozen=True)
class CoisometryReport:
    """Observed range of ||T* x|| / ||x|| over random trials.

    lower/upper are the sharp slope bounds (1+alpha)^{-1} and 1+alpha;
    the classical floor 1-alpha lies below lower, so it holds whenever
    the check passes.
    """

    min_ratio: float
    max_ratio: float
    lower: float
    upper: float
    trials: int
    passed: bool


def coisometry_check(weights: WeightSequence, trials: int = 100,
                     length: int | None = None, seed: int = 0) -> CoisometryReport:
    """Sample ||T* x|| / ||x|| on random complex vectors.

    Vectors are long enough to cover every spike plus a margin, so the
    ratio probes all weight slopes present.  Passing means every ratio
    sits inside the sharp band up to rounding slack.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if length is None:
        length = weights.last_index + 2
    rng = np.random.default_rng(seed)
    lower = 1.0 / (1.0 + weights.alpha)
    upper = 1.0 + weights.alpha
    lo_seen, hi_seen = np.inf, -np.inf
    for _ in range(trials):
        x = rng.uniform(-1.0, 1.0, length) + 1j * rng.uniform(-1.0, 1.0, length)
        ratio = norm_w(weights, forward_shift(x)) / norm_w(weights, x)
        lo_seen = min(lo_seen, ratio)
        hi_seen = max(hi_seen, ratio)
    slack = 1e-12
    passed = lo_seen >= lower * (1.0 - slack) and hi_seen <= upper * (1.0 + slack)
    return CoisometryReport(min_ratio=float(lo_seen), max_ratio=float(hi_seen),
                            lower=lower, upper=upper, trials=trials, passed=passed)
