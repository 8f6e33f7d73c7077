"""Reproducing kernels and bundle curvature for weighted backward shifts.

On the weighted Hardy space with weights w_n, the kernel at lambda is
k_lambda(z) = sum_n conj(lambda)^n z^n / w_n, an eigenvector of the backward
shift with eigenvalue conj(lambda).  Its diagonal K(s) = sum_n s^n / w_n at
s = |z|^2 controls the curvature of the eigenvector bundle,

    kappa(z) = (K * DeltaK - |dK|^2) / K^2 = Delta log K,

normalized so the unweighted shift gives exactly (1 - |z|^2)^{-2}.

For spiked weights the diagonal splits into the unweighted part plus one
sparse correction per spike,

    K(s) = 1/(1-s) + sum_k G_k(s),

where G_k collects the deficits 1/w_n - 1 over the spike's interior.  The
kernel ratio f(s) = (1-s) K(s) = 1 + sum_k H_k(s) with H_k = (1-s) G_k is
then a short exact polynomial even when spike positions sit near 10^6, and

    kappa_weighted - kappa_unweighted = Delta log f

gives the curvature deviation along a second, independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import RadialSeries, TruncationError, truncation_order
from .weights import SpikeSpec, WeightSequence

_DENSE_ORDER_CAP = 2_000_000
_CROSS_CHECK_ORDER_CAP = 400_000


class DecompositionMismatchError(RuntimeError):
    """The sparse kernel ratio disagrees with the truncated diagonal series.

    This happens when the slope parameter used for the correction
    coefficients does not match the one the weights were built with.
    """


# ---------------------------------------------------------------------- #
# kernels


def kernel_eval(weights: WeightSequence, lam: complex, z: complex, tol: float = 1e-12) -> complex:
    """Kernel value sum_n conj(lam)^n z^n / w_n, truncated to tolerance tol."""
    lam = complex(lam)
    z = complex(z)
    if abs(lam) >= 1.0 or abs(z) >= 1.0:
        raise ValueError("kernel arguments must lie in the open unit disk")
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = np.conj(lam) * z
    mod = abs(q)
    if mod == 0.0:
        return 1.0 + 0.0j
    order = truncation_order(math.sqrt(mod), tol)
    if order > 10_000_000:
        raise TruncationError(
            f"kernel truncation needs {order} terms at |conj(lam) z| = {mod}", order
        )
    powers = np.concatenate([[1.0 + 0.0j], np.cumprod(np.full(order, q, dtype=np.complex128))])
    inv_w = 1.0 / weights.weight_range(0, order + 1)
    return complex(powers @ inv_w)


def kernel_diagonal_series(
    weights: WeightSequence,
    r_max: float,
    tol: float = 1e-12,
    max_order: int = _DENSE_ORDER_CAP,
) -> RadialSeries:
    """Dense truncation K(s) = sum_{n <= order} s^n / w_n of the kernel
    diagonal, valid on [0, r_max].

    The truncation order comes from the geometric tail bound (weights are
    at least 1).  Tolerances that would need more than max_order terms are
    rejected with the required order attached.
    """
    if not 0.0 <= r_max < 1.0:
        raise ValueError("r_max must lie in [0, 1)")
    order = truncation_order(r_max, tol)
    if order > max_order:
        raise TruncationError(
            f"diagonal truncation at r_max={r_max} and tol={tol} needs {order} terms "
            f"(cap {max_order})",
            order,
        )
    return RadialSeries.from_dense(1.0 / weights.weight_range(0, order + 1))


# ---------------------------------------------------------------------- #
# spike corrections


def deficit_coefficients(alpha: float, half_width: int) -> np.ndarray:
    """Coefficients c_j = (1+alpha)^{-2j} - 1 for j = 1..half_width, all negative."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    j = np.arange(1, half_width + 1, dtype=np.float64)
    return np.expm1(-2.0 * j * math.log1p(alpha))


def spike_kernel_term(alpha: float, spike: SpikeSpec) -> RadialSeries:
    """Correction G(s) the spike adds to the unweighted kernel diagonal.

    Collects (1/w_n - 1) s^n over the spike interior: the deficit c_j sits
    at offsets j and 2*half_width - j from the spike start.
    """
    c = deficit_coefficients(alpha, spike.half_width)
    terms: list[tuple[int, float]] = []
    for j in range(1, spike.half_width + 1):
        terms.append((spike.start + j, float(c[j - 1])))
    for j in range(1, spike.half_width):
        terms.append((spike.start + 2 * spike.half_width - j, float(c[j - 1])))
    return RadialSeries.from_terms(terms)


def spike_ratio_term(alpha: float, spike: SpikeSpec) -> RadialSeries:
    """Term H(s) = (1-s) G(s) the spike contributes to the kernel ratio.

    Equals the same combination of bumps s^m (1-s) over the spike interior,
    so it inherits every decay estimate available for a single bump.
    """
    return spike_kernel_term(alpha, spike).times_one_minus_s()


def kernel_ratio_series(
    weights: WeightSequence,
    r_max: float = 0.999,
    tol: float = 1e-9,
    cross_check: bool | None = None,
) -> RadialSeries:
    """Exact polynomial f(s) = (1-s) K(s) = 1 + sum of spike ratio terms.

    When feasible (cross_check None picks automatically, True forces it)
    the result is compared against (1-s) times the truncated diagonal
    series on a 200 point grid up to r_max; disagreement beyond tol raises
    DecompositionMismatchError, the symptom of a slope mismatch between
    the correction coefficients and the weights.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    f = RadialSeries.from_terms([(0, 1.0)])
    for sp in weights.spikes:
        f = f.add(spike_ratio_term(weights.alpha, sp))
    if cross_check is None:
        cross_check = truncation_order(r_max, tol / 4.0) <= _CROSS_CHECK_ORDER_CAP
    if cross_check:
        diag = kernel_diagonal_series(weights, r_max, tol / 4.0)
        r = np.linspace(0.0, r_max, 200)
        s = r * r
        lhs = f.eval(s)
        rhs = (1.0 - s) * diag.eval(s)
        dev = float(np.max(np.abs(lhs - rhs)))
        if dev > tol:
            raise DecompositionMismatchError(
                f"kernel ratio deviates from (1-s) * diagonal by {dev} (tol {tol}); "
                "slope parameter and weights are inconsistent"
            )
    return f


# ---------------------------------------------------------------------- #
# curvature


def curvature_backward_shift(r):
    """Bundle curvature of the unweighted backward shift: (1 - r^2)^{-2}."""
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any((r_arr < 0) | (r_arr >= 1)):
        raise ValueError("r must lie in [0, 1)")
    out = (1.0 - r_arr * r_arr) ** -2
    return float(out) if np.ndim(r) == 0 else out


def _curvature_from_parts(k_val, k_p, k_pp, s):
    """Delta log K = (K (K' + s K'') - s K'^2) / K^2 from K, K', K'' at s."""
    lap = k_p + s * k_pp
    grad = s * k_p * k_p
    return (k_val * lap - grad) / (k_val * k_val)


def curvature_weighted(
    weights: WeightSequence,
    r,
    tol: float = 1e-9,
    method: str = "closed",
):
    """Bundle curvature Delta log K for the weighted backward shift.

    method "closed" evaluates the exact split 1/(1-s) + spike corrections;
    method "series" goes through the dense truncated diagonal with the
    truncation order driven by the tail bound at max(r) and a tolerance
    tightened by (1 - s)^3 so the second derivative tail stays negligible.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    if np.any((r_arr < 0) | (r_arr >= 1)):
        raise ValueError("r must lie in [0, 1)")
    s = r_arr * r_arr
    if method == "closed":
        one_minus = 1.0 - s
        k_val = 1.0 / one_minus
        k_p = one_minus ** -2
        k_pp = 2.0 * one_minus ** -3
        if weights.spikes:
            g = RadialSeries.zero()
            for sp in weights.spikes:
                g = g.add(spike_kernel_term(weights.alpha, sp))
            g_val, g_p, g_pp = g.eval_with_derivatives(s)
            k_val, k_p, k_pp = k_val + g_val, k_p + g_p, k_pp + g_pp
    elif method == "series":
        r_top = float(np.max(r_arr))
        s_top = r_top * r_top
        tol_eff = max(min(tol, 1e-12) * (1.0 - s_top) ** 3, 1e-300)
        k_val, k_p, k_pp = kernel_diagonal_series(weights, r_top, tol_eff).eval_with_derivatives(s)
    else:
        raise ValueError(f"unknown method {method!r}")
    out = _curvature_from_parts(k_val, k_p, k_pp, s)
    return float(out[0]) if np.ndim(r) == 0 else out


def ratio_log_laplacian(ratio: RadialSeries, r):
    """Delta log f at radius r for a positive radial polynomial f.

    Uses (f Delta f - |df|^2) / f^2 with Delta f = f' + s f'' and
    |df|^2 = s (f')^2, all evaluated from the sparse series in one
    fused pass (RadialSeries.eval_with_derivatives).
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    s = r_arr * r_arr
    out = _curvature_from_parts(*ratio.eval_with_derivatives(s), s)
    return float(out[0]) if np.ndim(r) == 0 else out


def curvature_difference(
    weights: WeightSequence,
    r,
    tol: float = 1e-6,
    ratio: RadialSeries | None = None,
):
    """Curvature deviation from the unweighted shift, computed two ways.

    Route A evaluates Delta log f from the sparse kernel ratio.  Route B
    subtracts the two curvatures directly.  The two are the same function;
    both are returned and disagreement beyond tol (relative, with an
    absolute floor at the cancellation level of route B) raises.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    if ratio is None:
        ratio = kernel_ratio_series(weights, cross_check=False)
    a = ratio_log_laplacian(ratio, r_arr)
    b = curvature_weighted(weights, r_arr) - curvature_backward_shift(r_arr)
    floor = 64.0 * np.finfo(float).eps * (curvature_backward_shift(r_arr) + 1.0)
    bad = np.abs(a - b) > tol * (np.abs(a) + np.abs(b)) + floor
    if np.any(bad):
        i = int(np.argmax(np.abs(a - b)))
        raise RuntimeError(
            f"curvature routes disagree at r={r_arr[i]}: ratio route {a[i]}, "
            f"direct route {b[i]}"
        )
    if np.ndim(r) == 0:
        return float(a[0]), float(b[0])
    return a, b


@dataclass(frozen=True)
class CurvatureSample:
    """One radius of the curvature comparison table."""

    r: float
    kappa_reference: float  # unweighted shift, exact (1 - r^2)^{-2}
    kappa_weighted: float
    difference: float       # kappa_weighted - kappa_reference = Delta log f


def curvature_samples(weights: WeightSequence, r_grid: Sequence[float]) -> list[CurvatureSample]:
    r_arr = np.asarray(r_grid, dtype=np.float64)
    kappa_ref = curvature_backward_shift(r_arr)
    kappa_w = curvature_weighted(weights, r_arr)
    return [
        CurvatureSample(
            r=float(r_arr[i]),
            kappa_reference=float(kappa_ref[i]),
            kappa_weighted=float(kappa_w[i]),
            difference=float(kappa_w[i] - kappa_ref[i]),
        )
        for i in range(len(r_arr))
    ]

