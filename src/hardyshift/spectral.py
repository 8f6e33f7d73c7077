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
then a short exact polynomial even when spike positions sit near 2^40, and

    kappa_weighted - kappa_unweighted = Delta log f

gives the curvature deviation along a second, independent route.  G_k and
H_k come from hardyshift.search, and are wrapped in a RadialSeries here.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .search import NumericalInfeasibility, TruncationError
from .search import deficit_coefficients, spike_kernel_term, spike_ratio_term  # noqa: F401
from .search import kernel_ratio_terms
from .series import RadialSeries, truncation_order
from .weights import WeightSequence

_DENSE_ORDER_CAP = 2_000_000


# ---------------------------------------------------------------------- #
# kernels


def kernel_eval(weights: WeightSequence, lam: complex, z: complex, tol: float = 1e-12) -> complex:
    """Kernel value sum_n conj(lam)^n z^n / w_n, truncated to tolerance tol."""
    lam = complex(lam)
    z = complex(z)
    if abs(lam) >= 1.0 or abs(z) >= 1.0:
        raise ValueError("kernel arguments must lie in the open unit disk")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
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
    inv_w = 1.0 / np.array(weights.weight_range(0, order + 1))
    return complex(powers @ inv_w)


def kernel_diagonal_series(weights: WeightSequence, r_max: float,
                           tol: float = 1e-12) -> RadialSeries:
    """Dense truncation K(s) = sum_{n <= order} s^n / w_n of the kernel
    diagonal, valid on [0, r_max].

    The truncation order comes from the geometric tail bound (weights are
    at least 1).  Tolerances that would need more than _DENSE_ORDER_CAP
    terms are rejected with the required order attached.
    """
    if not 0.0 <= r_max < 1.0:
        raise ValueError("r_max must lie in [0, 1)")
    order = truncation_order(r_max, tol)
    if order > _DENSE_ORDER_CAP:
        raise TruncationError(
            f"diagonal truncation at r_max={r_max} and tol={tol} needs {order} terms "
            f"(cap {_DENSE_ORDER_CAP})",
            order,
        )
    return RadialSeries.from_dense(1.0 / np.array(weights.weight_range(0, order + 1)))


# ---------------------------------------------------------------------- #
# spike corrections


def kernel_ratio_series(weights: WeightSequence, r_max: float = 0.999,
                        tol: float = 1e-9) -> RadialSeries:
    """Exact polynomial f(s) = (1-s) K(s) = 1 + sum of spike ratio terms, as a
    RadialSeries: search.kernel_ratio_terms, checked against (1-s) K within
    tol on r <= r_max."""
    return RadialSeries(*kernel_ratio_terms(weights, r_max, tol))


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


def curvature_weighted(weights: WeightSequence, r):
    """Bundle curvature Delta log K for the weighted backward shift, from the
    exact split K = 1/(1-s) + spike corrections."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    if np.any((r_arr < 0) | (r_arr >= 1)):
        raise ValueError("r must lie in [0, 1)")
    s = r_arr * r_arr
    one_minus = 1.0 - s
    terms = [spike_kernel_term(weights.alpha, sp) for sp in weights.spikes]
    g = RadialSeries([e for t in terms for e in t.exponents], [c for t in terms for c in t.coeffs])
    g_val, g_p, g_pp = g.eval_with_derivatives(s)
    out = _curvature_from_parts(1.0 / one_minus + g_val, one_minus ** -2 + g_p,
                                2.0 * one_minus ** -3 + g_pp, s)
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


def curvature_difference(weights: WeightSequence, r, r_max: float = 0.999,
                         tol: float = 1e-9):
    """Curvature deviation from the unweighted shift, computed two ways.

    Route A evaluates Delta log f from the sparse kernel ratio, which is
    checked against (1-s) K within tol on r <= r_max (kernel_ratio_series).
    Route B subtracts the two curvatures directly.  The two are the same
    function; both are returned and disagreement beyond 1e-6 (relative,
    with an absolute floor at the cancellation level of route B) raises.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    a = ratio_log_laplacian(kernel_ratio_series(weights, r_max, tol), r_arr)
    b = curvature_weighted(weights, r_arr) - curvature_backward_shift(r_arr)
    floor = 64.0 * np.finfo(float).eps * (curvature_backward_shift(r_arr) + 1.0)
    bad = np.abs(a - b) > 1e-6 * (np.abs(a) + np.abs(b)) + floor
    if np.any(bad):
        i = int(np.argmax(np.abs(a - b)))
        raise NumericalInfeasibility(
            f"curvature routes disagree at r={r_arr[i]}: ratio route {a[i]}, "
            f"direct route {b[i]}"
        )
    if np.ndim(r) == 0:
        return float(a[0]), float(b[0])
    return a, b


class CurvatureSamples(NamedTuple):
    """The curvature comparison table, one array entry per radius."""

    r: np.ndarray
    kappa_reference: np.ndarray  # unweighted shift, exact (1 - r^2)^{-2}
    kappa_weighted: np.ndarray
    difference: np.ndarray       # kappa_weighted - kappa_reference = Delta log f


def curvature_samples(weights: WeightSequence, r_grid: Sequence[float]) -> CurvatureSamples:
    r_arr = np.asarray(r_grid, dtype=np.float64)
    kappa_ref = curvature_backward_shift(r_arr)
    kappa_w = curvature_weighted(weights, r_arr)
    return CurvatureSamples(r_arr, kappa_ref, kappa_w, kappa_w - kappa_ref)
