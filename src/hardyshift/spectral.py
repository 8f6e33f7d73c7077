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

gives the curvature deviation along a second, independent route.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .search import DecompositionMismatchError, TruncationError, deficit_coefficients
from .series import RadialSeries, truncation_order
from .weights import SpikeSpec, WeightSequence

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
    inv_w = 1.0 / weights.weight_range(0, order + 1)
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
    return RadialSeries.from_dense(1.0 / weights.weight_range(0, order + 1))


# ---------------------------------------------------------------------- #
# spike corrections


def spike_kernel_term(alpha: float, spike: SpikeSpec) -> RadialSeries:
    """Correction G(s) the spike adds to the unweighted kernel diagonal.

    Collects (1/w_n - 1) s^n over the spike interior: index n carries the
    deficit c_j of its step j (deficit_coefficients, the floats the spike
    gate reads).
    """
    c = np.array(deficit_coefficients(alpha, spike.half_width))
    n = np.asarray(spike.interior)
    return RadialSeries(n, c[spike.step(n) - 1])


def spike_ratio_term(alpha: float, spike: SpikeSpec) -> RadialSeries:
    """Term H(s) = (1-s) G(s) the spike contributes to the kernel ratio.

    Equals the same combination of bumps s^m (1-s) over the spike interior,
    so it inherits every decay estimate available for a single bump.
    """
    return spike_kernel_term(alpha, spike).times_one_minus_s()


def _spike_sum(*parts: RadialSeries) -> RadialSeries:
    """Sum of series on disjoint ascending exponent spans: no sorting or merging."""
    return RadialSeries(np.concatenate([g.exponents for g in parts]),
                        np.concatenate([g.coeffs for g in parts]))


def kernel_ratio_series(weights: WeightSequence, r_max: float = 0.999,
                        tol: float = 1e-9) -> RadialSeries:
    """Exact polynomial f(s) = (1-s) K(s) = 1 + sum of spike ratio terms.

    f is checked coefficient by coefficient against (1-s) K, whose
    coefficients are e_0 = 1 and e_n = 1/w_n - 1/w_{n-1}, from the weights
    the operator uses; they vanish off each spike's span start+1 .. end.
    B = sum_n |f_n - e_n| r_max^{2n} bounds |f - (1-s) K| at every
    r <= r_max, and B > tol raises DecompositionMismatchError, the symptom
    of a slope mismatch between the correction coefficients and the weights.
    """
    if not 0.0 <= r_max < 1.0:
        raise ValueError("r_max must lie in [0, 1)")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    one = RadialSeries(np.zeros(1, dtype=np.int64), np.ones(1))
    f = _spike_sum(one, *(spike_ratio_term(weights.alpha, sp) for sp in weights.spikes))
    e = _spike_sum(one, *(RadialSeries(np.arange(sp.start + 1, sp.end + 1),
                                       np.diff(1.0 / weights.weight_range(sp.start, sp.end + 1)))
                          for sp in weights.spikes))
    gap = f.add(RadialSeries(e.exponents, -e.coeffs))
    bound = float(np.sum(np.abs(gap.coeffs) * np.power(r_max, 2.0 * gap.exponents)))
    if bound > tol:
        raise DecompositionMismatchError(
            f"kernel ratio misses (1-s) K by up to {bound} on r <= {r_max} (tol {tol}); "
            "slope parameter and weights are inconsistent")
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


def curvature_weighted(weights: WeightSequence, r, method: str = "closed"):
    """Bundle curvature Delta log K for the weighted backward shift.

    method "closed" evaluates the exact split 1/(1-s) + spike corrections;
    method "series" goes through the dense truncated diagonal with the
    truncation order driven by the tail bound at max(r) and the tolerance
    1e-12 tightened by (1 - s)^3 so the second derivative tail stays
    negligible.
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
        g = _spike_sum(RadialSeries.zero(),
                       *(spike_kernel_term(weights.alpha, sp) for sp in weights.spikes))
        g_val, g_p, g_pp = g.eval_with_derivatives(s)
        k_val, k_p, k_pp = k_val + g_val, k_p + g_p, k_pp + g_pp
    elif method == "series":
        r_top = float(np.max(r_arr))
        s_top = r_top * r_top
        tol_eff = max(1e-12 * (1.0 - s_top) ** 3, 1e-300)
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


def curvature_difference(weights: WeightSequence, r):
    """Curvature deviation from the unweighted shift, computed two ways.

    Route A evaluates Delta log f from the sparse kernel ratio.  Route B
    subtracts the two curvatures directly.  The two are the same function;
    both are returned and disagreement beyond 1e-6 (relative, with an
    absolute floor at the cancellation level of route B) raises.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    a = ratio_log_laplacian(kernel_ratio_series(weights), r_arr)
    b = curvature_weighted(weights, r_arr) - curvature_backward_shift(r_arr)
    floor = 64.0 * np.finfo(float).eps * (curvature_backward_shift(r_arr) + 1.0)
    bad = np.abs(a - b) > 1e-6 * (np.abs(a) + np.abs(b)) + floor
    if np.any(bad):
        i = int(np.argmax(np.abs(a - b)))
        raise RuntimeError(
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
