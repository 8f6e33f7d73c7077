"""Radial evaluation grids on the unit disk.

Everything in this package is radially symmetric, so suprema over the disk
reduce to suprema over the radius r in [0, 1).  The quantities of interest
(powers s^n, with n up to 2^40 where the spike search stops, times gap
factors (1-r)^p) live on boundary scales 1 - r ~ 1/n, so a uniform grid in
r is useless.  We instead use a grid that is uniform in u = -log2(1 - r),
which resolves every dyadic boundary scale equally, and augment it with the
analytically known critical radii m/(m+p) of the majorant family r^m (1-r)^p.

The module also holds the package's own port of adaptive Gauss-Kronrod
quadrature (gauss_kronrod), which it would otherwise import from scipy.
The other port, Brent's root finder (brentq), is scalar and lives in
hardyshift.search, which imports no numpy; sign_roots polishes its
brackets with it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .search import NumericalInfeasibility, brentq

_POLISH_POINTS = 33  # samples per bracket and polish step; each step shrinks a bracket 16-fold
_POLISH_XATOL = 1e-13  # brackets narrower than this are final
_POLISH_TOP = 8  # interior local maxima of the grid polished per supremum
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_QUAD_EPSABS = 1e-13  # gauss_kronrod stops once its error estimate is below
_QUAD_EPSREL = 1e-10  # max(_QUAD_EPSABS, _QUAD_EPSREL |integral|)

# The 21-point Kronrod extension of the 10-point Gauss-Legendre rule on
# [-1, 1], as tabulated in QUADPACK's qk21 (Piessens et al. 1983): nodes
# in ascending order, Kronrod weights, and Gauss weights (zero on the
# Kronrod-only nodes, which alternate with the Gauss nodes).
_GK21_NODES = np.array([
    -0.995657163025808080735527280689003, -0.973906528517171720077964012084452,
    -0.930157491355708226001207180059508, -0.865063366688984510732096688423493,
    -0.780817726586416897063717578345042, -0.679409568299024406234327365114874,
    -0.562757134668604683339000099272694, -0.433395394129247190799265943165784,
    -0.294392862701460198131126603103866, -0.148874338981631210884826001129720,
    0.0,
    0.148874338981631210884826001129720, 0.294392862701460198131126603103866,
    0.433395394129247190799265943165784, 0.562757134668604683339000099272694,
    0.679409568299024406234327365114874, 0.780817726586416897063717578345042,
    0.865063366688984510732096688423493, 0.930157491355708226001207180059508,
    0.973906528517171720077964012084452, 0.995657163025808080735527280689003,
])
_K21_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192,
])
_G10_WEIGHTS = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
    0.295524224714752870173892994651338, 0.0,
    0.269266719309996355091226921569469, 0.0,
    0.219086362515982043995534934228163, 0.0,
    0.149451349150580593145776339657697, 0.0,
    0.066671344308688137593568809893332, 0.0,
])


class QuadratureError(NumericalInfeasibility):
    """Adaptive quadrature did not reach its tolerance on a window."""


def boundary_refined_grid(count: int, u_max: float) -> np.ndarray:
    """Grid r = 1 - 2^{-u} for u uniform in [0, u_max], ascending, r[0] = 0."""
    if count < 2:
        raise ValueError("count must be at least 2")
    if u_max <= 0:
        raise ValueError("u_max must be positive")
    u = np.linspace(0.0, float(u_max), int(count))
    return 1.0 - np.exp2(-u)


def peak_candidates(powers: Iterable[int]) -> np.ndarray:
    """Maximizers m/(m+p) of r^m (1-r)^p for each positive power m and p = 1, 2, 3."""
    pts = [m / (m + p) for m in powers for p in (1, 2, 3) if m > 0]
    return np.asarray(sorted(set(pts)), dtype=float)


def merge_grids(*parts: np.ndarray | Iterable[float]) -> np.ndarray:
    """Union of grids, sorted, deduplicated, clipped to [0, 1)."""
    vals = np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in parts if p is not None])
    vals = vals[(vals >= 0.0) & (vals < 1.0)]
    return np.unique(vals)


def refined_supremum(fn: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> tuple[float, float]:
    """Supremum of a vectorized function over a radial grid.

    Takes the grid maximum, then polishes the _POLISH_TOP largest interior
    local maxima of the grid together: each bracket [grid[i-1], grid[i+1]]
    is resampled at _POLISH_POINTS equispaced points and shrunk to the
    cells next to its sampled maximum, until every bracket is narrower than
    _POLISH_XATOL or stops shrinking in floating point.  Each step is one
    call of `fn` on the points of all brackets still open, so the polish
    costs about ten calls however many brackets it refines.  Returns
    (argmax_r, value) of the largest value seen, which is never below the
    grid maximum.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(fn(grid), dtype=float)
    if vals.shape != grid.shape:
        raise ValueError("fn must be vectorized over the grid")
    best_i = int(np.argmax(vals))
    best_r, best_v = float(grid[best_i]), float(vals[best_i])
    if len(grid) < 3:
        return best_r, best_v

    interior = np.arange(1, len(grid) - 1)
    local = interior[(vals[interior] >= vals[interior - 1]) & (vals[interior] >= vals[interior + 1])]
    if len(local) == 0:
        local = np.array([min(max(best_i, 1), len(grid) - 2)])
    order = local[np.argsort(vals[local])[::-1][:_POLISH_TOP]]
    lo, hi = grid[order - 1], grid[order + 1]
    open_ = hi > lo
    steps = np.linspace(0.0, 1.0, _POLISH_POINTS)
    while np.any(open_):
        lo, hi = lo[open_], hi[open_]
        pts = lo[:, None] + (hi - lo)[:, None] * steps[None, :]
        pts[:, -1] = hi  # lo + (hi - lo) may round past hi, and past the last grid point
        sampled = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
        rows = np.arange(len(lo))
        k = np.argmax(sampled, axis=1)
        j = int(np.argmax(sampled[rows, k]))
        if sampled[j, k[j]] > best_v:
            best_v = float(sampled[j, k[j]])
            best_r = float(pts[j, k[j]])
        width = hi - lo
        lo = pts[rows, np.maximum(k - 1, 0)]
        hi = pts[rows, np.minimum(k + 1, _POLISH_POINTS - 1)]
        # a bracket a few ulps wide (|r| large) can stop shrinking above xatol
        open_ = (hi - lo > _POLISH_XATOL) & (hi - lo < width)
    return best_r, best_v


def sign_change_brackets(values: np.ndarray, grid: np.ndarray) -> list[tuple[float, float]]:
    """Intervals of the grid where `values` changes sign between two nonzero,
    non-NaN ends, however small."""
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    a, b = values[:-1], values[1:]
    crossing = ((a < 0) != (b < 0)) & (np.abs(a) > 0.0) & (np.abs(b) > 0.0)
    return [(float(grid[i]), float(grid[i + 1])) for i in np.flatnonzero(crossing)]


def _zero_crossings(vals: np.ndarray) -> np.ndarray:
    """Indices of exact zeros whose nearest nonzero neighbours differ in sign.

    A grid point landing exactly on a root is a cut itself.  Zeros from
    underflow (s^e for large e and small s) sit in a run with no sign
    change across it, or with no nonzero value on one side, and are not.
    """
    nonzero = np.flatnonzero(vals != 0.0)
    zeros = np.flatnonzero(vals == 0.0)
    pos = np.searchsorted(nonzero, zeros)
    inside = (pos > 0) & (pos < len(nonzero))
    zeros, pos = zeros[inside], pos[inside]
    return zeros[(vals[nonzero[pos - 1]] < 0.0) != (vals[nonzero[pos]] < 0.0)]


def _root_scan_grid(exponents: np.ndarray) -> np.ndarray:
    """s = r^2 on a boundary-refined grid, plus e/(e+1), (e/(e+1))^2 and
    (e+1)/(e+2) for each exponent e >= 1 and the midpoints between those."""
    base_r = boundary_refined_grid(1201, 46.0)
    e = np.asarray(exponents, dtype=np.float64)
    e = e[e >= 1.0]
    cands = np.concatenate([e / (e + 1.0), (e * e) / ((e + 1.0) * (e + 1.0)), (e + 1.0) / (e + 2.0)])
    cands = np.unique(cands[(cands > 0.0) & (cands < 1.0)])
    return merge_grids(base_r * base_r, cands, (cands[:-1] + cands[1:]) / 2.0)


def sign_roots(fn: Callable, exponents: np.ndarray) -> tuple[float, ...]:
    """Radii r in (0, 1), ascending, where fn(r^2) changes sign.

    fn is a vectorized function of s = r^2 built from monomials s^e with
    the given exponents, whose value at a point does not depend on the
    batch it is evaluated in (RadialSeries.eval and everything built on
    it), so brentq sees each bracket's sign change under its own scalar
    calls.  Signs are bracketed on _root_scan_grid, where a subnormal
    value counts as zero: it has too few bits to have a sign.  Each
    bracket is polished by brentq in s.
    """
    s_grid = _root_scan_grid(exponents)
    vals = fn(s_grid)
    vals = np.where(np.abs(vals) < _TINY, 0.0, vals)
    root_ss = s_grid[_zero_crossings(vals)].tolist()
    root_ss += [brentq(lambda s: float(fn(s)), lo, hi, xtol=1e-15)
                for lo, hi in sign_change_brackets(vals, s_grid)]
    return tuple(np.unique(np.sqrt(root_ss)).tolist())


def _kronrod21(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
               hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K21 estimates of the integral of f over each [lo, hi], with QUADPACK's
    error estimates, from one call of f on all 21 * len(lo) nodes."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = center[:, None] + half[:, None] * _GK21_NODES
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        bad = x[~np.isfinite(fx)][0]
        raise QuadratureError(f"the integrand is not finite at {bad!r}")
    kronrod = (fx * _K21_WEIGHTS).sum(axis=1)
    gauss = (fx * _G10_WEIGHTS).sum(axis=1)
    resabs = (np.abs(fx) * _K21_WEIGHTS).sum(axis=1) * half
    resasc = (np.abs(fx - 0.5 * kronrod[:, None]) * _K21_WEIGHTS).sum(axis=1) * half
    err = np.abs(kronrod - gauss) * half
    # QUADPACK's scaling of the raw difference, and its floor at roundoff
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return kronrod * half, err


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray], cuts: Sequence[float],
                  limit: int) -> tuple[float, float]:
    """Integral of the vectorized f over [cuts[0], cuts[-1]] and its error estimate.

    Globally adaptive G10/K21 quadrature with QUADPACK's error estimate
    (Piessens et al. 1983, qk21), started on the cells between the
    ascending cuts.  Each round bisects the intervals with the largest
    error estimates, as many as it takes for the rest to carry at most
    half the tolerance max(_QUAD_EPSABS, _QUAD_EPSREL |integral|), and
    evaluates f once on the nodes of all new halves.  The partition may hold at most
    `limit` intervals.  Raises QuadratureError when the tolerance is not
    met within that limit, when an interval becomes too narrow to split,
    or when f returns a value that is not finite.
    """
    edges = np.asarray(cuts, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    if len(lo) > limit:
        raise QuadratureError(f"{len(lo)} cells exceed the limit of {limit} intervals")
    vals, errs = _kronrod21(f, lo, hi)
    while True:
        value, error = float(vals.sum()), float(errs.sum())
        tol = max(_QUAD_EPSABS, _QUAD_EPSREL * abs(value))
        if error <= tol:
            return value, error
        order = np.argsort(-errs, kind="stable")
        count = int(np.searchsorted(np.cumsum(errs[order]), error - 0.5 * tol)) + 1
        count = min(count, len(order), limit - len(lo))
        if count <= 0:
            raise QuadratureError(
                f"no convergence within {limit} intervals (value {value!r}, "
                f"error estimate {error!r}, tolerance {tol!r})")
        pick = order[:count]
        a, b = lo[pick], hi[pick]
        mid = 0.5 * (a + b)
        if np.any(b - a <= 100.0 * _EPS * np.maximum(np.abs(a), np.abs(b)) + 1000.0 * _TINY):
            raise QuadratureError(
                f"an interval near {float(a[np.argmin(b - a)])!r} is too narrow to split "
                f"(value {value!r}, error estimate {error!r})")
        new_vals, new_errs = _kronrod21(f, np.concatenate([a, mid]), np.concatenate([mid, b]))
        keep = np.ones(len(lo), dtype=bool)
        keep[pick] = False
        lo = np.concatenate([lo[keep], a, mid])
        hi = np.concatenate([hi[keep], mid, b])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
