"""Radial evaluation grids on the unit disk.

Everything in this package is radially symmetric, so suprema over the disk
reduce to suprema over the radius r in [0, 1).  The quantities of interest
(powers s^n with n up to ~10^6 times gap factors (1-r)^p) live on boundary
scales 1 - r ~ 1/n, so a uniform grid in r is useless.  We instead use a
grid that is uniform in u = -log2(1 - r), which resolves every dyadic
boundary scale equally, and augment it with the analytically known critical
radii m/(m+p) of the majorant family r^m (1-r)^p.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

_POLISH_POINTS = 33  # samples per bracket and polish step; each step shrinks a bracket 16-fold
_POLISH_XATOL = 1e-13  # brackets narrower than this are final
_POLISH_TOP = 8  # interior local maxima of the grid polished per supremum
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)  # the smallest rtol scipy's brentq accepts
_BRENT_MAXITER = 100  # scipy's default


class RootNotConvergedError(RuntimeError):
    """brentq used up its iterations before the bracket met the tolerance."""


def boundary_refined_grid(count: int = 600, u_max: float = 40.0) -> np.ndarray:
    """Grid r = 1 - 2^{-u} for u uniform in [0, u_max], ascending, r[0] = 0."""
    if count < 2:
        raise ValueError("count must be at least 2")
    if u_max <= 0:
        raise ValueError("u_max must be positive")
    u = np.linspace(0.0, float(u_max), int(count))
    return 1.0 - np.exp2(-u)


def critical_radius(m: float, p: float) -> float:
    """Maximizer of r^m (1-r)^p on [0, 1]: r = m/(m+p)."""
    if m < 0 or p <= 0:
        raise ValueError("need m >= 0 and p > 0")
    return m / (m + p)


def peak_candidates(powers: Iterable[int], gaps: Iterable[int] = (1, 2, 3)) -> np.ndarray:
    """Critical radii m/(m+p) for all combinations of monomial power and gap power."""
    pts = [critical_radius(m, p) for m in powers for p in gaps if m > 0]
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


def brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float) -> float:
    """Root of the scalar function f in [xa, xb] by Brent's method.

    A step-for-step port of scipy.optimize.brentq (Brent 1973, as in
    scipy's brentq.c) with rtol = 4 eps and maxiter = 100: the same
    inverse quadratic / secant steps, bisection fallbacks and stopping
    rule, so it evaluates f at the same points and returns the same root
    bit for bit, without importing scipy.optimize.  Raises ValueError when
    f(xa) and f(xb) have the same sign or f returns NaN, and
    RootNotConvergedError after maxiter steps.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RootNotConvergedError(
        f"brentq did not converge in {_BRENT_MAXITER} iterations; last value {xcur!r}")
