"""Carleson-type window measures for radial densities on the unit disk.

Everything here integrates densities rho(|z|) dxdy over boundary windows

    W(t, arc) = {z : 1 - t <= |z| < 1, arg z in an arc of length arc},

so window masses factor as arc * integral of rho(r) r dr over [1-t, 1).
Every window here takes the full circle, arc = 2 pi.

Two scalar summaries appear throughout:

* carleson_norm scans the full-circle window quotient
  (2 pi / t) * integral_{1-t}^{1} rho r dr over a dyadic grid of depths;
* radial_carleson_norm is the depth-one value 2 pi * integral_0^1 rho r dr,
  the total mass of the density.

The scan takes all its window masses from the density in one call
(RadialDensity.window_masses).  Windows of depth t < 1 are nested, so a
density integrated by quadrature integrates each shell between
consecutive depths once and sums the shells from the smallest depth up;
the depth-one window is integrated directly.  Series densities keep one
exact sum per window: those are closed forms whose cost does not grow
with the window, and differencing them across shells would cancel.

The decay statements in this package control the total mass; the scan is
reported as a diagnostic and its supremum over shallow depths need not be
small even when the total mass vanishes.

The polynomial densities |G(r^2)| (1-r)^p are integrated exactly: their
pieces reduce to edge integrals

    integral_0^1 r^m (1-r)^p dr = m! p! / (m+p+1)!

evaluated in integer arithmetic, because the alternating float sum
sum_i (-1)^i C(p, i) / (m+i+1) loses all precision once m is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .grids import boundary_refined_grid, brentq, merge_grids, sign_change_brackets
from .series import RadialSeries

TWO_PI = 2.0 * math.pi


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach its tolerance on a window."""


# scipy is imported on first use, here and nowhere else in the package, so
# the commands that never integrate (curvature, orbit, weights) start
# without it; sign roots use the in-package grids.brentq.


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first call."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def betainc(a, b, x):
    """scipy.special.betainc, imported on first call."""
    from scipy.special import betainc as scipy_betainc

    return scipy_betainc(a, b, x)


# ---------------------------------------------------------------------- #
# edge integrals


def edge_integral_exact(m: int, p: int) -> Fraction:
    """integral_0^1 r^m (1-r)^p dr as an exact rational, m! p! / (m+p+1)!."""
    if m < 0 or p < 0:
        raise ValueError("exponents must be nonnegative")
    return Fraction(1, (m + p + 1) * math.comb(m + p, p))


def edge_integral(m: int, p: int) -> float:
    """Float value of integral_0^1 r^m (1-r)^p dr.

    Equal to the alternating sum over binomial coefficients, but computed
    from the closed rational form; the alternating sum cancels
    catastrophically for m beyond about 10^5.
    """
    return float(edge_integral_exact(m, p))


def edge_integral_partial(m: int, p: int, r: float) -> float:
    """integral_0^r x^m (1-x)^p dx via the regularized incomplete beta."""
    if m < 0 or p < 0:
        raise ValueError("exponents must be nonnegative")
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    if r == 0.0:
        return 0.0
    if r == 1.0:
        return float(edge_integral_exact(m, p))
    return float(edge_integral_exact(m, p)) * float(betainc(m + 1, p + 1, r))


def _sum_in_order(values) -> float:
    """Float sum, left to right.

    The bits do not depend on the interpreter: builtin sum compensates
    float sums from Python 3.12 on, and np.sum adds pairwise.
    """
    total = 0.0
    for v in values:
        total += v
    return total


# ---------------------------------------------------------------------- #
# densities


class RadialDensity:
    """Nonnegative radial density rho(r), integrated numerically.

    rho must accept numpy arrays.  breakpoints mark radii where rho has
    kinks (absolute values, window edges) so the quadrature can split
    there.
    """

    def __init__(self, rho: Callable, breakpoints: Sequence[float] = (), label: str = ""):
        self._rho = rho
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        self.label = label

    def rho(self, r):
        return self._rho(np.asarray(r, dtype=np.float64))

    def window_integral(self, a: float, b: float) -> float:
        """integral_a^b rho(r) r dr."""
        if not 0.0 <= a <= b <= 1.0:
            raise ValueError("window bounds must satisfy 0 <= a <= b <= 1")
        if a == b:
            return 0.0
        pts = [x for x in self.breakpoints if a < x < b]
        val, err, _, *failure = quad(
            lambda r: float(self._rho(np.asarray([r]))[0]) * r,
            a,
            b,
            points=pts or None,
            limit=200 + 20 * len(pts),
            epsabs=1e-13,
            epsrel=1e-10,
            full_output=1,
        )
        if failure:
            # quad appends its explanation only when it reports ier != 0
            raise QuadratureError(
                f"quadrature of {self.label or 'density'} over [{a!r}, {b!r}] did not "
                f"converge (value {val!r}, error estimate {err!r}): {failure[0]}")
        return float(val)

    def window_masses(self, depths: Sequence[float]) -> list[float]:
        """integral_{1-t}^1 rho r dr for each depth t in depths, in order.

        The depth-one window is integrated directly.  The other windows are
        nested, so each shell between consecutive distinct depths is
        integrated once and the shells are summed from the smallest depth
        up.  Every piece goes through window_integral.
        """
        masses: dict[float, float] = {}
        inner, total = 1.0, 0.0
        for t in sorted(set(depths)):
            if t == 1.0:
                masses[t] = self.window_integral(0.0, 1.0)
                continue
            total += self.window_integral(1.0 - t, inner)
            masses[t] = total
            inner = 1.0 - t
        return [masses[t] for t in depths]


def _zero_crossings(vals: np.ndarray) -> np.ndarray:
    """Mask of exact zeros whose nearest nonzero neighbours differ in sign.

    A grid point landing exactly on a root is a cut itself.  Zeros from
    underflow (s^e for large e and small s) sit in a run with no sign
    change across it, or with no nonzero value on one side, and are not.
    """
    nonzero = np.flatnonzero(vals != 0.0)
    zeros = np.flatnonzero(vals == 0.0)
    pos = np.searchsorted(nonzero, zeros)
    inside = (pos > 0) & (pos < len(nonzero))
    out = np.zeros(len(vals), dtype=bool)
    left = vals[nonzero[pos[inside] - 1]]
    right = vals[nonzero[pos[inside]]]
    out[zeros[inside]] = (left < 0.0) != (right < 0.0)
    return out


class SeriesGapDensity(RadialDensity):
    """Density |G(r^2)| (1-r)^gap_power for a sparse radial series G.

    Window integrals are exact: on each interval where G keeps its sign
    the integrand is a polynomial in r, and every monomial piece is an
    incomplete edge integral.  Sign roots of G are located by bracketing
    on a boundary-refined grid enriched with the balance radii of each
    exponent, then polished by Brent's method (grids.brentq).
    """

    def __init__(self, series: RadialSeries, gap_power: int = 1, nonneg: bool = False):
        if gap_power < 0:
            raise ValueError("gap_power must be nonnegative")
        self.series = series
        self.gap_power = int(gap_power)
        self.nonneg = bool(nonneg)

        def rho(r):
            r = np.asarray(r, dtype=np.float64)
            return np.abs(series.eval(r * r)) * (1.0 - r) ** self.gap_power

        super().__init__(rho)

    @cached_property
    def sign_roots(self) -> tuple[float, ...]:
        """Radii in (0, 1) where G(r^2) changes sign."""
        if self.nonneg or self.series.order < 0:
            return ()
        s_grid = self._root_scan_grid()
        vals = self.series.eval(s_grid)
        root_ss = [float(s) for s in s_grid[_zero_crossings(vals) & (s_grid > 0.0)]]

        def f(s: float) -> float:
            return float(self.series.eval(s))

        for lo, hi in sign_change_brackets(vals, s_grid):
            # re-taking signs scalar-by-scalar: vectorized and scalar
            # powers round differently at the last ulp, and brentq must
            # see a sign change under its own evaluations
            flo, fhi = f(lo), f(hi)
            if flo == 0.0:
                root_ss.append(lo)
            elif fhi == 0.0:
                root_ss.append(hi)
            elif (flo < 0.0) != (fhi < 0.0):
                root_ss.append(brentq(f, lo, hi, xtol=1e-15))
            else:
                # crossing sits at rounding level; either endpoint is a
                # root to within one ulp of the values
                root_ss.append(lo if abs(flo) <= abs(fhi) else hi)
        return tuple(sorted(set(math.sqrt(s) for s in root_ss)))

    def _root_scan_grid(self) -> np.ndarray:
        base_r = boundary_refined_grid(1201, 46.0)
        cands = []
        for e in self.series.exponents:
            e = int(e)
            if e >= 1:
                cands.append(e / (e + 1.0))
                cands.append((e * e) / ((e + 1.0) * (e + 1.0)))
                cands.append((e + 1.0) / (e + 2.0))
        cands = sorted(set(c for c in cands if 0.0 < c < 1.0))
        mids = [(x + y) / 2.0 for x, y in zip(cands, cands[1:])]
        return merge_grids(base_r * base_r, cands, mids)

    @cached_property
    def _edge_weights(self) -> np.ndarray:
        """edge_integral(2e + 1, gap_power) for each exponent e of the series."""
        return np.array([edge_integral(2 * int(e) + 1, self.gap_power)
                         for e in self.series.exponents], dtype=np.float64)

    def _signed_piece(self, a: float, b: float) -> float:
        if a == 0.0 and b == 1.0:
            # full-interval pieces cancel catastrophically in float once
            # exponents are large; sum them as exact rationals
            total = Fraction(0)
            for e, c in zip(self.series.exponents, self.series.coeffs):
                total += Fraction(float(c)) * edge_integral_exact(2 * int(e) + 1, self.gap_power)
            return float(total)
        # term e contributes c * integral_a^b r^m (1-r)^p dr with m = 2e + 1:
        # its edge weight times incomplete beta ratios, all terms in one
        # betainc call; the products are summed in term order
        p = self.gap_power
        m = 2 * self.series.exponents + 1
        weights = self._edge_weights
        if b == 1.0:
            # integral_a^1 = B(m+1, p+1) I_{1-a}(p+1, m+1) by the symmetry
            # x -> 1 - x; the difference of the two integrals from 0
            # cancels completely once 1 - a is small
            pieces = weights * betainc(p + 1, m + 1, 1.0 - a)
        else:
            ratios = betainc(m + 1, p + 1, np.array([[b], [a]]))
            pieces = weights * ratios[0] - weights * ratios[1]
        return _sum_in_order((self.series.coeffs * pieces).tolist())

    def window_integral(self, a: float, b: float) -> float:
        if not 0.0 <= a <= b <= 1.0:
            raise ValueError("window bounds must satisfy 0 <= a <= b <= 1")
        cuts = [a] + [x for x in self.sign_roots if a < x < b] + [b]
        return _sum_in_order(abs(self._signed_piece(x0, x1)) for x0, x1 in zip(cuts, cuts[1:]))

    def window_masses(self, depths: Sequence[float]) -> list[float]:
        """Exact mass of each window [1-t, 1], one closed-form sum per window."""
        return [self.window_integral(1.0 - t, 1.0) for t in depths]


# ---------------------------------------------------------------------- #
# windows and norms


def window_measure(density: RadialDensity, t: float) -> float:
    """Mass of the density over the full-circle window of depth t in (0, 1]."""
    if not 0.0 < t <= 1.0:
        raise ValueError("depth t must lie in (0, 1]")
    return TWO_PI * density.window_integral(1.0 - t, 1.0)


def window_quotient(density: RadialDensity, t: float) -> float:
    """Full-circle window mass divided by the depth t."""
    return window_measure(density, t) / t


def dyadic_t_grid(j_max: int = 40) -> np.ndarray:
    """Depths 1, 1/2, ..., 2^{-j_max}."""
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    return 2.0 ** -np.arange(0, j_max + 1, dtype=np.float64)


@dataclass(frozen=True)
class CarlesonScan:
    """Window quotient scan of a radial density over a grid of depths."""

    value: float          # sup of the quotient over the scanned depths
    t_star: float         # depth attaining it
    at_unit_depth: float  # quotient at t = 1, the total mass
    depths: tuple[float, ...]
    quotients: tuple[float, ...]


def carleson_norm(density: RadialDensity, t_grid: Sequence[float] | None = None) -> CarlesonScan:
    """Scan sup_t (2 pi / t) integral_{1-t}^1 rho r dr over a depth grid.

    All window masses, the depth-one mass included, come from one
    density.window_masses call: quadrature densities sum shell integrals
    from the smallest depth up, series densities take one exact sum per
    window.  at_unit_depth equals radial_carleson_norm bit for bit.

    The supremum over shallow depths is a diagnostic: for densities that
    live at a fixed distance from the boundary it stabilizes at an
    order-one plateau rather than following the total mass down.  Decay
    assertions should use at_unit_depth (or radial_carleson_norm).
    """
    if t_grid is None:
        t_grid = dyadic_t_grid()
    depths = [float(t) for t in t_grid]
    if not depths:
        raise ValueError("depth grid must be nonempty")
    if not all(0.0 < t <= 1.0 for t in depths):
        raise ValueError("depth t must lie in (0, 1]")
    probe = depths if 1.0 in depths else depths + [1.0]
    quots = [TWO_PI * m / t for m, t in zip(density.window_masses(probe), probe)]
    at_unit = quots[probe.index(1.0)]
    quots = quots[:len(depths)]
    i = int(np.argmax(quots))
    return CarlesonScan(
        value=quots[i],
        t_star=depths[i],
        at_unit_depth=at_unit,
        depths=tuple(depths),
        quotients=tuple(quots),
    )


def radial_carleson_norm(density: RadialDensity) -> float:
    """Total mass 2 pi integral_0^1 rho r dr, the depth-one window quotient.

    This is the quantity the vanishing estimates control for the densities
    built here.
    """
    return TWO_PI * density.window_integral(0.0, 1.0)
