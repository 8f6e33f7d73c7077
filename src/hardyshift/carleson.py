"""Carleson-type window measures for radial densities on the unit disk.

Everything here integrates densities rho(|z|) dxdy over boundary windows

    W(t, arc) = {z : 1 - t <= |z| < 1, arg z in an arc of length arc},

so window masses factor as arc * integral of rho(r) r dr over [1-t, 1).
Every window here takes the full circle, arc = 2 pi.

A Carleson box over an arc of length a has depth t = a / (2 pi) and mass
a * integral_{1-t}^1 rho r dr <= a * integral_0^1 rho r dr, with equality
on the full circle.  So the Carleson constant of a radial density, box
mass over a / (2 pi), is its total mass 2 pi * integral_0^1 rho r dr
(radial_carleson_norm), which every verifier row reads.  carleson_norm
scans the full-circle quotient (2 pi / t) * integral_{1-t}^1 rho r dr over
dyadic depths: no box quotient, and a diagnostic the verifier does not
call.

The polynomial densities |G(r^2)| (1-r)^p are integrated exactly: their
pieces reduce to edge integrals

    integral_0^1 r^m (1-r)^p dr = m! p! / (m+p+1)!

evaluated in integer arithmetic, because the alternating float sum
sum_i (-1)^i C(p, i) / (m+i+1) loses all precision once m is large.
Partial pieces are edge integrals times incomplete beta ratios with
integer parameters, which have closed forms (head_ratio, tail_ratio).
Densities without a series go through the package's adaptive
Gauss-Kronrod rule (grids.gauss_kronrod), so nothing here needs scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .grids import QuadratureError, brentq, gauss_kronrod, sign_change_brackets, sign_roots
from .search import (  # noqa: F401  (gradient_sq_mass: re-exported)
    TWO_PI,
    _integer_coefficients,
    _sum_in_order,
    edge_integral_exact,
    gradient_sq_mass,
)
from .series import RadialSeries

_SERIES_BITS = 63  # tail_ratio's series drops terms below 2^-63 of the first


def _boundary_laplacian(series: RadialSeries) -> tuple[int, list[float], np.ndarray]:
    """Laplacian of a short series G in the boundary variable u = 1 - r.

    Writes Delta G = sum_e e^2 c_e s^{e-1} = s^N R(1-s), with R's integer
    coefficients formed exactly from the float c_e (integers over one power
    of two), and then S(u) = R(u (2-u)), since 1 - s = u (2-u), also
    exact.  The density |Delta G| (1-r) r dr is u (1-u)^{2N+1} |S(u)| du,
    and term j of S has the full mass a_j = S_j B(j+2, 2N+2), each rounded
    once.  Returns (2N+1, [a_j], cuts): the cuts are the sign changes of S
    in (0, 1), ascending, then 1.  They come from a scan of 16 points per
    octave, which would miss two roots within 4 % of each other; a spike
    term or a bump has one root, as its coefficients change sign once in
    exponent order (Descartes' rule of signs).
    """
    terms, scale = _integer_coefficients(series)
    if not terms:
        return 1, [], np.ones(1)
    low = terms[0][0] - 1  # N
    r = [0] * (terms[-1][0] - low)
    for e, num in terms:
        lap, d = e * e * num, e - 1 - low
        for i in range(d + 1):
            r[i] += (-1) ** i * math.comb(d, i) * lap
    s = [0] * (2 * len(r) - 1)
    for i, ri in enumerate(r):
        for k in range(i + 1):  # (u (2-u))^i = sum_k C(i, k) 2^{i-k} (-1)^k u^{i+k}
            s[i + k] += (-1) ** k * math.comb(i, k) * 2 ** (i - k) * ri
    m = 2 * low + 1
    # B(j+2, m+1) = edge_integral_exact(m, j+1); int / int rounds once
    masses = [sj / (scale * (m + j + 2) * math.comb(m + j + 1, j + 1)) for j, sj in enumerate(s)]
    # the roots x = 1 - s of R lie near 1/N: in y = (N+1) x its coefficients
    # are of order one, and brentq polishes each sign change of a geometric
    # scan to rounding in y (in s, rounding would be N times coarser)
    scaled = [ri / (scale * (low + 1) ** i) for i, ri in enumerate(r)]

    def poly(y):
        return np.polynomial.polynomial.polyval(y, scaled)

    grid = np.geomspace(2.0 ** -30, low + 1.0, 16 * (30 + (low + 1).bit_length()))
    x = np.array([brentq(poly, lo, hi, xtol=0.0)
                  for lo, hi in sign_change_brackets(poly(grid), grid)]) / (low + 1)
    return m, masses, np.append(x / (1.0 + np.sqrt(1.0 - x)), 1.0)


def laplacian_masses(terms: Sequence[RadialSeries]) -> list[float]:
    """Mass 2 pi integral_0^1 |Delta G(r^2)| (1-r) r dr of each short series G.

    Each G is read in the boundary basis of _boundary_laplacian, where the
    mass is a sum of incomplete beta pieces between the roots of a
    polynomial of degree at most twice G's exponent span: no float product
    e^2 c_e is formed, so the pieces do not cancel at large exponents.  The
    shares tail_ratio(2N+1, j+1, u) of all terms and cuts are taken in one
    call per j.
    """
    blocks = [_boundary_laplacian(g) for g in terms]
    if not blocks:
        return []
    m = np.concatenate([np.full(len(cuts), mj, dtype=np.float64) for mj, _, cuts in blocks])
    u = np.concatenate([cuts for _, _, cuts in blocks])
    coeffs = np.zeros((len(u), max(len(a) for _, a, _ in blocks)))
    rows = np.cumsum([0] + [len(cuts) for _, _, cuts in blocks])
    for (_, a, _), lo, hi in zip(blocks, rows, rows[1:]):
        coeffs[lo:hi, :len(a)] = a
    cumulative = np.zeros(len(u))  # mass of S's terms on [0, u], summed in term order
    for j in range(coeffs.shape[1]):
        cumulative += coeffs[:, j] * tail_ratio(m, j + 1, u)
    return [TWO_PI * _sum_in_order(np.abs(np.diff(cumulative[lo:hi], prepend=0.0)).tolist())
            for lo, hi in zip(rows, rows[1:])]


def _rising_sum(m: np.ndarray, p: int, y: np.ndarray) -> np.ndarray:
    """sum_{j=1}^{p} C(m+j, j) y^j by Horner's rule; every term is positive."""
    acc = np.zeros(np.broadcast(m, y).shape)
    for j in range(p, 0, -1):
        acc = (m + j) / j * y * (1.0 + acc)
    return acc


def head_ratio(m, p: int, x) -> np.ndarray:
    """Share of integral_0^1 r^m (1-r)^p dr that lies on [0, x].

    The regularized incomplete beta I_x(m+1, p+1) for integer m, p >= 0,
    from its finite positive form x^{m+1} sum_{j=0}^{p} C(m+j, j) (1-x)^j.
    m and x broadcast against each other.
    """
    m = np.asarray(m, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return np.power(x, m + 1.0) * (1.0 + _rising_sum(m, p, 1.0 - x))


def tail_ratio(m, p: int, t) -> np.ndarray:
    """Share of integral_0^1 r^m (1-r)^p dr that lies on [1-t, 1].

    The regularized incomplete beta I_t(p+1, m+1) for integer m, p >= 0.
    Its complement 1 - (1-t)^{m+1} sum_{j=0}^{p} C(m+j, j) t^j cancels
    when (m+1) t is small, so two forms are used:

    * (m+1) t >= 1/2: -expm1((m+1) log1p(-t) + log1p(sum_{j>=1} ...));
    * below: the integral_0^t u^p (1-u)^m du expanded in powers of u,
      sum_k (-1)^k C(m, k) t^{p+k+1} / (p+k+1), divided by the edge
      integral.  Its term ratio is at most (m+1) t < 1/2, and the batch
      takes as many terms as its worst row needs to reach 2^-63 of the
      first, at most 63.  Every partial sum exceeds half the first term,
      so the terms past a row's own need are below a quarter ulp and
      leave its bits unchanged: summed in order (cumsum; np.sum adds a
      single row pairwise), a row's bits do not depend on the batch.

    m and t broadcast against each other.
    """
    m = np.asarray(m, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if m.shape != t.shape:
        zeros = np.zeros(np.broadcast(m, t).shape)
        m, t = m + zeros, t + zeros
    out = np.empty(m.shape)
    small = (m + 1.0) * t < 0.5
    big = ~small
    # t = 1 gives log1p(-1) = -inf and a ratio of 1; t = 0 needs one term
    with np.errstate(divide="ignore"):
        if big.any():
            mb, tb = m[big], t[big]
            out[big] = -np.expm1((mb + 1.0) * np.log1p(-tb) + np.log1p(_rising_sum(mb, p, tb)))
        if small.any():
            ms, ts = m[small], t[small]
            count = max(1, math.ceil(_SERIES_BITS / -np.log2(np.max((ms + 1.0) * ts))))
            # one column per row of the batch, one row per term
            k = np.arange(1.0, count)[:, None]
            terms = np.empty((count, len(ms)))
            terms[0] = 1.0
            np.cumprod((k - 1.0 - ms) * (ts / k), axis=0, out=terms[1:])
            terms /= p + 1.0 + np.arange(float(count))[:, None]
            # 1 / B(p+1, m+1) = (m+p+1) C(m+p, p)
            scale = ms + (p + 1.0)
            for i in range(1, p + 1):
                scale = scale * (ms + i) / i
            out[small] = scale * np.power(ts, p + 1.0) * np.cumsum(terms, axis=0)[-1]
    return out


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

    def window_integral(self, a: float, b: float, errors: list[float] | None = None) -> float:
        """integral_a^b rho(r) r dr by adaptive Gauss-Kronrod quadrature.

        The rule starts on the cells between the breakpoints inside
        (a, b).  When `errors` is given, the error estimate is appended to
        it.  Raises QuadratureError when the rule does not converge.
        """
        if not 0.0 <= a <= b <= 1.0:
            raise ValueError("window bounds must satisfy 0 <= a <= b <= 1")
        if a == b:
            value, error = 0.0, 0.0
        else:
            pts = [x for x in self.breakpoints if a < x < b]
            try:
                value, error = gauss_kronrod(lambda r: self._rho(r) * r, [a, *pts, b],
                                             limit=200 + 20 * len(pts))
            except QuadratureError as exc:
                raise QuadratureError(f"quadrature of {self.label or 'density'} over "
                                      f"[{a!r}, {b!r}] failed: {exc}") from None
        if errors is not None:
            errors.append(error)
        return value


class SeriesGapDensity(RadialDensity):
    """Density |G(r^2)| (1-r)^gap_power for a sparse radial series G.

    Window integrals are exact: on each interval where G keeps its sign
    the integrand is a polynomial in r, and every monomial piece is an
    incomplete edge integral.  Sign roots of G come from grids.sign_roots
    on the series' own exponents.
    """

    def __init__(self, series: RadialSeries, gap_power: int):
        if gap_power < 0:
            raise ValueError("gap_power must be nonnegative")
        self.series = series
        self.gap_power = int(gap_power)

        def rho(r):
            r = np.asarray(r, dtype=np.float64)
            return np.abs(series.eval(r * r)) * (1.0 - r) ** self.gap_power

        super().__init__(rho)

    @cached_property
    def sign_roots(self) -> tuple[float, ...]:
        """Radii in (0, 1) where G(r^2) changes sign."""
        return sign_roots(self.series.eval, self.series.exponents)

    @cached_property
    def _edge_weights(self) -> np.ndarray:
        """integral_0^1 r^{2e+1} (1-r)^gap_power dr for each exponent e of the
        series, each rounded once from its exact rational."""
        return np.array([float(edge_integral_exact(2 * int(e) + 1, self.gap_power))
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
        # vectorized call; the products are summed in term order
        p = self.gap_power
        m = 2 * self.series.exponents + 1
        weights = self._edge_weights
        if b == 1.0:
            # integral_a^1 = B(m+1, p+1) I_{1-a}(p+1, m+1) by the symmetry
            # x -> 1 - x; the difference of the two integrals from 0
            # cancels completely once 1 - a is small
            pieces = weights * tail_ratio(m, p, 1.0 - a)
        else:
            ratios = head_ratio(m, p, np.array([[b], [a]]))
            pieces = weights * ratios[0] - weights * ratios[1]
        return _sum_in_order((self.series.coeffs * pieces).tolist())

    def window_integral(self, a: float, b: float) -> float:
        if not 0.0 <= a <= b <= 1.0:
            raise ValueError("window bounds must satisfy 0 <= a <= b <= 1")
        cuts = [a] + [x for x in self.sign_roots if a < x < b] + [b]
        return _sum_in_order(abs(self._signed_piece(x0, x1)) for x0, x1 in zip(cuts, cuts[1:]))


# ---------------------------------------------------------------------- #
# windows and norms


def dyadic_t_grid() -> np.ndarray:
    """The depths carleson_norm scans: 1, 1/2, ..., 2^-40."""
    return 2.0 ** -np.arange(0, 41, dtype=np.float64)


@dataclass(frozen=True)
class CarlesonScan:
    """Window quotient scan of a radial density over dyadic_t_grid()."""

    value: float          # sup of the quotient over the scanned depths
    t_star: float         # depth attaining it
    at_unit_depth: float  # quotient at t = 1, the total mass
    depths: tuple[float, ...]
    quotients: tuple[float, ...]


def carleson_norm(density: RadialDensity) -> CarlesonScan:
    """Scan sup_t (2 pi / t) integral_{1-t}^1 rho r dr over dyadic_t_grid().

    A diagnostic: for densities that live at a fixed distance from the
    boundary the supremum over shallow depths stabilizes at an order-one
    plateau rather than following the total mass down.  at_unit_depth
    equals radial_carleson_norm bit for bit.
    """
    depths = dyadic_t_grid().tolist()
    quots = [TWO_PI * density.window_integral(1.0 - t, 1.0) / t for t in depths]
    i = int(np.argmax(quots))
    return CarlesonScan(value=quots[i], t_star=depths[i], at_unit_depth=quots[0],
                        depths=tuple(depths), quotients=tuple(quots))


def radial_carleson_norm(density: RadialDensity) -> float:
    """Total mass 2 pi integral_0^1 rho r dr, the Carleson constant of the
    radial density and the quantity the vanishing estimates control."""
    return TWO_PI * density.window_integral(0.0, 1.0)
