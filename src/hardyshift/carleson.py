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

The polynomial densities |G(r^2)| (1-r)^p are integrated exactly in the
float coefficients of G, in the boundary variable u = 1 - r.  Each run of
consecutive exponents of G is a block s^N P(s) = (1-u)^{2N} S(u), with S's
integer coefficients formed exactly, so the block's density is
(1-u)^{2N+1} u^p |S(u)| du.  Term j of S has the full mass

    S_j integral_0^1 u^{j+p} (1-u)^{2N+1} du = S_j (j+p)! (2N+1)! / (2N+j+p+2)!,

an integer quotient rounded once (the alternating float sum
sum_i (-1)^i C(p, i) / (m+i+1) loses all precision once m is large), and
its mass on [0, u] is that times tail_ratio(2N+1, j+p, u), an incomplete
beta ratio with integer parameters, which has a closed form.  A window
mass sums these pieces between the sign changes of the density: found
by a scan in u for laplacian_masses, and by grids.sign_roots for
SeriesGapDensity.  The same blocks give the verifier's suprema
(block_supremum): the largest value at the ends and at the sign changes of
the blocks' exact u-derivatives, found by the same scan.  Densities without
a series go through the package's adaptive Gauss-Kronrod rule
(grids.gauss_kronrod), so nothing here needs scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .grids import (_TINY, QuadratureError, brentq, gauss_kronrod, sign_change_brackets,
                    sign_roots)
from .search import (  # noqa: F401  (gradient_sq_mass: re-exported)
    TWO_PI,
    _integer_coefficients,
    _sum_in_order,
    gradient_sq_mass,
)
from .series import RadialSeries

_SERIES_BITS = 63  # tail_ratio's series drops terms below 2^-63 of the first


class _Block(NamedTuple):
    """One run of consecutive exponents N..N+w of a series, s^N P(s), read in u = 1 - r
    as (1-u)^m u^p S(u) / scale, m = 2N + r_power (1 for a density against r dr: r = 1 - u).

    s holds S's exact integers, and scaled[j] = S_j / (scale (m+1)^j) the
    coefficient of term j in y = (m+1) u, in which the coefficients are of
    comparable size near the block's scale u ~ 1/N.
    """

    m: int
    s: list[int]
    scale: int
    scaled: list[float]

    def masses(self, p: int) -> list[float]:
        """Full mass S_j B(j+p+1, m+1) / scale of each term j, int over int rounded once."""
        return [sj / (self.scale * (self.m + j + p + 1) * math.comb(self.m + j + p, j + p))
                for j, sj in enumerate(self.s)]


def _runs(terms: list[tuple[int, int]]) -> list[tuple[int, list[int]]]:
    """(N, S) for each run of consecutive exponents N..N+w of sum_e n_e s^e:
    the run is s^N R(1-s) = (1-u)^{2N} S(u) in u = 1 - r, with R's and then
    S(u) = R(u (2-u))'s integer coefficients formed exactly, since
    1 - s = u (2-u).  A run of w + 1 terms gives S degree 2w."""
    runs = []
    starts = [i for i in range(len(terms)) if i == 0 or terms[i][0] != terms[i - 1][0] + 1]
    for lo, hi in zip(starts, [*starts[1:], len(terms)]):
        low = terms[lo][0]
        r = [0] * (hi - lo)
        for e, num in terms[lo:hi]:
            d = e - low
            for i in range(d + 1):
                r[i] += (-1) ** i * math.comb(d, i) * num
        s = [0] * (2 * len(r) - 1)
        for i, ri in enumerate(r):
            for k in range(i + 1):  # (u (2-u))^i = sum_k C(i, k) 2^{i-k} (-1)^k u^{i+k}
                s[i + k] += (-1) ** k * math.comb(i, k) * 2 ** (i - k) * ri
        runs.append((low, s))
    return runs


def _block(m: int, s: list[int], scale: int) -> _Block:
    """The block (1-u)^m u^p S(u) / scale, for any gap power p."""
    return _Block(m, s, scale, [sj / (scale * (m + 1) ** j) for j, sj in enumerate(s)])


def _boundary_blocks(terms: list[tuple[int, int]], scale: int, r_power: int) -> list[_Block]:
    """The density sum_e (n_e / scale) s^e (1-r)^p r^r_power dr as boundary blocks, any p."""
    return [_block(2 * low + r_power, s, scale) for low, s in _runs(terms)]


def _slope(m: int, s: list[int], p: int) -> tuple[int, list[int]]:
    """(m', T) with u d/du [(1-u)^m u^p S(u)] = (1-u)^{m'} u^p T(u), exact in S's
    integers: term j gives (p+j) u^j - (p+j+m) u^{j+1} over (1-u)^{m-1}, or
    (p+j) u^j over (1-u)^0 when m = 0."""
    if m == 0:
        return 0, [(p + j) * sj for j, sj in enumerate(s)]
    t = [0] * (len(s) + 1)
    for j, sj in enumerate(s):
        t[j] += (p + j) * sj
        t[j + 1] -= (p + j + m) * sj
    return m - 1, t


def _block_density(blocks: Sequence[_Block], u):
    """sum over blocks of (1-u)^m S(u), the density without its u^p factor; a block
    whose (1-u)^m underflows adds exactly 0, and one with m = 0 S(u), also at u = 1."""
    total = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for b in blocks:
            y, poly = (b.m + 1) * u, 0.0
            for c in reversed(b.scaled):
                poly = poly * y + c
            if b.m:
                weight = np.exp(b.m * np.log1p(-u))
                poly = np.where(weight > 0.0, weight * poly, 0.0)
            total = total + poly
    return total


def _block_roots(blocks: Sequence[_Block]) -> list[float]:
    """Sign changes of the summed block densities in u in (0, 1), ascending.

    One geometric scan of 16 points per octave, from 2^-30 / (m+1) of the
    block with the largest m up to 1, brackets them, and brentq polishes
    each to rounding in u; two roots within 4 % of each other would be
    missed.  A value below the smallest normal float counts as zero, as in
    grids.sign_roots.
    """
    if not blocks:
        return []
    top = max(b.m for b in blocks) + 1
    grid = np.geomspace(2.0 ** -30 / top, 1.0, 16 * (30 + top.bit_length()))
    values = _block_density(blocks, grid)
    values = np.where(np.abs(values) < _TINY, 0.0, values)
    return [brentq(lambda u: _block_density(blocks, u), lo, hi, xtol=0.0)
            for lo, hi in sign_change_brackets(values, grid)]


def block_supremum(terms: list[tuple[int, int]], scale: int, p: int,
                   r_power: int) -> tuple[float, float]:
    """(argmax_r, sup) over r in [0, 1] of |G(r^2)| (1-r)^p r^r_power, G = sum_e (n_e / scale) s^e.

    In u = 1 - r each run of G is a block (1-u)^m u^p S(u), m = 2N + r_power.
    The candidates are r = 0 (the constant term, when r_power = 0), the sign
    changes of the summed slope blocks (_slope, _block_roots), and r = 1
    (|G(1)|, when p = 0).  The end values are int over int, rounded once,
    and no power s^N of a rounded s = r^2 is taken.  Ties keep the smaller r.
    """
    blocks = _boundary_blocks(terms, scale, r_power)
    slopes = [_block(*_slope(b.m, b.s, p), scale) for b in blocks]
    at_zero = abs(sum(n for e, n in terms if e == 0)) / scale if r_power == 0 else 0.0
    at_one = abs(sum(n for _, n in terms)) / scale if p == 0 else 0.0
    inside = [(1.0 - u, float(u ** p * abs(_block_density(blocks, u))))
              for u in reversed(_block_roots(slopes))]
    return max([(0.0, at_zero), *inside, (1.0, at_one)], key=lambda candidate: candidate[1])


def _block_masses(blocks: Sequence[Sequence[_Block]], points: Sequence[Sequence[float]],
                  p: int) -> list[float]:
    """For each density (its blocks) and its monotone points u, the sum over
    i of |signed mass between points i and i+1|.

    The signed mass of a block on [0, u] is sum_j M_j tail_ratio(m, j+p, u),
    M its masses(p), one row per block and point.  One tail_ratio call
    per power j takes the rows of every density that have a nonzero term j;
    the others are left out, not multiplied by zero, so a row's value
    depends on its own block and point alone.  Each block's masses between
    neighbouring points are added over the blocks, in order.
    """
    full = [[(b.m, b.masses(p)) for b in bs] for bs in blocks]  # once per block, not per point
    rows = [(*b, u) for bs, us in zip(full, points) for u in us for b in bs]
    width = max((len(masses) for _, masses, _ in rows), default=0)
    coeffs = np.zeros((len(rows), width))
    for i, (_, masses, _) in enumerate(rows):
        coeffs[i, :len(masses)] = masses
    m = np.array([mi for mi, _, _ in rows], dtype=np.float64)
    u = np.array([x for _, _, x in rows], dtype=np.float64)
    cumulative = np.zeros(len(rows))
    for j in range(width):
        live = coeffs[:, j] != 0.0
        cumulative[live] += coeffs[live, j] * tail_ratio(m[live], j + p, u[live])
    out, start = [], 0
    for bs, us in zip(blocks, points):
        shares = cumulative[start:start + len(bs) * len(us)].reshape(len(us), len(bs))
        start += shares.size
        pieces = np.diff(shares, axis=0)
        signed = np.zeros(len(pieces))
        for column in pieces.T:
            signed += column
        out.append(_sum_in_order(np.abs(signed).tolist()))
    return out


def laplacian_masses(terms: Sequence[RadialSeries]) -> list[float]:
    """Mass 2 pi integral_0^1 |Delta G(r^2)| (1-r) r dr of each series G.

    Delta G = sum_e e^2 c_e s^{e-1} is formed from G's integer coefficients
    (integers over one power of two), so no float product e^2 c_e is
    rounded, and read as boundary blocks with gap power 1: the mass is a
    sum of incomplete beta pieces between the sign changes of the summed
    blocks, found in u = 1 - r.  A term with many runs of exponents, such as
    the kernel ratio minus 1, has one block per run.  Each term's mass is
    the same whether it is measured alone or with others.
    """
    blocks = []
    for g in terms:
        coeffs, scale = _integer_coefficients(g)
        blocks.append(_boundary_blocks([(e - 1, e * e * n) for e, n in coeffs if e], scale, 1))
    points = [[0.0, *_block_roots(bs), 1.0] for bs in blocks]
    return [TWO_PI * mass for mass in _block_masses(blocks, points, 1)]


def _rising_sum(m: np.ndarray, p: int, y: np.ndarray) -> np.ndarray:
    """sum_{j=1}^{p} C(m+j, j) y^j by Horner's rule; every term is positive."""
    acc = np.zeros(np.broadcast(m, y).shape)
    for j in range(p, 0, -1):
        acc = (m + j) / j * y * (1.0 + acc)
    return acc


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

    The ends are exact, 0 at t = 0 and 1 at t = 1, where the sum overflows
    once C(m+p, p) does.  m and t broadcast against each other.
    """
    m = np.asarray(m, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if m.shape != t.shape:
        zeros = np.zeros(np.broadcast(m, t).shape)
        m, t = m + zeros, t + zeros
    out = np.full(m.shape, np.nan)
    out[t <= 0.0] = 0.0
    out[t >= 1.0] = 1.0
    inner = (t > 0.0) & (t < 1.0)
    small = inner & ((m + 1.0) * t < 0.5)
    big = inner & ~small
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

    Window integrals are exact in G's float coefficients: between the sign
    roots of G, from grids.sign_roots on the series' own exponents, each
    piece is a sum of the boundary blocks' incomplete beta pieces, as in
    laplacian_masses.
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
    def _blocks(self) -> list[_Block]:
        return _boundary_blocks(*_integer_coefficients(self.series), 1)

    def window_integral(self, a: float, b: float) -> float:
        if not 0.0 <= a <= b <= 1.0:
            raise ValueError("window bounds must satisfy 0 <= a <= b <= 1")
        cuts = [a] + [x for x in self.sign_roots if a < x < b] + [b]
        return _block_masses([self._blocks], [[1.0 - x for x in cuts]], self.gap_power)[0]


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
