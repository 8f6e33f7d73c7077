"""Carleson-type window measures for radial densities on the unit disk.

Everything here integrates densities rho(|z|) dxdy over boundary windows

    W(t, arc) = {z : 1 - t <= |z| < 1, arg z in an arc of length arc},

so window masses factor as arc * integral of rho(r) r dr over [1-t, 1).
Every window here takes the full circle, arc = 2 pi.

A Carleson box over an arc of length a has depth t = a / (2 pi) and mass
a * integral_{1-t}^1 rho r dr <= a * integral_0^1 rho r dr, with equality
on the full circle.  So the Carleson constant of a radial density, box
mass over a / (2 pi), is its total mass 2 pi * integral_0^1 rho r dr.
The verifier's mass rows are such total masses, which term_decay reads
from the boundary blocks below.  radial_carleson_norm takes the same
total mass of a RadialDensity, and carleson_norm scans the full-circle
quotient (2 pi / t) * integral_{1-t}^1 rho r dr over dyadic depths (no
box quotient); both are diagnostics that the verifier does not call.

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
by a scan in u of the blocks themselves (_block_roots) for term_decay's
Laplacian mass, and by grids.sign_roots for SeriesGapDensity.  The scan
evaluates the blocks only from the last grid point at or below u_cert
on: below u_cert each block's lowest nonzero term outweighs its others
four to one, so the summed density keeps that term's sign or is 0 even
as Horner's rule rounds it, and no bracket can lie there.  The same
blocks give the verifier's suprema (block_supremum): the largest value at
the ends and at the sign changes of the blocks' exact u-derivatives, found
by the same scan.  term_decay returns all five decay quantities of a term.

term_decay and everything it calls run on the standard library, in
Python floats and math, so `verify` loads neither numpy nor scipy.
Only the densities and the depth scan import numpy and grids, when they
are used: densities without a series go through the package's adaptive
Gauss-Kronrod rule (grids.gauss_kronrod), and SeriesGapDensity finds its
sign roots with grids.sign_roots.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .search import (
    TWO_PI,
    _integer_coefficients,
    _sum_in_order,
    brentq,
    gradient_sq_mass,
)

if TYPE_CHECKING:
    import numpy as np

    from .series import RadialSeries

_SERIES_BITS = 63  # tail_ratio's series drops terms below 2^-63 of the first
_TINY = sys.float_info.min  # the smallest normal float


class _Block(NamedTuple):
    """One run of consecutive exponents N..N+w of a series, s^N P(s), read in u = 1 - r
    as (1-u)^m u^p S(u) / scale, m = 2N + r_power (1 for a density against r dr: r = 1 - u).

    s holds S's exact integers, and scaled[j] = S_j / (scale (m+1)^j) the
    coefficient of term j in y = (m+1) u, in which the coefficients are of
    comparable size near the block's scale u ~ 1/N; horner is scaled
    reversed, the order Horner's rule reads it in.
    """

    m: int
    s: list[int]
    scale: int
    scaled: list[float]
    horner: tuple[float, ...]

    def masses(self, p: int) -> list[float]:
        """Full mass S_j B(j+p+1, m+1) / scale of each term j, int over int rounded once."""
        return [sj / (self.scale * (self.m + j + p + 1) * math.comb(self.m + j + p, j + p))
                for j, sj in enumerate(self.s)]


def _runs(terms: list[tuple[int, int]]) -> list[tuple[int, list[int]]]:
    """(N, S) for each run of consecutive exponents N..N+w of sum_e n_e s^e:
    since s = (1-u)^2 in u = 1 - r, the run is (1-u)^{2N} S(u) with
    S(u) = sum_e n_e (1-u)^{2(e-N)}, whose integer coefficients are formed
    exactly, by Horner's rule in x = (1-u)^2 = 1 - 2u + u^2 from the top
    term down: S <- S x + n_e.  A run of w + 1 terms gives S degree 2w; a
    zero term does not end it, so a spike term, zeros kept, is one run."""
    runs = []
    starts = [i for i in range(len(terms)) if i == 0 or terms[i][0] != terms[i - 1][0] + 1]
    for lo, hi in zip(starts, [*starts[1:], len(terms)]):
        s = [terms[hi - 1][1]]
        for _, num in reversed(terms[lo:hi - 1]):
            s = [a - 2 * b + c for a, b, c in zip([*s, 0, 0], [0, *s, 0], [0, 0, *s])]
            s[0] += num
        runs.append((terms[lo][0], s))
    return runs


def _block(m: int, s: list[int], scale: int) -> _Block:
    """The block (1-u)^m u^p S(u) / scale, for any gap power p."""
    scaled = [sj / (scale * (m + 1) ** j) for j, sj in enumerate(s)]
    return _Block(m, s, scale, scaled, tuple(reversed(scaled)))


def _boundary_blocks(runs: list[tuple[int, list[int]]], scale: int, r_power: int) -> list[_Block]:
    """The density sum_e (n_e / scale) s^e (1-r)^p r^r_power dr, from its _runs, as blocks."""
    return [_block(2 * low + r_power, s, scale) for low, s in runs]


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


def _block_density(blocks: Sequence[_Block], u: float) -> float:
    """sum over blocks of (1-u)^m S(u), the density without its u^p factor; a block
    whose (1-u)^m underflows adds exactly 0 and is skipped, and one with m = 0
    adds S(u), also at u = 1, where (1-u)^m is 0 for every m > 0."""
    log_rest = math.log1p(-u) if u < 1.0 else -math.inf
    total = 0.0
    for b in blocks:
        weight = math.exp(b.m * log_rest) if b.m else 1.0
        if weight == 0.0:
            continue
        y, poly = (b.m + 1) * u, 0.0
        for c in b.horner:
            poly = poly * y + c
        total += weight * poly
    return total


def _lowest_term_rule(b: _Block, start: float) -> tuple[float, float] | None:
    """(sigma, u_b): at every u in [start, u_b], the block's Horner value in
    _block_density, P(y) = sum_j c_j y^j in y = (m+1) u, has the sign sigma
    of its lowest nonzero coefficient c_k, or is 0.  None when S is all
    zero, or when the lowest term at start, |c_k| ((m+1) start)^k, is below
    len(S) smallest normal floats.

    Below y_lo = min over the other nonzero j of (|c_k| / (4 |c_j|))^(1/(j-k)) / 2,
    term j is at most 2^-(j-k) |c_k| y^k / 4, so the other terms sum to less
    than |c_k| y^k / 4, and Horner's rounding moves P by at most gamma_{2d}
    times the sum of the terms' absolute values (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 5.1), far less than the
    3/4 left.  Gradual underflow adds an absolute error that this relative
    bound does not cover, below 2^-1074 a step while y <= 1; so u_b also
    keeps y <= 1, and the floor on the lowest term keeps that error below
    2^-52 of it.  The factor just below 1 covers the rounding of ** and of y.
    """
    nonzero = [(j, c) for j, c in enumerate(b.scaled) if c != 0.0]
    if not nonzero:
        return None
    (k, ck), others = nonzero[0], nonzero[1:]
    if abs(ck) * ((b.m + 1) * start) ** k < len(b.scaled) * _TINY:
        return None
    y_lo = min(((abs(ck) / (4.0 * abs(c))) ** (1.0 / (j - k)) / 2.0 for j, c in others),
               default=math.inf)
    return math.copysign(1.0, ck), min(1.0, (1.0 - 1e-9) * y_lo) / (b.m + 1)


def _block_roots(blocks: Sequence[_Block]) -> list[float]:
    """Sign changes of the summed block densities in u in (0, 1), ascending.

    One geometric scan of 16 points per octave, from 2^-30 / (m+1) of the
    block with the largest m up to 1, brackets them, and brentq polishes
    each to rounding in u; two roots within 4 % of each other would be
    missed.  The scan's points are those of numpy's geomspace, formed the
    same way in floats: 10 ** y for y evenly spaced from log10 of the start
    to 0, with both ends pinned.  A value below the smallest normal float
    counts as zero, as in grids.sign_roots, and a bracket needs two nonzero
    ends of opposite sign.

    When every block has a _lowest_term_rule with one sign sigma, each block
    adds (1-u)^m >= 0 times a value of sign sigma or 0 at every u up to
    u_cert, the least u_b, and a float sum of such terms keeps sign sigma or
    is 0; so no two points up to u_cert bracket a root.  The scan evaluates
    the points from the last one at or below u_cert on, which can still
    start a bracket, and returns no root when u_cert >= 1; the brackets, and
    so the roots, are those of the full scan bit for bit.
    """
    if not blocks:
        return []
    top = max(b.m for b in blocks) + 1
    start, count = 2.0 ** -30 / top, 16 * (30 + top.bit_length())
    log_start = math.log10(start)
    step = -log_start / (count - 1)

    def point(i: int) -> float:
        return start if i == 0 else 1.0 if i == count - 1 else 10.0 ** (i * step + log_start)

    first = 0
    rules = [_lowest_term_rule(b, start) for b in blocks]
    if all(rules) and len({sigma for sigma, _ in rules}) == 1:
        u_cert = min(u_b for _, u_b in rules)
        if u_cert >= 1.0:
            return []
        first = min(count - 2, int((math.log10(max(u_cert, start)) - log_start) / step))
        while first > 0 and point(first) > u_cert:
            first -= 1
        while point(first + 1) <= u_cert:
            first += 1
    grid = [point(i) for i in range(first, count)]
    values = [_block_density(blocks, u) for u in grid]
    values = [0.0 if abs(v) < _TINY else v for v in values]
    return [brentq(lambda u: _block_density(blocks, u), lo, hi, xtol=0.0)
            for lo, hi, a, b in zip(grid, grid[1:], values, values[1:])
            if (a < 0.0) != (b < 0.0) and abs(a) > 0.0 and abs(b) > 0.0]


def block_supremum(runs: list[tuple[int, list[int]]], scale: int, p: int,
                   r_power: int) -> tuple[float, float]:
    """(argmax_r, sup) over r in [0, 1] of |G(r^2)| (1-r)^p r^r_power, from the _runs of n_e.

    In u = 1 - r each run of G = sum_e (n_e / scale) s^e is a block (1-u)^m u^p S(u),
    m = 2N + r_power.  The candidates are r = 0 (G(0) = S(1) of the block with m = 0,
    if any), the sign changes of the summed slope blocks (_slope, _block_roots)
    and r = 1 (G(1) = the sum of the runs' S(0), if p = 0), whose values are int over
    int, rounded once; no power s^N of a rounded s = r^2 is taken.  Ties keep the smaller r.
    """
    blocks = _boundary_blocks(runs, scale, r_power)
    slopes = [_block(*_slope(b.m, b.s, p), scale) for b in blocks]
    at_zero = abs(sum(sum(b.s) for b in blocks if b.m == 0)) / scale
    at_one = abs(sum(b.s[0] for b in blocks)) / scale if p == 0 else 0.0
    inside = [(1.0 - u, float(u ** p * abs(_block_density(blocks, u))))
              for u in reversed(_block_roots(slopes))]
    return max([(0.0, at_zero), *inside, (1.0, at_one)], key=lambda candidate: candidate[1])


def _block_mass(blocks: Sequence[_Block], points: Sequence[float], p: int) -> float:
    """The sum over i of |mass of the summed blocks between the monotone points
    u_i and u_{i+1}|.

    The signed mass of a block on [0, u] is sum_j M_j tail_ratio(m, j+p, u),
    M its masses(p), added over the powers j in order; a zero M_j is left
    out, not multiplied by a share.  Each block's mass between neighbouring
    points is one difference, and those are added over the blocks, in order.
    """
    full = [(b.m, b.masses(p)) for b in blocks]  # once per block, not per point
    cumulative = [[_sum_in_order(mj * tail_ratio(m, j + p, u)
                                 for j, mj in enumerate(masses) if mj != 0.0)
                   for m, masses in full] for u in points]
    return _sum_in_order(abs(_sum_in_order(hi - lo for lo, hi in zip(below, above)))
                         for below, above in zip(cumulative, cumulative[1:]))


def term_decay(g) -> list[tuple[float | None, float]]:
    """(argmax_r, value) of the five decay quantities of a radial term G(s),
    s = r^2 (RadialSeries or Terms), in search.Decay's field order: the sups
    of |G|, |Delta G| (1-r)^2 and |gradient G| (1-r) = r |G'(r^2)| (1-r), and
    the masses 2 pi integral_0^1 |Delta G(r^2)| (1-r) r dr and gradient_sq_mass.

    Delta G = sum_e e^2 c_e s^{e-1} and G' = sum_e e c_e s^{e-1} are formed
    from G's integer coefficients (integers over one power of two), so no
    float product e^2 c_e is rounded, and neither s G'^2 nor any other
    product is expanded; each of G, Delta G and G' is split into _runs once.
    The suprema are block_supremum's.  The Laplacian mass reads Delta G's
    runs as boundary blocks with m = 2N + 1, one per run (one per spike, for
    a spike term or f - 1), and sums their incomplete beta pieces between the
    sign changes of the summed blocks, found in u = 1 - r.  No mass has an argmax.
    """
    coeffs, scale = _integer_coefficients(g)
    laplacian = _runs([(e - 1, e * e * n) for e, n in coeffs if e])
    blocks = _boundary_blocks(laplacian, scale, 1)
    mass = _block_mass(blocks, [0.0, *_block_roots(blocks), 1.0], 1)
    return [block_supremum(_runs(coeffs), scale, 0, 0),
            block_supremum(laplacian, scale, 2, 0),
            block_supremum(_runs([(e - 1, e * n) for e, n in coeffs if e]), scale, 1, 1),
            (None, TWO_PI * mass),
            (None, gradient_sq_mass(g))]


def _rising_sum(m: float, p: int, y: float) -> float:
    """sum_{j=1}^{p} C(m+j, j) y^j by Horner's rule; every term is positive."""
    acc = 0.0
    for j in range(p, 0, -1):
        acc = (m + j) / j * y * (1.0 + acc)
    return acc


def tail_ratio(m: int, p: int, t: float) -> float:
    """Share of integral_0^1 r^m (1-r)^p dr that lies on [1-t, 1].

    The regularized incomplete beta I_t(p+1, m+1) for integer m, p >= 0.
    Its complement 1 - (1-t)^{m+1} sum_{j=0}^{p} C(m+j, j) t^j cancels
    when (m+1) t is small, so two forms are used:

    * (m+1) t >= 1/2: -expm1((m+1) log1p(-t) + log1p(sum_{j>=1} ...));
    * below: the integral_0^t u^p (1-u)^m du expanded in powers of u,
      sum_k (-1)^k C(m, k) t^{p+k+1} / (p+k+1), divided by the edge
      integral.  Its term ratio is at most (m+1) t < 1/2, and it takes the
      terms down to 2^-63 of the first, at most 63, summed in order.
      Where t^{p+1} / B(p+1, m+1) is not finite or t^{p+1} is not normal,
      that front factor is formed factor by factor (within 2e-15 of mpmath).

    The ends are exact, 0 at t = 0 and 1 at t = 1, where the sum overflows
    once C(m+p, p) does.  Inside, a rising sum that overflows gives exactly 1:
    its complement is then at most 2^-15616 (an mpmath scan over p <= 130
    and m up to 2^41 + 1).  Nothing here raises: the log1p of a finite
    rising sum is at most log of the largest float, where expm1 starts to
    overflow, and (m+1) log1p(-t) <= -(m+1) t, about -1/2 or less, keeps
    the argument of expm1 below it.
    """
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    m = float(m)
    if not (m + 1.0) * t < 0.5:  # NaN t included
        rising = _rising_sum(m, p, t)
        if rising == math.inf:
            return 1.0
        return -math.expm1((m + 1.0) * math.log1p(-t) + math.log1p(rising))
    count = max(1, math.ceil(_SERIES_BITS / -math.log2((m + 1.0) * t)))
    series, factor = 1.0 / (p + 1.0), 1.0
    for k in range(1, count):
        factor *= (k - 1.0 - m) * (t / k)
        series += factor / (p + 1.0 + k)
    # 1 / B(p+1, m+1) = (m+p+1) C(m+p, p), times t^{p+1}; and the same
    # product factor by factor, (m+p+1) t and each (m+i) t / i below 1
    scale, power, front = m + (p + 1.0), t ** (p + 1.0), (m + (p + 1.0)) * t
    for i in range(1, p + 1):
        scale, front = scale * (m + i) / i, front * ((m + i) * t / i)
    if math.isfinite(scale * power) and power >= _TINY:
        front = scale * power
    return front * series


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
        import numpy as np

        return self._rho(np.asarray(r, dtype=np.float64))

    def window_integral(self, a: float, b: float, errors: list[float] | None = None) -> float:
        """integral_a^b rho(r) r dr by adaptive Gauss-Kronrod quadrature.

        The rule starts on the cells between the breakpoints inside
        (a, b).  When `errors` is given, the error estimate is appended to
        it.  Raises QuadratureError when the rule does not converge.
        """
        from .grids import QuadratureError, gauss_kronrod

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
    term_decay's Laplacian mass.
    """

    def __init__(self, series: RadialSeries, gap_power: int):
        if gap_power < 0:
            raise ValueError("gap_power must be nonnegative")
        self.series = series
        self.gap_power = int(gap_power)

        def rho(r):
            import numpy as np

            r = np.asarray(r, dtype=np.float64)
            return np.abs(series.eval(r * r)) * (1.0 - r) ** self.gap_power

        super().__init__(rho)

    @cached_property
    def sign_roots(self) -> tuple[float, ...]:
        """Radii in (0, 1) where G(r^2) changes sign."""
        from .grids import sign_roots

        return sign_roots(self.series.eval, self.series.exponents)

    @cached_property
    def _blocks(self) -> list[_Block]:
        terms, scale = _integer_coefficients(self.series)
        return _boundary_blocks(_runs(terms), scale, 1)

    def window_integral(self, a: float, b: float) -> float:
        if not 0.0 <= a <= b <= 1.0:
            raise ValueError("window bounds must satisfy 0 <= a <= b <= 1")
        cuts = [a] + [x for x in self.sign_roots if a < x < b] + [b]
        return _block_mass(self._blocks, [1.0 - x for x in cuts], self.gap_power)


# ---------------------------------------------------------------------- #
# windows and norms


def dyadic_t_grid() -> np.ndarray:
    """The depths carleson_norm scans: 1, 1/2, ..., 2^-40."""
    import numpy as np

    return 2.0 ** -np.arange(0, 41, dtype=np.float64)


class CarlesonScan(NamedTuple):
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
    import numpy as np

    depths = dyadic_t_grid().tolist()
    quots = [TWO_PI * density.window_integral(1.0 - t, 1.0) / t for t in depths]
    i = int(np.argmax(quots))
    return CarlesonScan(value=quots[i], t_star=depths[i], at_unit_depth=quots[0],
                        depths=tuple(depths), quotients=tuple(quots))


def radial_carleson_norm(density: RadialDensity) -> float:
    """Total mass 2 pi integral_0^1 rho r dr, the Carleson constant of the
    radial density and the quantity the vanishing estimates control."""
    return TWO_PI * density.window_integral(0.0, 1.0)
