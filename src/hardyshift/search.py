"""The spike search on the standard library alone.

Placing spikes is scalar arithmetic on closed forms: the decay quantities
of one edge bump s^n (1 - s) are exact rationals or the values at two
critical points found by Brent's method, the deficits of a spike are
expm1 values, and the gate compares their triangle-inequality combination
against the budgets delta / 2^k (delta / 4^k for the squared gradient
mass).  None of it needs an array, so this module imports no numpy, and
`construct` and `lemma` run without loading it.

The numpy layer (series, grids, carleson, spectral, operators and the
verifier in construction) imports these names back: construction's
lemma_bounds, grids' brentq, carleson's gradient_sq_mass and spectral's
deficit_coefficients are the objects defined here.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

from .weights import SpikeSpec, WeightSequence, build_spiked_weights, check_real

MAX_SPIKES = 8
MAX_START = 2 ** 40  # select_spike_positions gives up past this start
# the largest bump power any spike gate reads; lemma_bounds refuses larger ones
MAX_POWER = MAX_START + 2 * MAX_SPIKES

TWO_PI = 2.0 * math.pi
_BRENT_RTOL = 4.0 * sys.float_info.epsilon  # the smallest rtol scipy's brentq accepts
_BRENT_MAXITER = 100  # scipy's default


class InfeasibleConstructionError(RuntimeError):
    """No admissible spike position found below the search cap."""


class TruncationError(RuntimeError):
    """A requested tolerance needs more series terms than the configured cap."""

    def __init__(self, message: str, required_order: int):
        super().__init__(message)
        self.required_order = required_order


class DecompositionMismatchError(RuntimeError):
    """The sparse kernel ratio f misses (1-s) K by more than tol on r <= r_max.

    The bound sum_n |f_n - (1/w_n - 1/w_{n-1})| r_max^{2n} exceeds tol when the
    slope parameter of the correction coefficients is not that of the weights.
    """


class RootNotConvergedError(RuntimeError):
    """brentq used up its iterations before the bracket met the tolerance."""


# ---------------------------------------------------------------------- #
# scalar numerics


def _sum_in_order(values) -> float:
    """Float sum, left to right.

    The bits do not depend on the interpreter: builtin sum compensates
    float sums from Python 3.12 on, and np.sum adds pairwise.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of the scalar function f in [xa, xb] by Brent's method.

    A step-for-step port of scipy.optimize.brentq (Brent 1973, as in
    scipy's brentq.c) with rtol = 4 eps and maxiter = 100: the same
    inverse quadratic / secant steps, bisection fallbacks and stopping
    rule, so it evaluates f at the same points and returns the same root
    bit for bit, without importing scipy.optimize.  A step whose divisor
    underflows to zero bisects, as the C code's inf or NaN step does.
    Raises ValueError when f(xa) and f(xb) have the same sign or f returns
    NaN, and RootNotConvergedError after maxiter steps.
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
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or NaN here, which fails the test below
                stry = math.inf
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


def bump_supremum(c: float, alpha: int, beta: int, p: int) -> float:
    """sup over r in [0, 1) of F = s^c |alpha (1-s) - beta| (1-r)^p, s = r^2,
    for alpha > beta > 0.

    In t = -log s the factors read e^{-c t}, |alpha x - beta| with
    x = -expm1(-t), and (-expm1(-t/2))^p, so no term cancels against a
    rounded s.  log F is concave on each side of the sign change t_sign,
    where alpha x = beta: its slope falls from +inf to -inf on the left
    and from +inf to -c on the right.  So each side holds one critical
    point, found by brentq, except the right side when c = 0, where F
    rises to |alpha - beta| at r = 0.
    """
    def value(t):
        return math.exp(-c * t) * abs(alpha * -math.expm1(-t) - beta) * (-math.expm1(-t / 2)) ** p

    def slope(t):
        return (alpha * math.exp(-t) / (alpha * -math.expm1(-t) - beta) - c
                + 0.5 * p * math.exp(-t / 2) / -math.expm1(-t / 2))

    def first(points, rising):
        return next((t for t in points if (slope(t) > 0.0) == rising), None)

    t_sign = -math.log1p(-beta / alpha)
    steps = range(1, 64)
    left = (first((t_sign * 2.0 ** -j for j in steps), True),
            first((t_sign * (1.0 - 2.0 ** -j) for j in steps), False))
    right = (first((t_sign * (1.0 + 2.0 ** -j) for j in steps), True),
             first((t_sign * 2.0 ** j for j in steps), False))
    best = float(abs(alpha - beta)) if c == 0 else 0.0
    for lo, hi in (left, right):
        if hi is not None:
            best = max(best, value(brentq(slope, lo, hi, xtol=0.0)))
    return best


def edge_integral_exact(m: int, p: int) -> Fraction:
    """integral_0^1 r^m (1-r)^p dr as an exact rational, m! p! / (m+p+1)!."""
    if m < 0 or p < 0:
        raise ValueError("exponents must be nonnegative")
    return Fraction(1, (m + p + 1) * math.comb(m + p, p))


class Terms(NamedTuple):
    """A sparse series sum_i coeffs[i] s^exponents[i] in plain Python numbers,
    for the exact masses below where no RadialSeries is at hand."""

    exponents: Sequence[int]
    coeffs: Sequence[float]


def _integer_coefficients(series) -> tuple[list[tuple[int, int]], int]:
    """The terms (e, n_e) of a series (a RadialSeries or Terms) and one power
    of two `scale` with c_e = n_e / scale exactly, from as_integer_ratio."""
    ratios = [(int(e), float(c).as_integer_ratio())
              for e, c in zip(series.exponents, series.coeffs)]
    scale = max((d for _, (_, d) in ratios), default=1)
    return [(e, n * (scale // d)) for e, (n, d) in ratios], scale


def gradient_sq_mass(series) -> float:
    """Mass 2 pi integral_0^1 s G'(s)^2 (1-r) r dr of |gradient G|^2 (1-r), s = r^2,
    exact in the float coefficients c_i of G = sum_i c_i s^{e_i}, rounded once.

    With a_i = e_i c_i, integers over one power of two, the density is
    sum_ij a_i a_j r^{2E-2} (1-r), E = e_i + e_j, and r^{2E-1} (1-r) has
    mass 1/(2E (2E+1)) = edge_integral_exact(2E-1, 1).  Float products of
    the expanded s G'^2 cancel down to a mass of size 1/n^2 at large e_i.
    """
    coeffs, scale = _integer_coefficients(series)
    terms = [(e, e * n) for e, n in coeffs if e]
    sums: dict[int, int] = {}
    for ei, ai in terms:
        for ej, aj in terms:
            sums[ei + ej] = sums.get(ei + ej, 0) + ai * aj
    total = sum(Fraction(s, 2 * e * (2 * e + 1)) for e, s in sums.items())
    return TWO_PI * float(total / scale ** 2)


def deficit_coefficients(alpha: float, half_width: int) -> list[float]:
    """Coefficients c_j = (1+alpha)^{-2j} - 1 for j = 1..half_width, all negative."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    step = math.log1p(alpha)
    return [math.expm1(-2.0 * j * step) for j in range(1, half_width + 1)]


# ---------------------------------------------------------------------- #
# single-bump decay report


def bump_peak(n: int) -> tuple[float, float]:
    """Peak of the edge bump s^n (1 - s) at s = r^2.

    Returns (r_star, value) with r_star = sqrt(n/(n+1)) and value
    n^n / (n+1)^{n+1}, computed in log form so large n stays exact to
    rounding.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0.0, 1.0
    value = math.exp(-n * math.log1p(1.0 / n)) / (n + 1)
    return math.sqrt(n / (n + 1.0)), value


class Decay(NamedTuple):
    """The five decay quantities of a radial term G(s), s = |z|^2.

    value_sup             sup of |G|
    laplacian_sup         sup of |Laplacian G| (1 - r)^2
    gradient_sup          sup of |gradient G| (1 - r)
    laplacian_carleson    total mass of |Laplacian G| (1 - r) dxdy
    gradient_sq_carleson  total mass of |gradient G|^2 (1 - r) dxdy

    For the edge bump s^n (1 - s) they scale like 1/n, 1/n, 1/n, 1/n,
    1/n^2.  The field names name the spike{k}_* rows of verify and the
    certificate.csv columns.
    """

    value_sup: float
    laplacian_sup: float
    gradient_sup: float
    laplacian_carleson: float
    gradient_sq_carleson: float


@lru_cache(maxsize=None)
def lemma_bounds(n: int) -> Decay:
    """Decay quantities of the edge bump s^n (1 - s), from closed forms.

    The weighted Laplacian and gradient of the bump factor as

        |Laplacian G| (1-r)^2 = s^{n-1} |(n+1)^2 (1-s) - (2n+1)| (1-r)^2
        |gradient G| (1-r)    = s^{n-1/2} |(n+1) (1-s) - 1| (1-r),

    so no n^2 cancels against (n+1)^2 s, and bump_supremum takes each sup
    at its critical points.  Splitting the mass of |Laplacian G| (1-r) at
    r* = n/(n+1) gives

        laplacian_carleson = 2 pi [2 rho n (8n+3) / (2 (n+1)(2n+1)(2n+3))
                                   + 1 / (2 (2n+1)(2n+3))],  rho = r*^{2n},

    and gradient_sq_carleson is gradient_sq_mass, exact.  Reports, pure
    functions of n, are kept in one process-wide table: a test that patches
    anything this calls must call lemma_bounds.cache_clear() first.
    """
    if not 1 <= n <= MAX_POWER:
        raise ValueError(f"n must lie in 1..{MAX_POWER}, got {n}")
    b = 2 * n + 1
    rho = math.exp(2 * n * math.log1p(-1.0 / (n + 1)))
    mass = 2 * rho * float(Fraction(n * (8 * n + 3), 2 * (n + 1) * b * (2 * n + 3))) \
        + float(Fraction(1, 2 * b * (2 * n + 3)))
    return Decay(
        value_sup=bump_peak(n)[1],
        laplacian_sup=bump_supremum(n - 1, (n + 1) ** 2, b, 2),
        gradient_sup=bump_supremum(n - 0.5, n + 1, 1, 1),
        laplacian_carleson=TWO_PI * mass,
        gradient_sq_carleson=gradient_sq_mass(Terms((n, n + 1), (1.0, -1.0))),
    )


def bump_laplacian_carleson_bound(n: int) -> float:
    """Closed-form majorant for laplacian_carleson, exact rational arithmetic.

    From |n^2 s^{n-1} - (n+1)^2 s^n| <= r^{2n-2} ((n+1)^2 (1-r^2) + 2n+1)
    and 1 + r <= 2, the mass is at most
    2 pi [2 (n+1)^2 B(2n-1, 2) + (2n+1) B(2n-1, 1)] with
    B(m, p) = integral r^m (1-r)^p dr.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    bound = 2 * Fraction((n + 1) ** 2) * edge_integral_exact(2 * n - 1, 2) \
        + Fraction(2 * n + 1) * edge_integral_exact(2 * n - 1, 1)
    return TWO_PI * float(bound)


def bump_gradient_sq_carleson_bound(n: int) -> float:
    """Closed-form majorant for gradient_sq_carleson.

    (n - (n+1) s)^2 <= 2 (n+1)^2 (1-s)^2 + 2 and (1+r)^2 <= 4 give the
    mass at most 2 pi [8 (n+1)^2 B(4n-1, 3) + 2 B(4n-1, 1)].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    bound = 8 * Fraction((n + 1) ** 2) * edge_integral_exact(4 * n - 1, 3) \
        + 2 * edge_integral_exact(4 * n - 1, 1)
    return TWO_PI * float(bound)


# ---------------------------------------------------------------------- #
# spike gating


def spike_correction_thresholds(delta: float, k: int) -> Decay:
    """Budgets for the k-th spike's correction term.

    The mass of |gradient|^2 (1-r), which is quadratic in the term, gets
    delta / 4^k; the other four get delta / 2^k.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be at least 1")
    slice_k = delta / 2.0 ** k
    return Decay(slice_k, slice_k, slice_k, slice_k, delta / 4.0 ** k)


def spike_budget(alpha: float, spike: SpikeSpec) -> float:
    """Sum of |deficit coefficients| over the spike interior, < 2 half_width,
    added in index order."""
    c = [abs(x) for x in deficit_coefficients(alpha, spike.half_width)]
    return _sum_in_order(c) + _sum_in_order(c[:-1])


@dataclass(frozen=True)
class SpikeGate:
    """Triangle-inequality bounds for one candidate spike against its budgets."""

    spike: SpikeSpec
    budget: float
    values: Decay
    thresholds: Decay

    @property
    def passed(self) -> bool:
        return all(v <= t for v, t in zip(self.values, self.thresholds))

    @property
    def worst_margin(self) -> float:
        """Largest value/threshold ratio; <= 1 means the gate passes."""
        return max(v / t for v, t in zip(self.values, self.thresholds))


def spike_gate(alpha: float, delta: float, spike: SpikeSpec) -> SpikeGate:
    """Bound the spike's correction through its constituent bumps.

    The correction is a coefficient combination of bumps at the powers of
    the spike interior; budget * max over them bounds each linear metric, and
    budget^2 * max bounds the squared-gradient mass (Cauchy-Schwarz).
    """
    thresholds = spike_correction_thresholds(delta, spike.half_width)
    reports = [lemma_bounds(m) for m in spike.interior]
    peaks = Decay(*map(max, zip(*reports)))  # field by field
    c_total = spike_budget(alpha, spike)
    values = Decay(*(c_total * v for v in peaks[:4]), c_total ** 2 * peaks.gradient_sq_carleson)
    return SpikeGate(spike=spike, budget=c_total, values=values, thresholds=thresholds)


def _check_construction(alpha: float, delta: float, n_spikes: int) -> None:
    check_real(alpha=alpha, delta=delta)
    if isinstance(n_spikes, bool) or not isinstance(n_spikes, numbers.Integral):
        raise ValueError(f"n_spikes must be an integer, got {n_spikes!r}")
    if alpha <= 0 or not math.isfinite(alpha):
        raise ValueError("alpha must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 <= n_spikes <= MAX_SPIKES:
        raise ValueError(f"n_spikes must lie in 0..{MAX_SPIKES}")


def select_spike_positions(alpha: float, delta: float, n_spikes: int) -> list[int]:
    """Choose spike starts so every gate passes, earliest first.

    For each k the admissible region is searched by doubling from start 1,
    or from the floor imposed by the previous spike, up to MAX_START, then
    bisected down to a start whose predecessor fails the gate, so each
    position is locally minimal.  A gate failing at MAX_START, or a floor
    past it, raises InfeasibleConstructionError.
    """
    _check_construction(alpha, delta, n_spikes)

    starts: list[int] = []
    floor = 1
    for k in range(1, n_spikes + 1):
        def ok(n: int) -> bool:
            return spike_gate(alpha, delta, SpikeSpec(n, k)).passed

        lo, hi = None, floor
        while hi > MAX_START or not ok(hi):
            if hi >= MAX_START:
                raise InfeasibleConstructionError(
                    f"no admissible start for spike {k} at or below {MAX_START} "
                    f"(alpha={alpha}, delta={delta})"
                )
            lo, hi = hi, min(2 * hi, MAX_START)
        if lo is not None:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if ok(mid):
                    hi = mid
                else:
                    lo = mid
        starts.append(hi)
        floor = hi + 2 * k + 1  # next spike must start past this one's end
    return starts


# ---------------------------------------------------------------------- #
# configuration


def _check_sampling(r_max: float, tol: float) -> None:
    check_real(r_max=r_max, tol=tol)
    if not 0.0 < r_max < 1.0:
        raise ValueError("r_max must lie in (0, 1)")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class ConstructionConfig:
    """Complete description of one constructed weight sequence.

    spike_starts pairs with half widths 1..n_spikes positionally; r_max and
    tol are read only by the kernel-ratio check, |f - (1-s) K| <= tol on r <= r_max.
    """

    alpha: float
    delta: float
    n_spikes: int
    spike_starts: tuple[int, ...]
    r_max: float = 0.999
    tol: float = 1e-9

    def __post_init__(self):
        _check_construction(self.alpha, self.delta, self.n_spikes)
        _check_sampling(self.r_max, self.tol)
        # plain Python numbers, so that to_json writes what from_json reads
        for name, kind in (("alpha", float), ("delta", float), ("n_spikes", int),
                           ("r_max", float), ("tol", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        # the weights reject non-integer starts and check ordering and gaps
        object.__setattr__(self, "spike_starts", tuple(sp.start for sp in self.weights().spikes))
        if len(self.spike_starts) != self.n_spikes:
            raise ValueError("n_spikes must equal len(spike_starts)")
        # read at check time: the verifier's grid cannot reach a bump peak
        # far past the search cap
        if any(n > MAX_START for n in self.spike_starts):
            raise ValueError(f"spike starts must not exceed {MAX_START}, "
                             f"got {max(self.spike_starts)}")

    @classmethod
    def plan(cls, alpha: float, delta: float, n_spikes: int,
             r_max: float = 0.999, tol: float = 1e-9) -> "ConstructionConfig":
        _check_sampling(r_max, tol)  # before the search, which does not read them
        starts = select_spike_positions(alpha, delta, n_spikes)
        return cls(alpha=alpha, delta=delta, n_spikes=n_spikes,
                   spike_starts=tuple(starts), r_max=r_max, tol=tol)

    def weights(self) -> WeightSequence:
        return build_spiked_weights(self.alpha, self.spike_starts)

    @cached_property
    def kernel_ratio(self):
        """f = (1-s) K(s), a RadialSeries, checked once against the weights
        (within tol on r <= r_max) and shared by both verifiers."""
        from .spectral import kernel_ratio_series

        return kernel_ratio_series(self.weights(), r_max=self.r_max, tol=self.tol)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "delta": self.delta,
            "K": self.n_spikes,
            "spike_starts": list(self.spike_starts),
            "r_max": self.r_max,
            "tol": self.tol,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConstructionConfig":
        keys = {"alpha", "delta", "K", "spike_starts", "r_max", "tol"}
        missing = keys - set(data)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        extra = set(data) - keys
        if extra:
            raise ValueError(f"unexpected config keys: {sorted(extra)}")
        starts = data["spike_starts"]
        if not isinstance(starts, list):
            raise ValueError(f"config spike_starts must be a list, got {starts!r}")
        return cls(alpha=data["alpha"], delta=data["delta"], n_spikes=data["K"],
                   spike_starts=tuple(starts), r_max=data["r_max"], tol=data["tol"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ConstructionConfig":
        return cls.from_dict(json.loads(text))


def delta_for_epsilon(epsilon: float) -> float:
    """Correction budget sufficient for the flatness level epsilon."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    return min(epsilon / (1.0 + epsilon), epsilon / 4.0)
