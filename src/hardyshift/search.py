"""The spike search on the standard library alone.

Placing spikes is scalar arithmetic on closed forms: the decay quantities
of one edge bump s^n (1 - s) are exact rationals or the values at two
critical points found by Brent's method, the deficits of a spike are
expm1 values, and the gate compares their triangle-inequality combination
against the budgets delta / 2^k (delta / 4^k for the squared gradient
mass).  The search probes each candidate start at its head power alone,
one lemma report per probe, steps to the start the report's decay orders
predict, and confirms the start it lands on with the gate over the whole
spike interior; MAX_START is its one cap.  The probe, the confirm and
spike_gate form their values in one helper, over the powers they are
handed, and share one pass test.  None of it
needs an array, so this module imports no numpy, and `construct` and
`lemma` run without loading it.  The spike terms the verifier measures
are built here from the same deficits, as plain Terms, and so is the
kernel ratio f = (1-s) K with its check against the weights
(kernel_ratio_terms).

The other modules import these names back: construction's lemma_bounds
and spike terms, carleson's brentq and gradient_sq_mass, and, in the
numpy layer (series, grids, spectral), grids' brentq and spectral's
deficit_coefficients, spike terms and kernel ratio are the objects
defined here.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

from .weights import SpikeSpec, WeightSequence, build_spiked_weights, check_real

MAX_START = 2 ** 40  # the construction's one cap: select_spike_positions gives up past it
# the largest power a spike gate reads: spike k starts at or past k^2, so a
# start at or below MAX_START has half width at most isqrt(MAX_START)
MAX_POWER = MAX_START + 2 * math.isqrt(MAX_START) - 1

TWO_PI = 2.0 * math.pi
_BRENT_RTOL = 4.0 * sys.float_info.epsilon  # the smallest rtol scipy's brentq accepts
_BRENT_MAXITER = 100  # scipy's default


class NumericalInfeasibility(RuntimeError):
    """The base of the package's numerical errors, exit 4 of the command line:
    a cap, a tolerance or a check the numerics could not meet on this input."""


class InfeasibleConstructionError(NumericalInfeasibility):
    """No admissible spike position found below the search cap."""


class TruncationError(NumericalInfeasibility):
    """A requested tolerance needs more series terms than the configured cap."""

    def __init__(self, message: str, required_order: int):
        super().__init__(message)
        self.required_order = required_order


class DecompositionMismatchError(NumericalInfeasibility):
    """The sparse kernel ratio f misses (1-s) K by more than tol on r <= r_max.

    The bound sum_n |f_n - (1/w_n - 1/w_{n-1})| r_max^{2n} exceeds tol when the
    slope parameter of the correction coefficients is not that of the weights.
    """


class RootNotConvergedError(NumericalInfeasibility):
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
    zeros kept (the spike terms, the masses below); RadialSeries(*terms) evaluates it."""

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
    The pieces s_E / (2E (2E+1)) are added in a balanced tree of unreduced
    integer pairs, and int / int rounds the one quotient as float(Fraction) does.
    """
    coeffs, scale = _integer_coefficients(series)
    terms = [(e, e * n) for e, n in coeffs if e]
    sums: dict[int, int] = {}
    for ei, ai in terms:
        for ej, aj in terms:
            sums[ei + ej] = sums.get(ei + ej, 0) + ai * aj
    pieces = [(s, 2 * e * (2 * e + 1)) for e, s in sums.items()] or [(0, 1)]
    while len(pieces) > 1:  # a/b + c/d = (ad + cb) / (bd), no gcd; an odd last piece waits
        pairs = zip(pieces[::2], pieces[1::2])
        pieces = [(a * d + c * b, b * d) for (a, b), (c, d) in pairs] + pieces[len(pieces) // 2 * 2:]
    num, den = pieces[0]
    return TWO_PI * (num / (den * scale * scale))


def deficit_coefficients(alpha: float, half_width: int) -> list[float]:
    """Coefficients c_j = (1+alpha)^{-2j} - 1 for j = 1..half_width, all negative."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    step = math.log1p(alpha)
    return [math.expm1(-2.0 * j * step) for j in range(1, half_width + 1)]


def spike_kernel_term(alpha: float, spike: SpikeSpec) -> Terms:
    """Correction G(s) = sum (1/w_n - 1) s^n the spike adds to the kernel
    diagonal, over its interior start+1 .. end-1: index n carries the deficit
    c_j of its step j, the float the spike gate reads."""
    c = deficit_coefficients(alpha, spike.half_width)
    return Terms(list(spike.interior), [c[spike.step(n) - 1] for n in spike.interior])


def spike_ratio_term(alpha: float, spike: SpikeSpec) -> Terms:
    """Term H(s) = (1-s) G(s) the spike adds to the kernel ratio, a combination
    of bumps s^m (1-s), over its span start+1 .. end: g_first, g_n - g_{n-1},
    -g_last.  A difference that rounds to 0 keeps its place: one run, one block."""
    g = spike_kernel_term(alpha, spike).coeffs
    return Terms(list(range(spike.start + 1, spike.end + 1)),
                 [g[0], *(b - a for a, b in zip(g, g[1:])), -g[-1]])


def kernel_ratio_terms(weights: WeightSequence, r_max: float, tol: float) -> Terms:
    """Exact polynomial f(s) = (1-s) K(s) = 1 + sum of spike ratio terms.

    f is checked coefficient by coefficient against (1-s) K, whose
    coefficients are e_0 = 1 and e_n = 1/w_n - 1/w_{n-1}, from the weights
    the operator uses; they vanish off each spike's span start+1 .. end, its H's.
    B = sum_n |f_n - e_n| r_max^{2n} bounds |f - (1-s) K| at every
    r <= r_max, and B > tol raises DecompositionMismatchError, the symptom
    of a slope mismatch between the correction coefficients and the weights.
    """
    if not 0.0 <= r_max < 1.0:
        raise ValueError("r_max must lie in [0, 1)")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    exponents, coeffs, bound = [0], [1.0], 0.0
    for sp in weights.spikes:
        h = spike_ratio_term(weights.alpha, sp)
        inverse = [1.0 / w for w in weights.weight_range(sp.start, sp.end + 1)]
        for n, fn, a, b in zip(h.exponents, h.coeffs, inverse, inverse[1:]):
            bound += abs(fn - (b - a)) * r_max ** (2.0 * n)
        exponents += h.exponents
        coeffs += h.coeffs
    if bound > tol:
        raise DecompositionMismatchError(
            f"kernel ratio misses (1-s) K by up to {bound} on r <= {r_max} (tol {tol}); "
            "slope parameter and weights are inconsistent")
    return Terms(exponents, coeffs)


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

    and gradient_sq_carleson is gradient_sq_mass, exact.  n runs over
    1 .. MAX_POWER, every power a spike gate can read.
    Reports, pure functions of n, are kept in one process-wide table: a test
    that patches anything this calls must call lemma_bounds.cache_clear() first.
    """
    if not 1 <= n <= MAX_POWER:
        raise ValueError(f"n must lie in 1..{MAX_POWER}, got {n}")
    b = 2 * n + 1
    rho = math.exp(2 * n * math.log1p(-1.0 / (n + 1)))
    mass = 2 * rho * (n * (8 * n + 3) / (2 * (n + 1) * b * (2 * n + 3))) \
        + 1 / (2 * b * (2 * n + 3))
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


class SpikeGate(NamedTuple):
    """Triangle-inequality bounds for one candidate spike against its budgets."""

    spike: SpikeSpec
    budget: float
    values: Decay
    thresholds: Decay

    @property
    def passed(self) -> bool:
        return _passes(self.values, self.thresholds)


def _gate_values(budget: float, powers: Sequence[int]) -> Decay:
    """The gate's values over the bumps at these powers: budget * the field-wise
    max of their lemma reports, budget^2 * the max squared-gradient mass."""
    peaks = Decay(*map(max, zip(*map(lemma_bounds, powers))))
    return Decay(*(budget * v for v in peaks[:4]), budget ** 2 * peaks.gradient_sq_carleson)


def _passes(values: Decay, thresholds: Decay) -> bool:
    """The gate's test: every value at or below its threshold."""
    return all(v <= t for v, t in zip(values, thresholds))


def spike_gate(alpha: float, delta: float, spike: SpikeSpec) -> SpikeGate:
    """Bound the spike's correction through its constituent bumps.

    The correction is a coefficient combination of bumps at the powers of
    the spike interior; budget * max over them bounds each linear metric, and
    budget^2 * max bounds the squared-gradient mass (Cauchy-Schwarz).
    """
    thresholds = spike_correction_thresholds(delta, spike.half_width)
    budget = spike_budget(alpha, spike)
    return SpikeGate(spike, budget, _gate_values(budget, spike.interior), thresholds)


# the order in the power at which each lemma column falls, as Decay states
_DECAY_ORDERS = Decay(1, 1, 1, 1, 2)


def probe_and_predict(budget: float, thresholds: Decay, start: int) -> tuple[bool, float]:
    """The gate's test at the head power start + 1 alone, for a spike with
    this budget and these thresholds, and the head power the decay orders
    predict to pass.

    The head is one of the powers spike_gate maximises over, so a spike
    that fails this fails the gate; where the lemma columns decrease in the
    power the head holds every maximum, and the two decide alike.
    Column c's ratio rho_c = value / threshold falls like power^-q_c, so the
    smallest head power m with rho_c(m) <= 1 is predicted at
    (start + 1) rho_c^(1/q_c); the prediction is the largest over the
    columns, inf where a threshold underflows to 0.  The test is the gate's
    own value <= threshold per column; the prediction only steers the search.
    """
    head = start + 1
    values = _gate_values(budget, (head,))
    predicted = max(head * (v / t) ** (1.0 / q) if t else math.inf
                    for v, t, q in zip(values, thresholds, _DECAY_ORDERS))
    return _passes(values, thresholds), predicted


def _check_construction(alpha: float, delta: float, n_spikes: int) -> None:
    check_real(alpha=alpha, delta=delta)
    if isinstance(n_spikes, bool) or not isinstance(n_spikes, numbers.Integral):
        raise ValueError(f"n_spikes must be an integer, got {n_spikes!r}")
    if alpha <= 0 or not math.isfinite(alpha):
        raise ValueError("alpha must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n_spikes < 0:
        raise ValueError(f"n_spikes must be nonnegative, got {n_spikes}")


def select_spike_positions(alpha: float, delta: float, n_spikes: int) -> list[int]:
    """Choose spike starts so every gate passes, earliest first.

    For each k the search probes with probe_and_predict, which reads one
    lemma report where spike_gate reads 2k - 1, at spike k's budget and
    thresholds, computed once.  It keeps a bracket: lo, the largest failing
    probe (or the floor minus one), and hi, the smallest passing one.  The
    first probe is the floor: start 1, or the first start past the previous
    spike.  Each next probe is a safeguarded Newton step: the start the last
    probe's decay orders predict, clipped into (lo, hi), or up to MAX_START
    while no probe has passed.  After a step that fails to halve hi - lo,
    or to double lo while no probe has passed, one fallback probe follows:
    the bisection of (lo, hi), or 2 lo capped at MAX_START.  The search
    lands on hi = lo + 1, a start whose predecessor fails the probe.  The
    gate over the whole interior, at the same budget and thresholds, then
    confirms that start; should it fail (a lemma column rising inside the
    spike), the search steps up one start at a time until it passes.  So
    each returned start passes spike_gate and its predecessor fails it (or
    lies below the floor).  A probe or gate failing at MAX_START, or a floor
    past it, raises InfeasibleConstructionError naming the spike; no start
    past MAX_START is ever tested, and nothing else bounds n_spikes.
    """
    _check_construction(alpha, delta, n_spikes)

    starts: list[int] = []
    floor = 1
    for k in range(1, n_spikes + 1):
        def stop_at_cap(n: int) -> None:
            if n >= MAX_START:
                raise InfeasibleConstructionError(
                    f"no admissible start for spike {k} at or below {MAX_START} "
                    f"(alpha={alpha}, delta={delta})"
                )

        if floor > MAX_START:
            stop_at_cap(floor)
        budget = spike_budget(alpha, SpikeSpec(floor, k))  # the same at every start
        thresholds = spike_correction_thresholds(delta, k)
        # lo fails the probe or lies below the floor; hi, None until a probe
        # passes, passes it; stepped: the probe at n is a predicted step
        lo, hi, n, stepped = floor - 1, None, floor, False
        while hi is None or hi - lo > 1:
            passed, predicted = probe_and_predict(budget, thresholds, n)
            was_lo, was_hi = lo, hi
            if passed:
                hi = n
            else:
                stop_at_cap(n)
                lo = n
            if hi is None:  # step within (lo, MAX_START], or double lo
                top, fallback, shrank = MAX_START, min(2 * lo, MAX_START), lo >= 2 * was_lo
            else:  # step within (lo, hi), or bisect it
                top, fallback = hi - 1, (lo + hi) // 2
                shrank = was_hi is None or 2 * (hi - lo) <= was_hi - was_lo
            if stepped and not shrank:
                n, stepped = max(fallback, lo + 1), False
            else:
                n, stepped = min(max(math.ceil(min(predicted, top + 1.0)) - 1, lo + 1), top), True
        while not _passes(_gate_values(budget, SpikeSpec(hi, k).interior), thresholds):
            stop_at_cap(hi)
            hi += 1
        starts.append(hi)
        floor = SpikeSpec(hi, k).end + 1  # next spike must start past this one's end
    return starts


# ---------------------------------------------------------------------- #
# configuration


def _check_sampling(r_max: float, tol: float) -> None:
    check_real(r_max=r_max, tol=tol)
    if not 0.0 < r_max < 1.0:
        raise ValueError("r_max must lie in (0, 1)")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")


class _ConfigFields(NamedTuple):
    alpha: float
    delta: float
    n_spikes: int
    spike_starts: tuple[int, ...]
    r_max: float
    tol: float


class ConstructionConfig(_ConfigFields):
    """Complete description of one constructed weight sequence.

    spike_starts pairs with half widths 1..n_spikes positionally; r_max and
    tol are read only by the kernel-ratio check, |f - (1-s) K| <= tol on r <= r_max.
    A tuple of the six fields: equal and hashed by value, its fields
    read-only, and checked when made.
    """

    def __new__(cls, alpha: float, delta: float, n_spikes: int, spike_starts: Sequence[int],
                r_max: float = 0.999, tol: float = 1e-9):
        _check_construction(alpha, delta, n_spikes)
        _check_sampling(r_max, tol)
        # plain Python numbers, so that to_json writes what from_json reads;
        # the weights reject non-integer starts and check ordering and gaps
        alpha = float(alpha)
        starts = tuple(sp.start for sp in build_spiked_weights(alpha, spike_starts).spikes)
        if len(starts) != n_spikes:
            raise ValueError("n_spikes must equal len(spike_starts)")
        # MAX_POWER, the domain of lemma_bounds, is derived from MAX_START:
        # a start past the cap could carry bump powers past that domain
        if any(n > MAX_START for n in starts):
            raise ValueError(f"spike starts must not exceed {MAX_START}, got {max(starts)}")
        return super().__new__(cls, alpha, float(delta), int(n_spikes), starts,
                               float(r_max), float(tol))

    @classmethod
    def _make(cls, iterable):  # _replace makes its copy here: checked too
        return cls(*iterable)

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
    def ratio_decay(self) -> tuple:
        """term_decay of f - 1, f = (1-s) K(s) checked against the weights (within
        tol on r <= r_max): (argmax_r, value) in Decay order, for both verifiers."""
        from .carleson import term_decay

        f = kernel_ratio_terms(self.weights(), self.r_max, self.tol)
        return tuple(term_decay(Terms(f.exponents[1:], f.coeffs[1:])))

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
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
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
        try:
            data = json.loads(text)
        except RecursionError as exc:  # json's decoder on arrays or objects nested too deep
            raise ValueError(f"config JSON nests too deeply: {exc}") from None
        return cls.from_dict(data)


def delta_for_epsilon(epsilon: float) -> float:
    """Correction budget min(eps/(1+eps), eps/4) for the flatness level epsilon.

    Not proven sufficient: with every ratio row at its threshold, verify's
    corollary rows read delta/(1-delta) + delta/(1-delta)^2, at most eps only
    up to eps of about 1.44 (3 at eps = 2); each run is checked by them.
    The budget lies in (0, 1) for every such eps: from eps = 2^53 on,
    eps/(1+eps) rounds to 1, and the largest float below 1 is returned."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    return min(epsilon / (1.0 + epsilon), epsilon / 4.0, math.nextafter(1.0, 0.0))
