"""Spike placement driving the curvature corrections below a budget.

The kernel ratio picks up one correction term per spike, and each
correction is a fixed combination of edge bumps s^m (1 - s) whose size in
every metric of interest decays as the bump power m grows.  So the
construction is a search problem: push the k-th spike far enough out that
its correction fits inside the budget delta / 2^k (delta / 4^k for the
quadratic Carleson quantity), and the budgets sum to at most delta.

Placement never measures the correction term directly.  It gates on
per-bump reports combined through the triangle inequality, which keeps
the search monotone in spirit and each candidate cheap.  Verification
then measures the assembled corrections and the full ratio, so the two
stages check each other.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .carleson import (
    RadialDensity,
    SeriesGapDensity,
    TWO_PI,
    edge_integral_exact,
    gradient_sq_mass,
    laplacian_masses,
    radial_carleson_norm,
)
from .grids import (boundary_refined_grid, bump_supremum, merge_grids, peak_candidates,
                    refined_supremum, sign_roots)
from .series import RadialSeries, edge_bump
from .spectral import (
    deficit_coefficients,
    kernel_ratio_series,
    ratio_log_laplacian,
    spike_ratio_term,
)
from .weights import SpikeSpec, WeightSequence, build_spiked_weights, check_real

MAX_SPIKES = 8
MAX_START = 2 ** 40  # select_spike_positions gives up past this start
# the largest bump power any spike gate reads; lemma_bounds refuses larger ones
MAX_POWER = MAX_START + 2 * MAX_SPIKES


class InfeasibleConstructionError(RuntimeError):
    """No admissible spike position found below the search cap."""


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


def _decay_grid(powers: Iterable[int], count: int, u_max: float) -> np.ndarray:
    """Boundary-refined grid seeded, for each bump power m, with the peaks of
    the monomials r^{2m-2} ... r^{2m+2} of the bump and its derivatives and
    with the bump's own peak r = sqrt(m/(m+1)) (and s = m/(m+1))."""
    stencil: set[int] = set()
    extras: list[float] = []
    for m in powers:
        stencil.update(q for q in range(2 * m - 2, 2 * m + 3) if q >= 1)
        extras += [math.sqrt(m / (m + 1.0)), m / (m + 1.0)]
    return merge_grids(boundary_refined_grid(count, u_max), peak_candidates(stencil), extras)


class DecayProfile:
    """Decay suprema of a radial term G(s), s = r^2, measured on a grid.

    `laplacian` is the series of Laplacian G.  The suprema are
    (argmax_r, value) pairs: value_sup of |G|, laplacian_sup of
    |Laplacian G| (1 - r)^2 and gradient_sup of |gradient G| (1 - r) =
    r |G'(r^2)| (1 - r), read from G' and not from the expanded s G'^2,
    whose coefficients cancel.  The suprema are built on first access.
    """

    def __init__(self, series: RadialSeries, grid: np.ndarray):
        self.series = series
        self.grid = grid
        self.laplacian = series.laplacian()

    @cached_property
    def value_sup(self) -> tuple[float, float]:
        return refined_supremum(lambda r: np.abs(self.series.eval(r * r)), self.grid)

    @cached_property
    def laplacian_sup(self) -> tuple[float, float]:
        lap = self.laplacian
        return refined_supremum(lambda r: np.abs(lap.eval(r * r)) * (1.0 - r) ** 2, self.grid)

    @cached_property
    def gradient_sup(self) -> tuple[float, float]:
        d = self.series.derivative
        return refined_supremum(lambda r: r * np.abs(d.eval(r * r)) * (1.0 - r), self.grid)


@lru_cache(maxsize=None)
def lemma_bounds(n: int) -> Decay:
    """Decay quantities of the edge bump s^n (1 - s), from closed forms.

    The weighted Laplacian and gradient of the bump factor as

        |Laplacian G| (1-r)^2 = s^{n-1} |(n+1)^2 (1-s) - (2n+1)| (1-r)^2
        |gradient G| (1-r)    = s^{n-1/2} |(n+1) (1-s) - 1| (1-r),

    so no n^2 cancels against (n+1)^2 s, and grids.bump_supremum takes each
    sup at its critical points.  Splitting the mass of |Laplacian G| (1-r) at
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
        gradient_sq_carleson=gradient_sq_mass(edge_bump(n)),
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
    """Sum of |deficit coefficients| over the spike interior, < 2 half_width."""
    c = np.abs(deficit_coefficients(alpha, spike.half_width))
    return float(np.sum(c) + np.sum(c[:-1]))


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

    spike_starts pairs with half widths 1..n_spikes positionally; r_max
    and tol drive the kernel-ratio cross check and default sampling.
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
    def kernel_ratio(self) -> RadialSeries:
        """f = (1-s) K(s), cross-checked once and shared by both verifiers."""
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


# ---------------------------------------------------------------------- #
# verification


@dataclass(frozen=True)
class ConditionResult:
    condition: str
    threshold: float
    measured: float
    argmax_r: float | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "threshold": self.threshold,
            "measured": self.measured,
            "argmax_r": self.argmax_r,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    conditions: tuple[ConditionResult, ...]
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failures(self) -> list[ConditionResult]:
        return [c for c in self.conditions if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "meta": self.meta,
            "conditions": [c.to_dict() for c in self.conditions],
        }


def _row(name: str, threshold: float, measured: float,
         argmax_r: float | None = None) -> ConditionResult:
    return ConditionResult(condition=name, threshold=threshold, measured=measured,
                           argmax_r=argmax_r, passed=bool(measured <= threshold))


def _condition_grid(spikes: Sequence[SpikeSpec]) -> np.ndarray:
    return _decay_grid([m for sp in spikes for m in sp.interior], 801, 46.0)


def measure_spike_conditions(alpha: float, spikes: Sequence[SpikeSpec],
                             grid: np.ndarray) -> list[Decay]:
    """Measured decay quantities of each spike's assembled correction term.

    The suprema are read on a grid from _condition_grid; the Laplacian
    masses come from carleson.laplacian_masses, one batch for all spikes,
    and the gradient masses from gradient_sq_mass, both exact in the term's
    float coefficients.
    """
    terms = [spike_ratio_term(alpha, sp) for sp in spikes]
    out = []
    for g, mass in zip(terms, laplacian_masses(terms)):
        p = DecayProfile(g, grid)
        out.append(Decay(p.value_sup[1], p.laplacian_sup[1], p.gradient_sup[1],
                         mass, gradient_sq_mass(g)))
    return out


def verify_f_conditions(config: ConstructionConfig) -> VerificationReport:
    """Measure the kernel ratio against its flatness budget delta.

    Rows cover the assembled ratio f = 1 + sum of corrections: deviation
    from 1, weighted Laplacian and gradient suprema, and the two Carleson
    masses.  Each correction term is then checked against its own slice
    of the budget, the thresholds spike_gate uses.  Carleson rows carry
    no argmax.
    """
    w = config.weights()
    delta = config.delta
    grid = _condition_grid(w.spikes)
    f = config.kernel_ratio
    p = DecayProfile(f.add(RadialSeries.from_terms([(0, -1.0)])), grid)
    (arg_dev, sup_dev), (arg_lap, sup_lap), (arg_grad, sup_grad) = \
        p.value_sup, p.laplacian_sup, p.gradient_sup
    rows = [
        _row("ratio_deviation", delta, sup_dev, arg_dev),
        _row("laplacian_sup", delta, sup_lap, arg_lap),
        _row("gradient_sup", math.sqrt(delta), sup_grad, arg_grad),
        _row("laplacian_carleson", delta,
             radial_carleson_norm(SeriesGapDensity(p.laplacian, 1))),
        _row("gradient_carleson", delta, gradient_sq_mass(p.series)),
    ]

    for sp, measured in zip(w.spikes, measure_spike_conditions(config.alpha, w.spikes, grid)):
        k = sp.half_width
        rows.extend(_row(f"spike{k}_{name}", t, m) for name, t, m in
                    zip(Decay._fields, spike_correction_thresholds(delta, k), measured))

    meta = {
        "config": config.to_dict(),
        "grid_points": int(len(grid)),
        "mode": "ratio_flatness",
    }
    return VerificationReport(conditions=tuple(rows), meta=meta)


def curvature_density(f: RadialSeries, spikes: Sequence[SpikeSpec]) -> RadialDensity:
    """Density |Delta log f| (1 - r) of the curvature Carleson mass.

    Quadrature splits at the spike peak radii and at the sign changes of
    Delta log f, evaluated in factored form (ratio_log_laplacian) on the
    scan grid of f's own exponents.
    """
    cuts = sign_roots(lambda s: ratio_log_laplacian(f, np.sqrt(s)), f.exponents)
    peak_hints = [math.sqrt(m / (m + 1.0)) for sp in spikes for m in sp.interior]
    return RadialDensity(
        lambda r: np.abs(ratio_log_laplacian(f, r)) * (1.0 - r),
        breakpoints=merge_grids(cuts, peak_hints),
        label="curvature_deviation",
    )


def verify_theorem_conditions(config: ConstructionConfig, epsilon: float) -> VerificationReport:
    """Certify flatness level epsilon for the constructed weights.

    Three rows: the kernel ratio stays inside [1/(1+eps), 1+eps]; the
    curvature deviation obeys |Delta log f| (1-r)^2 <= eps; and its
    Carleson mass 2 pi integral |Delta log f| (1-r) r dr stays below eps.
    meta records 2 pi times the quadrature's error estimate of that mass.
    """
    delta_sufficient = delta_for_epsilon(epsilon)  # rejects a bad epsilon first
    w = config.weights()
    grid = _condition_grid(w.spikes)
    f = config.kernel_ratio

    def band(r):
        vals = f.eval(r * r)
        if np.any(vals <= 0.0):
            raise ArithmeticError("kernel ratio must stay positive")
        return np.maximum(vals, 1.0 / vals)

    arg_band, sup_band = refined_supremum(band, grid)

    arg_curv, sup_curv = refined_supremum(
        lambda r: np.abs(ratio_log_laplacian(f, r)) * (1.0 - r) ** 2, grid)

    errors: list[float] = []
    curv_mass = TWO_PI * curvature_density(f, w.spikes).window_integral(0.0, 1.0, errors)

    rows = [
        _row("ratio_band", 1.0 + epsilon, sup_band, arg_band),
        _row("curvature_sup", epsilon, sup_curv, arg_curv),
        _row("curvature_carleson", epsilon, curv_mass),
    ]
    meta = {
        "config": config.to_dict(),
        "epsilon": epsilon,
        "delta_sufficient": delta_sufficient,
        "grid_points": int(len(grid)),
        "mode": "curvature_match",
        "curvature_carleson_error": TWO_PI * errors[0],
    }
    return VerificationReport(conditions=tuple(rows), meta=meta)
