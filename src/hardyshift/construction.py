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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .carleson import (
    RadialDensity,
    SeriesGapDensity,
    TWO_PI,
    carleson_norm,
    edge_integral_exact,
    radial_carleson_norm,
)
from .grids import boundary_refined_grid, merge_grids, peak_candidates, refined_supremum
from .series import RadialSeries, edge_bump
from .spectral import (
    deficit_coefficients,
    kernel_ratio_series,
    ratio_log_laplacian,
    spike_ratio_term,
)
from .weights import SpikeSpec, WeightSequence, build_spiked_weights

MAX_SPIKES = 8


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


@dataclass(frozen=True)
class LemmaReport:
    """Decay quantities of a single edge bump s^n (1 - s), s = |z|^2.

    sup_value       sup of the bump itself
    sup_laplacian   sup of |Laplacian| (1 - r)^2
    sup_grad_sq     sup of |gradient|^2 (1 - r)^2
    carl_laplacian  total mass of |Laplacian| (1 - r) dxdy
    carl_grad_sq    total mass of |gradient|^2 (1 - r) dxdy

    The five scale like 1/n, 1/n, 1/n^2, 1/n, 1/n^2.
    """

    n: int
    sup_value: float
    sup_laplacian: float
    sup_grad_sq: float
    carl_laplacian: float
    carl_grad_sq: float


def _decay_grid(powers: Iterable[int], count: int, u_max: float) -> np.ndarray:
    """Boundary-refined grid seeded, for each bump power m, with the peaks of
    the monomials of its Laplacian and squared gradient and with the bump's
    own peak r = sqrt(m/(m+1)) (and s = m/(m+1))."""
    stencil: set[int] = set()
    extras: list[float] = []
    for m in powers:
        stencil.update(q for q in (2 * m - 2, 2 * m - 1, 2 * m, 2 * m + 1, 2 * m + 2,
                                   4 * m - 2, 4 * m, 4 * m + 2) if q >= 1)
        extras += [math.sqrt(m / (m + 1.0)), m / (m + 1.0)]
    return merge_grids(boundary_refined_grid(count, u_max), peak_candidates(stencil), extras)


class DecayProfile:
    """Decay quantities of a radial term G(s), s = r^2, measured on a grid.

    `laplacian` and `gradient_sq` are the Carleson densities
    |Laplacian G| (1 - r) and |gradient G|^2 (1 - r).  The suprema are
    (argmax_r, value) pairs computed on first access, so a caller pays
    only for what it reads: value_sup of |G|, laplacian_sup of
    |Laplacian G| (1 - r)^2, gradient_sup of |gradient G| (1 - r) and
    gradient_sq_sup of |gradient G|^2 (1 - r)^2.  The last is the square
    of gradient_sup rounded on its own, so the two can differ in the last
    bit: the lemma table carries the square, the verifier rows the root.
    """

    def __init__(self, series: RadialSeries, grid: np.ndarray):
        self.series = series
        self.grid = grid
        self.laplacian = SeriesGapDensity(series.laplacian(), 1)
        self.gradient_sq = SeriesGapDensity(series.grad_sq(), 1, nonneg=True)

    @cached_property
    def value_sup(self) -> tuple[float, float]:
        return refined_supremum(lambda r: np.abs(self.series.eval(r * r)), self.grid)

    @cached_property
    def laplacian_sup(self) -> tuple[float, float]:
        lap = self.laplacian.series
        return refined_supremum(lambda r: np.abs(lap.eval(r * r)) * (1.0 - r) ** 2, self.grid)

    @cached_property
    def gradient_sup(self) -> tuple[float, float]:
        grad = self.gradient_sq.series
        return refined_supremum(
            lambda r: np.sqrt(np.maximum(grad.eval(r * r), 0.0)) * (1.0 - r), self.grid)

    @cached_property
    def gradient_sq_sup(self) -> tuple[float, float]:
        grad = self.gradient_sq.series
        return refined_supremum(lambda r: np.abs(grad.eval(r * r)) * (1.0 - r) ** 2, self.grid)


@lru_cache(maxsize=None)
def lemma_bounds(n: int) -> LemmaReport:
    """Decay report for the edge bump of power n.

    Suprema come from a boundary-refined grid seeded with the exact
    critical radii and polished locally; the two Carleson masses are
    integrated exactly through edge integrals.  Reports, pure functions
    of n, are kept in one process-wide table: a test that patches anything
    this calls must call lemma_bounds.cache_clear() first.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = DecayProfile(edge_bump(n), _decay_grid([n], 701, 45.0))
    return LemmaReport(
        n=n,
        sup_value=bump_peak(n)[1],
        sup_laplacian=p.laplacian_sup[1],
        sup_grad_sq=p.gradient_sq_sup[1],
        carl_laplacian=radial_carleson_norm(p.laplacian),
        carl_grad_sq=radial_carleson_norm(p.gradient_sq),
    )


def bump_laplacian_carleson_bound(n: int) -> float:
    """Closed-form majorant for carl_laplacian, exact rational arithmetic.

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
    """Closed-form majorant for carl_grad_sq.

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


def spike_correction_thresholds(delta: float, k: int) -> tuple[float, float, float, float]:
    """Budgets for the k-th spike's correction term.

    In order: sup of |Laplacian| (1-r)^2, sup of |gradient| (1-r), mass of
    |Laplacian| (1-r), mass of |gradient|^2 (1-r).  The first three get
    delta / 2^k; the quadratic one gets delta / 4^k.  The plain sup of the
    term shares the first budget.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be at least 1")
    slice_k = delta / 2.0 ** k
    return slice_k, slice_k, slice_k, delta / 4.0 ** k


def _spike_member_powers(spike: SpikeSpec) -> list[int]:
    h = spike.half_width
    return [spike.start + j for j in range(1, h + 1)] + \
        [spike.start + 2 * h - j for j in range(1, h)]


def spike_budget(alpha: float, spike: SpikeSpec) -> float:
    """Sum of |deficit coefficients| over the spike interior, < 2 half_width."""
    c = np.abs(deficit_coefficients(alpha, spike.half_width))
    return float(np.sum(c) + np.sum(c[:-1]))


_GATE_NAMES = ("value_sup", "laplacian_sup", "gradient_sup",
               "laplacian_carleson", "gradient_sq_carleson")


def _gate_thresholds(delta: float, k: int) -> tuple[float, ...]:
    """The k-th spike's budgets in _GATE_NAMES order; value_sup shares the
    laplacian_sup budget."""
    lap_sup, grad_sup, lap_carl, grad_sq_carl = spike_correction_thresholds(delta, k)
    return lap_sup, lap_sup, grad_sup, lap_carl, grad_sq_carl


@dataclass(frozen=True)
class SpikeGate:
    """Triangle-inequality bounds for one candidate spike against its budgets."""

    spike: SpikeSpec
    budget: float
    names: tuple[str, ...]
    values: tuple[float, ...]
    thresholds: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return all(v <= t for v, t in zip(self.values, self.thresholds))

    @property
    def worst_margin(self) -> float:
        """Largest value/threshold ratio; <= 1 means the gate passes."""
        return max(v / t for v, t in zip(self.values, self.thresholds))


def spike_gate(alpha: float, delta: float, spike: SpikeSpec) -> SpikeGate:
    """Bound the spike's correction through its constituent bumps.

    The correction is a coefficient combination of bumps at the member
    powers; budget * max over members bounds each linear metric, and
    budget^2 * max bounds the squared-gradient mass (Cauchy-Schwarz).
    The gradient sup uses the root of the per-bump squared sup.
    """
    thresholds = _gate_thresholds(delta, spike.half_width)
    reports = [lemma_bounds(m) for m in _spike_member_powers(spike)]
    c_total = spike_budget(alpha, spike)
    values = (
        c_total * max(rep.sup_value for rep in reports),
        c_total * max(rep.sup_laplacian for rep in reports),
        c_total * max(math.sqrt(rep.sup_grad_sq) for rep in reports),
        c_total * max(rep.carl_laplacian for rep in reports),
        c_total ** 2 * max(rep.carl_grad_sq for rep in reports),
    )
    return SpikeGate(spike=spike, budget=c_total, names=_GATE_NAMES,
                     values=values, thresholds=thresholds)


def select_spike_positions(
    alpha: float,
    delta: float,
    n_spikes: int,
    max_start: int = 2 ** 40,
) -> list[int]:
    """Choose spike starts so every gate passes, earliest first.

    For each k the admissible region is searched by doubling from start 1,
    or from the floor imposed by the previous spike, then bisected down to
    a start whose predecessor fails the gate, so each position is locally
    minimal.  Exceeding max_start raises InfeasibleConstructionError.
    """
    if alpha <= 0 or not math.isfinite(alpha):
        raise ValueError("alpha must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 <= n_spikes <= MAX_SPIKES:
        raise ValueError(f"n_spikes must lie in 0..{MAX_SPIKES}")

    starts: list[int] = []
    floor = 1
    for k in range(1, n_spikes + 1):
        def ok(n: int) -> bool:
            return spike_gate(alpha, delta, SpikeSpec(n, k)).passed

        lo, hi = None, floor
        while not ok(hi):
            lo, hi = hi, hi * 2
            if hi > max_start:
                raise InfeasibleConstructionError(
                    f"no admissible start for spike {k} below {max_start} "
                    f"(alpha={alpha}, delta={delta})"
                )
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
        if self.alpha <= 0 or not math.isfinite(self.alpha):
            raise ValueError("alpha must be positive and finite")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 <= self.n_spikes <= MAX_SPIKES:
            raise ValueError(f"n_spikes must lie in 0..{MAX_SPIKES}")
        object.__setattr__(self, "spike_starts", tuple(int(n) for n in self.spike_starts))
        if len(self.spike_starts) != self.n_spikes:
            raise ValueError("n_spikes must equal len(spike_starts)")
        _check_sampling(self.r_max, self.tol)
        self.weights()  # validates ordering and gaps

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
        return cls(
            alpha=float(data["alpha"]),
            delta=float(data["delta"]),
            n_spikes=int(data["K"]),
            spike_starts=tuple(int(n) for n in data["spike_starts"]),
            r_max=float(data["r_max"]),
            tol=float(data["tol"]),
        )

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
    scans: dict = field(default_factory=dict)

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
            "scans": {
                name: {
                    "value": scan.value,
                    "t_star": scan.t_star,
                    "at_unit_depth": scan.at_unit_depth,
                    "error": scan.error,
                }
                for name, scan in self.scans.items()
            },
        }


def _row(name: str, threshold: float, measured: float,
         argmax_r: float | None = None) -> ConditionResult:
    return ConditionResult(condition=name, threshold=threshold, measured=measured,
                           argmax_r=argmax_r, passed=bool(measured <= threshold))


def _condition_grid(spikes: Sequence[SpikeSpec]) -> np.ndarray:
    return _decay_grid([m for sp in spikes for m in _spike_member_powers(sp)], 801, 46.0)


def measure_spike_conditions(alpha: float, spike: SpikeSpec,
                             grid: np.ndarray | None = None) -> dict[str, float]:
    """Measured decay quantities of one spike's assembled correction term."""
    p = DecayProfile(spike_ratio_term(alpha, spike),
                     _condition_grid([spike]) if grid is None else grid)
    return dict(zip(_GATE_NAMES, (
        p.value_sup[1], p.laplacian_sup[1], p.gradient_sup[1],
        radial_carleson_norm(p.laplacian), radial_carleson_norm(p.gradient_sq))))


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
    scans = {"laplacian": carleson_norm(p.laplacian),
             "gradient_sq": carleson_norm(p.gradient_sq)}

    rows = [
        _row("ratio_deviation", delta, sup_dev, arg_dev),
        _row("laplacian_sup", delta, sup_lap, arg_lap),
        _row("gradient_sup", math.sqrt(delta), sup_grad, arg_grad),
        _row("laplacian_carleson", delta, scans["laplacian"].at_unit_depth),
        _row("gradient_carleson", delta, scans["gradient_sq"].at_unit_depth),
    ]

    for sp in w.spikes:
        k = sp.half_width
        measured = measure_spike_conditions(config.alpha, sp, grid)
        rows.extend(_row(f"spike{k}_{name}", t, measured[name])
                    for name, t in zip(_GATE_NAMES, _gate_thresholds(delta, k)))

    meta = {
        "config": config.to_dict(),
        "grid_points": int(len(grid)),
        "mode": "ratio_flatness",
    }
    return VerificationReport(conditions=tuple(rows), meta=meta, scans=scans)


def curvature_density(f: RadialSeries, spikes: Sequence[SpikeSpec]) -> RadialDensity:
    """Density |Delta log f| (1 - r) of the curvature Carleson mass.

    Quadrature splits at the sign roots of the numerator
    f Delta f - |grad f|^2 of Delta log f and at the spike peak radii.
    """
    dp = f.derivative
    numerator = f.multiply(f.laplacian()).add(dp.multiply(dp).shift(1).scale(-1.0))
    cuts = SeriesGapDensity(numerator, 0).sign_roots
    peak_hints = [math.sqrt(m / (m + 1.0)) for sp in spikes
                  for m in _spike_member_powers(sp)]
    return RadialDensity(
        lambda r: np.abs(ratio_log_laplacian(f, r)) * (1.0 - r),
        breakpoints=merge_grids(cuts, peak_hints) if (len(cuts) or peak_hints) else (),
        label="curvature_deviation",
    )


def verify_theorem_conditions(config: ConstructionConfig, epsilon: float) -> VerificationReport:
    """Certify flatness level epsilon for the constructed weights.

    Three rows: the kernel ratio stays inside [1/(1+eps), 1+eps]; the
    curvature deviation obeys |Delta log f| (1-r)^2 <= eps; and its
    Carleson mass 2 pi integral |Delta log f| (1-r) r dr stays below eps.
    The mass is the depth-one value of the curvature_density scan.
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

    scans = {"curvature": carleson_norm(curvature_density(f, w.spikes))}

    rows = [
        _row("ratio_band", 1.0 + epsilon, sup_band, arg_band),
        _row("curvature_sup", epsilon, sup_curv, arg_curv),
        _row("curvature_carleson", epsilon, scans["curvature"].at_unit_depth),
    ]
    meta = {
        "config": config.to_dict(),
        "epsilon": epsilon,
        "delta_sufficient": delta_sufficient,
        "grid_points": int(len(grid)),
        "mode": "curvature_match",
    }
    return VerificationReport(conditions=tuple(rows), meta=meta, scans=scans)
