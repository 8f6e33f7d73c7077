"""Spike placement driving the curvature corrections below a budget.

The kernel ratio picks up one correction term per spike, and each
correction is a fixed combination of edge bumps s^m (1 - s) whose size in
every metric of interest decays as the bump power m grows.  So the
construction is a search problem: push the k-th spike far enough out that
its correction fits inside the budget delta / 2^k (delta / 4^k for the
quadratic Carleson quantity), and the budgets sum to at most delta.

Placement never measures the correction term directly.  It gates on
per-bump reports combined through the triangle inequality, which keeps
the search monotone in spirit and each candidate cheap; that part runs on
the standard library and lives in hardyshift.search, whose names this
module re-exports.  Verification, here, then measures the assembled
corrections and the full ratio on numpy grids, so the two stages check
each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .carleson import RadialDensity, gradient_sq_mass, laplacian_masses
from .grids import (boundary_refined_grid, merge_grids, peak_candidates, refined_supremum,
                    sign_roots)
from .search import (  # noqa: F401  (the spike search, re-exported under its old module)
    MAX_POWER,
    MAX_SPIKES,
    MAX_START,
    TWO_PI,
    ConstructionConfig,
    Decay,
    InfeasibleConstructionError,
    SpikeGate,
    bump_gradient_sq_carleson_bound,
    bump_laplacian_carleson_bound,
    bump_peak,
    delta_for_epsilon,
    lemma_bounds,
    select_spike_positions,
    spike_budget,
    spike_correction_thresholds,
    spike_gate,
)
from .series import RadialSeries
from .spectral import ratio_log_laplacian, spike_ratio_term
from .weights import SpikeSpec


# ---------------------------------------------------------------------- #
# measured decay


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
        _row("laplacian_carleson", delta, laplacian_masses([p.series])[0]),
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
