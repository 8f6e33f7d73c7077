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
corrections and the full ratio, so the two stages check each other: the
flatness rows read every supremum and mass exactly from the boundary
blocks of hardyshift.carleson, and the curvature rows sample Delta log f
on a boundary-refined grid and integrate it by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .carleson import RadialDensity, term_decay
from .grids import boundary_refined_grid, merge_grids, refined_supremum, sign_roots
from .search import (  # noqa: F401  (the spike search, re-exported under its old module)
    MAX_POWER,
    MAX_START,
    TWO_PI,
    ConstructionConfig,
    Decay,
    InfeasibleConstructionError,
    SpikeGate,
    Terms,
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


# the rows of f - 1, in the field order of Decay and term_decay
_RATIO_ROWS = ("ratio_deviation", "laplacian_sup", "gradient_sup", "laplacian_carleson",
               "gradient_carleson")


def _peak_hints(spikes: Sequence[SpikeSpec]) -> list[float]:
    """Peak radii sqrt(m/(m+1)) of the bumps s^m (1 - s) over the spike interiors."""
    return [math.sqrt(m / (m + 1.0)) for sp in spikes for m in sp.interior]


def measure_spike_conditions(alpha: float, spikes: Sequence[SpikeSpec]) -> list[Decay]:
    """Measured decay quantities of each spike's assembled correction term,
    from term_decay: exact in the term's float coefficients."""
    return [Decay(*(v for _, v in term_decay(spike_ratio_term(alpha, sp)))) for sp in spikes]


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
    deviation = Terms(config.kernel_ratio.exponents[1:], config.kernel_ratio.coeffs[1:])
    rows = [_row(name, threshold, value, argmax_r) for name, threshold, (argmax_r, value) in
            zip(_RATIO_ROWS, (delta, delta, math.sqrt(delta), delta, delta),
                term_decay(deviation))]

    for sp, measured in zip(w.spikes, measure_spike_conditions(config.alpha, w.spikes)):
        k = sp.half_width
        rows.extend(_row(f"spike{k}_{name}", t, m) for name, t, m in
                    zip(Decay._fields, spike_correction_thresholds(delta, k), measured))

    meta = {"config": config.to_dict(), "mode": "ratio_flatness"}
    return VerificationReport(conditions=tuple(rows), meta=meta)


def curvature_density(f: RadialSeries, spikes: Sequence[SpikeSpec]) -> RadialDensity:
    """Density |Delta log f| (1 - r) of the curvature Carleson mass.

    Quadrature splits at the spike peak radii and at the sign changes of
    Delta log f, evaluated in factored form (ratio_log_laplacian) on the
    scan grid of f's own exponents.
    """
    cuts = sign_roots(lambda s: ratio_log_laplacian(f, np.sqrt(s)), f.exponents)
    return RadialDensity(
        lambda r: np.abs(ratio_log_laplacian(f, r)) * (1.0 - r),
        breakpoints=merge_grids(cuts, _peak_hints(spikes)),
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
    grid = merge_grids(boundary_refined_grid(801, 46.0), _peak_hints(w.spikes))
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
