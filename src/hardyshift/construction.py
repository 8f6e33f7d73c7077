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
the standard library and lives in hardyshift.search, some of whose names
this module re-exports.  Verification, here, then measures the assembled
corrections and the full ratio, so the two stages check each other: the
flatness rows read every supremum and mass exactly from the boundary
blocks of hardyshift.carleson, and the curvature rows follow from the
five rows of f - 1 as a corollary, with no sampling in r."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence

from .carleson import term_decay
from .search import (  # noqa: F401  (the spike search, re-exported under its old module)
    ConstructionConfig,
    Decay,
    bump_gradient_sq_carleson_bound,
    bump_laplacian_carleson_bound,
    delta_for_epsilon,
    lemma_bounds,
    select_spike_positions,
    spike_budget,
    spike_correction_thresholds,
    spike_gate,
    spike_ratio_term,
)
from .weights import SpikeSpec


# ---------------------------------------------------------------------- #
# verification


class ConditionResult(NamedTuple):
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


class VerificationReport(NamedTuple):
    conditions: tuple[ConditionResult, ...]
    meta: dict

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
    rows = [_row(name, threshold, value, argmax_r) for name, threshold, (argmax_r, value) in
            zip(_RATIO_ROWS, (delta, delta, math.sqrt(delta), delta, delta), config.ratio_decay)]

    for sp, measured in zip(w.spikes, measure_spike_conditions(config.alpha, w.spikes)):
        k = sp.half_width
        rows.extend(_row(f"spike{k}_{name}", t, m) for name, t, m in
                    zip(Decay._fields, spike_correction_thresholds(delta, k), measured))

    meta = {"config": config.to_dict(), "mode": "ratio_flatness"}
    return VerificationReport(conditions=tuple(rows), meta=meta)


def verify_theorem_conditions(config: ConstructionConfig, epsilon: float) -> VerificationReport:
    """Certify flatness level epsilon for the constructed weights.

    Three rows: the kernel ratio stays inside [1/(1+eps), 1+eps]; the
    curvature deviation obeys |Delta log f| (1-r)^2 <= eps; and its
    Carleson mass 2 pi integral |Delta log f| (1-r) r dr stays below eps.
    Each is bounded, with no sampling, by the rows (d, L, g, LC, GC) of
    f - 1: f >= 1 - d, and Delta log f = Delta f / f - |grad f|^2 / f^2 gives
    1/(1-d), L/(1-d) + g^2/(1-d)^2 and LC/(1-d) + GC/(1-d)^2, formed in
    Fraction and rounded up.  A non-finite input, or d >= 1 (f may vanish),
    gives a NaN row.  No row has an argmax.
    """
    delta_sufficient = delta_for_epsilon(epsilon)  # rejects a bad epsilon first
    d, lap, grad, lap_mass, grad_mass = (value for _, value in config.ratio_decay)

    def bound(first: float, second: float, power: int) -> float:
        """first/(1-d) + second^power/(1-d)^2, rounded up."""
        if not (all(map(math.isfinite, (d, first, second))) and d < 1.0):
            return math.nan
        inv = 1 / (1 - Fraction(d))
        q = Fraction(first) * inv + Fraction(second) ** power * inv * inv
        x = float(min(q, sys.float_info.max))  # the next float up is inf past the largest
        return math.nextafter(x, math.inf) if x < q else x

    rows = [
        _row("ratio_band", 1.0 + epsilon, bound(1.0, 0.0, 1)),
        _row("curvature_sup", epsilon, bound(lap, grad, 2)),
        _row("curvature_carleson", epsilon, bound(lap_mass, grad_mass, 1)),
    ]
    meta = {
        "config": config.to_dict(),
        "epsilon": epsilon,
        "delta_sufficient": delta_sufficient,
        "mode": "curvature_match",
    }
    return VerificationReport(conditions=tuple(rows), meta=meta)
