"""Spiked weight sequences for weighted Hardy spaces.

A weight sequence here is w_n = exp(L_n) with L_n piecewise linear in n:
zero off a finite family of triangular spikes, and on the k-th spike
(start N, half width h)

    L_{N+j} = 2 j log(1+alpha)          for 0 <= j <= h,
    L_{N+2h-j} = 2 j log(1+alpha)       for 0 <= j <= h,

so the log weight climbs with slope 2 log(1+alpha) to the peak value
(1+alpha)^{2h} at n = N + h and descends symmetrically back to 1 at
n = N + 2h.  Spikes must be separated: start + 2*half_width < next start.
Every w_n >= 1, w_0 = 1, and consecutive ratios satisfy

    (1+alpha)^{-2} <= w_{n+1}/w_n <= (1+alpha)^2,

which is what makes the backward shift on the associated space an almost
coisometry with norm bounds depending only on alpha.

Weights are never materialized globally; values are computed on demand in
the log domain from the spike layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SpikeSpec:
    """One triangular spike in the log weight profile."""

    start: int
    half_width: int

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("spike start must be nonnegative")
        if self.half_width < 1:
            raise ValueError("spike half width must be at least 1")

    @property
    def end(self) -> int:
        """Last index touched by the spike (weight is 1 there)."""
        return self.start + 2 * self.half_width

    @property
    def peak(self) -> int:
        return self.start + self.half_width


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """Weight sequence determined by a slope parameter alpha and spike layout."""

    alpha: float
    spikes: tuple[SpikeSpec, ...] = ()

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")
        spikes = tuple(self.spikes)
        for prev, nxt in zip(spikes, spikes[1:]):
            if not prev.end < nxt.start:
                raise ValueError(
                    f"spikes must be separated: start {prev.start} with half width "
                    f"{prev.half_width} reaches {prev.end}, next start {nxt.start}"
                )
        object.__setattr__(self, "spikes", spikes)

    @property
    def log_slope(self) -> float:
        """Largest step of log w_n between consecutive indices: 2 log(1+alpha)."""
        return 2.0 * math.log1p(self.alpha)

    def _spike_steps(self, n0: int, n1: int) -> list[tuple[slice, np.ndarray]]:
        """For each spike meeting [n0, n1): the slice of the range it covers
        and the distance j of each covered index from the nearer spike end."""
        if n0 < 0 or n1 < n0:
            raise ValueError("need 0 <= n0 <= n1")
        steps = []
        for sp in self.spikes:
            lo, hi = max(sp.start, n0), min(sp.end, n1 - 1)
            if lo <= hi:
                idx = np.arange(lo, hi + 1)
                j = np.minimum(idx - sp.start, sp.end - idx)
                steps.append((slice(lo - n0, hi + 1 - n0), j))
        return steps

    @property
    def _slope_base(self) -> float:
        return (1.0 + self.alpha) ** 2

    def log_weight_at(self, n: int) -> float:
        """log w_n, exactly zero off spikes."""
        for _, j in self._spike_steps(n, n + 1):
            return int(j[0]) * self.log_slope
        return 0.0

    def weight_at(self, n: int) -> float:
        # integer power of (1+alpha)^2 rather than exp of the log form:
        # bit-exact whenever the base is (e.g. alpha = 1)
        for _, j in self._spike_steps(n, n + 1):
            return self._slope_base ** int(j[0])
        return 1.0

    def log_weight_range(self, n0: int, n1: int) -> np.ndarray:
        """log w_n for n in [n0, n1), vectorized over the spike layout."""
        steps = self._spike_steps(n0, n1)
        out = np.zeros(n1 - n0, dtype=np.float64)
        for cover, j in steps:
            out[cover] = j * self.log_slope
        return out

    def weight_range(self, n0: int, n1: int) -> np.ndarray:
        """w_n for n in [n0, n1), as integer powers of (1+alpha)^2."""
        steps = self._spike_steps(n0, n1)
        out = np.ones(n1 - n0, dtype=np.float64)
        for cover, j in steps:
            out[cover] = np.power(self._slope_base, j)
        return out

    @property
    def last_index(self) -> int:
        """Last index where the weight can differ from 1 (0 when unweighted)."""
        return self.spikes[-1].end if self.spikes else 0

    def peak_value(self, k: int) -> float:
        """Peak weight of the k-th spike (1-based): (1+alpha)^{2 h_k}."""
        sp = self.spikes[k - 1]
        return self._slope_base ** sp.half_width


def build_spiked_weights(alpha: float, spike_starts: Sequence[int]) -> WeightSequence:
    """Spike layout where the k-th spike (1-based) has half width k.

    The half widths grow with the spike index so that peak heights
    (1+alpha)^{2k} are unbounded while the slope condition holds uniformly;
    that combination is what separates power boundedness from similarity to
    a contraction for the associated backward shift.
    """
    starts = [int(s) for s in spike_starts]
    spikes = tuple(SpikeSpec(start=s, half_width=k + 1) for k, s in enumerate(starts))
    return WeightSequence(alpha=float(alpha), spikes=spikes)


@dataclass(frozen=True)
class SlopeReport:
    """Extremes of consecutive weight ratios against the admissible band."""

    max_ratio: float
    min_ratio: float
    upper_bound: float
    lower_bound: float
    passed: bool


def slope_report(
    weights: WeightSequence | Sequence[float],
    n_max: int | None = None,
    alpha: float | None = None,
    rel_tol: float = 1e-12,
) -> SlopeReport:
    """Check (1+alpha)^{-2} <= w_{n+1}/w_n <= (1+alpha)^2 for n < n_max.

    Accepts either a WeightSequence (alpha taken from it, n_max defaulting
    to cover all spikes) or a raw positive sequence with alpha supplied.
    """
    if isinstance(weights, WeightSequence):
        a = weights.alpha
        if n_max is None:
            n_max = weights.last_index + 2
        vals = weights.weight_range(0, n_max + 1)
    else:
        if alpha is None:
            raise ValueError("alpha is required for raw weight values")
        a = float(alpha)
        vals = np.asarray(list(weights), dtype=np.float64)
        if n_max is not None:
            vals = vals[: n_max + 1]
    if len(vals) < 2:
        raise ValueError("need at least two weight values")
    if np.any(vals <= 0):
        raise ValueError("weights must be positive")
    ratios = vals[1:] / vals[:-1]
    hi = (1.0 + a) ** 2
    lo = hi ** -1
    top, bottom = float(ratios.max()), float(ratios.min())
    return SlopeReport(
        max_ratio=top,
        min_ratio=bottom,
        upper_bound=hi,
        lower_bound=lo,
        passed=top <= hi * (1.0 + rel_tol) and bottom >= lo * (1.0 - rel_tol),
    )
