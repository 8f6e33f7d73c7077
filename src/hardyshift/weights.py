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

Weights are never materialized globally; values are computed on demand
from the spike layout, as lists of floats on the standard library.  Each
weight b^j, b = (1+alpha)^2, is the correctly rounded float of the exact
power, and alpha must keep the widest spike's peak a finite float.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple, Sequence

# the least value a float rounds up to inf: halfway from the largest float
# 2^1024 - 2^971 to 2^1024
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


class _SpikeFields(NamedTuple):
    start: int
    half_width: int


class SpikeSpec(_SpikeFields):
    """One triangular spike in the log weight profile.

    A tuple (start, half_width): equal and hashed by value, its fields
    read-only, and checked when made.
    """

    __slots__ = ()

    def __new__(cls, start: int, half_width: int):
        if start < 0:
            raise ValueError("spike start must be nonnegative")
        if half_width < 1:
            raise ValueError("spike half width must be at least 1")
        return super().__new__(cls, start, half_width)

    @classmethod
    def _make(cls, iterable):  # _replace makes its copy here: checked too
        return cls(*iterable)

    @property
    def end(self) -> int:
        """Last index touched by the spike (weight is 1 there)."""
        return self.start + 2 * self.half_width

    @property
    def peak(self) -> int:
        return self.start + self.half_width

    @property
    def interior(self) -> range:
        """Indices start+1 .. end-1, where the weight exceeds 1."""
        return range(self.start + 1, self.end)

    def step(self, n):
        """Step j = min(n - start, end - n) = half_width - |n - peak| of each
        index n, an int or an integer array: its distance from the nearer
        spike end, w_n = (1+alpha)^{2j}."""
        return self.half_width - abs(n - self.peak)


class WeightSequence:
    """Weight sequence determined by a slope parameter alpha and spike layout.

    Compared by identity.
    """

    alpha: float
    spikes: tuple[SpikeSpec, ...]

    def __init__(self, alpha: float, spikes: Sequence[SpikeSpec] = ()):
        if not (alpha > 0.0 and math.isfinite(alpha)):
            raise ValueError("alpha must be positive and finite")
        spikes = tuple(spikes)
        for prev, nxt in zip(spikes, spikes[1:]):
            if not prev.end < nxt.start:
                raise ValueError(
                    f"spikes must be separated: start {prev.start} with half width "
                    f"{prev.half_width} reaches {prev.end}, next start {nxt.start}"
                )
        # compared as exact rationals, so that the check itself cannot
        # overflow: (1.0 + alpha) ** 2 is finite below 1.0 + alpha = 2^512
        widest = max((sp.half_width for sp in spikes), default=0)
        if widest and not (1.0 + alpha < 2.0 ** 512
                           and Fraction((1.0 + alpha) ** 2) ** widest < _FLOAT_OVERFLOW):
            raise ValueError(f"alpha {alpha} is too large: the peak weight "
                             f"(1+alpha)^{2 * widest} is not a finite float")
        self.alpha = alpha
        self.spikes = spikes

    def weight_range(self, n0: int, n1: int) -> list[float]:
        """w_n for n in [n0, n1) as a list of floats, walking only the spikes
        that meet the range.

        Each w_n = b^j, b = (1+alpha)^2, is float(Fraction(b) ** j), the
        correctly rounded power, rather than exp of the log form or a pow
        that may miss by an ulp: bit-exact whenever b^j is a float (e.g.
        alpha = 1).
        """
        if n0 < 0 or n1 < n0:
            raise ValueError("need 0 <= n0 <= n1")
        if n1 - n0 > sys.maxsize:  # [1.0] * n raised OverflowError past a list's largest length
            raise MemoryError
        out = [1.0] * (n1 - n0)
        for sp in self.spikes:
            lo, hi = max(sp.start, n0), min(sp.end, n1 - 1)
            if lo <= hi:
                # b^0 .. b^h up the spike, then back down to b^0 at its end
                b = Fraction((1.0 + self.alpha) ** 2)
                up = [float(p) for p in accumulate(repeat(b, sp.half_width), mul, initial=1)]
                profile = up + up[-2::-1]
                out[lo - n0:hi + 1 - n0] = profile[lo - sp.start:hi + 1 - sp.start]
        return out

    @property
    def last_index(self) -> int:
        """Last index where the weight can differ from 1 (0 when unweighted)."""
        return self.spikes[-1].end if self.spikes else 0


def check_real(**values) -> None:
    """ValueError unless each value is a real number: numpy numbers are, bool and str not."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def build_spiked_weights(alpha: float, spike_starts: Sequence[int]) -> WeightSequence:
    """Spike layout where the k-th spike (1-based) has half width k.

    The half widths grow with the spike index so that peak heights
    (1+alpha)^{2k} are unbounded while the slope condition holds uniformly.
    With K spikes the backward shift is similar to S*, with constant
    (1+alpha)^K; that constant is unbounded in K, so the limiting operator
    is not power bounded, hence not similar to S*.  Starts must be integers
    (bool excluded) and alpha a real number.
    """
    check_real(alpha=alpha)
    starts = tuple(spike_starts)
    for s in starts:
        if isinstance(s, bool) or not isinstance(s, numbers.Integral):
            raise ValueError(f"spike starts must be integers, got {s!r}")
    spikes = tuple(SpikeSpec(start=int(s), half_width=k + 1) for k, s in enumerate(starts))
    return WeightSequence(alpha=float(alpha), spikes=spikes)

