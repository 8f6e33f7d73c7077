"""Radial power series in s = |z|^2 with sparse exponents.

A radial function G(|z|^2) = sum_e b_e s^e is stored as parallel arrays of
integer exponents and real coefficients.  Exponents may be huge (the
spike search places starts up to 2^40), but they come in short runs of
consecutive powers: one run per spike term, and a dense series is a
single run from 0.

Each series builds its evaluation plan once, on first use, and keeps it:
every maximal run of consecutive exponents is a block
s^N (c_0 + c_1 s + ... + c_w s^w).  eval takes all blocks at once by one
Horner pass over a (blocks x points) array, multiplies each block's row
by s^N, one np.power with a scalar exponent per block, and adds the rows
in block order.  Every step acts on one point alone, so a point's value
does not depend on the batch it is evaluated in, and a dense series gets
exactly the bits of Horner's rule.  eval_with_derivatives returns G,
G' and G'' together, bit-equal to eval on the series and its cached
derivatives, with one range check for all three.

Differential operators, for the normalized Laplacian Delta = d^2/(dz dzbar)
(one quarter of the standard Laplacian):

    Delta s^e = e^2 s^{e-1}            so   Delta G = G'(s) + s G''(s)
    |dG/dz|^2 = s * (G'(s))^2

The Laplacian stays sparse; search.gradient_sq_mass integrates s G'^2 from G'.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

_PRODUCT_TERM_CAP = 4_000_000


def _canonical(exponents: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by exponent, merge duplicates, drop exact zeros."""
    if len(exponents) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    order = np.argsort(exponents, kind="stable")
    e = exponents[order]
    c = coeffs[order]
    uniq, inverse = np.unique(e, return_inverse=True)
    merged = np.zeros(len(uniq), dtype=np.float64)
    np.add.at(merged, inverse, c)
    keep = merged != 0.0
    return uniq[keep].astype(np.int64), merged[keep]


class _EvalPlan(NamedTuple):
    """A series' terms as eval consumes them: one block per maximal run of
    consecutive exponents.

    powers holds each block's lowest exponent N, as a float, and horner
    its coefficients, one (blocks, 1) slice per power from the
    highest down: slice j holds c_{w-j} of each block, w the widest
    block's top power, with zeros above a shorter block's own top.  The
    zero series is one block of zeros.
    """

    powers: tuple[float, ...]
    horner: np.ndarray

    def run(self, s_arr: np.ndarray) -> np.ndarray:
        """Values at the points s_arr."""
        s = s_arr.reshape(-1)
        acc = np.zeros((len(self.powers), len(s)))  # one row per block
        for coeffs in self.horner:  # leading zeros stay 0: each block runs its own rule
            acc *= s
            acc += coeffs
        for row, power in zip(acc, self.powers):
            # one scalar exponent per block: with a (blocks, 1) exponent column
            # numpy gave s^2 as s*s in large batches only, so s^2 hung on the batch
            row *= np.power(s, power)
        total = acc[0]
        for row in acc[1:]:  # in block order: np.sum adds a lone point's blocks pairwise
            total += row
        return total.reshape(s_arr.shape)


def _unit_interval_points(s) -> tuple[np.ndarray, bool]:
    """s as a float array of at least one dimension, and whether it was a scalar.

    Raises ValueError unless every point satisfies 0 <= s < 1; NaN fails
    both comparisons and is rejected too.
    """
    s_arr = np.asarray(s, dtype=np.float64)
    if not np.all((s_arr >= 0.0) & (s_arr < 1.0)):
        raise ValueError("s must lie in [0, 1)")
    return (s_arr.reshape(1), True) if s_arr.ndim == 0 else (s_arr, False)


class RadialSeries:
    """Sparse polynomial sum_e coeffs[e] * s**exponents[e] on s in [0, 1).

    Compared by identity.
    """

    exponents: np.ndarray
    coeffs: np.ndarray

    def __init__(self, exponents, coeffs):
        e = np.asarray(exponents, dtype=np.int64)
        c = np.asarray(coeffs, dtype=np.float64)
        if e.shape != c.shape or e.ndim != 1:
            raise ValueError("exponents and coeffs must be 1-d arrays of equal length")
        if len(e) > 1 and not np.all(np.diff(e) > 0):
            e, c = _canonical(e, c)
        if np.any(e < 0):
            raise ValueError("exponents must be nonnegative")
        self.exponents = e
        self.coeffs = c

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, float]]) -> "RadialSeries":
        pairs = list(terms)
        e = np.array([t[0] for t in pairs], dtype=np.int64)
        c = np.array([t[1] for t in pairs], dtype=np.float64)
        e, c = _canonical(e, c)
        return cls(e, c)

    @classmethod
    def from_dense(cls, coeffs: Iterable[float]) -> "RadialSeries":
        c = np.asarray(list(coeffs), dtype=np.float64)
        return cls(np.arange(len(c), dtype=np.int64), c)

    @classmethod
    def zero(cls) -> "RadialSeries":
        return cls(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))

    # ------------------------------------------------------------------ #
    # structure

    @property
    def order(self) -> int:
        """Largest exponent present, -1 for the zero series."""
        return int(self.exponents[-1]) if len(self.exponents) else -1

    def __len__(self) -> int:
        return len(self.exponents)

    # ------------------------------------------------------------------ #
    # evaluation

    @cached_property
    def _plan(self) -> _EvalPlan:
        """The series' Horner blocks, built on first use and kept with the series."""
        e = self.exponents
        if not len(e):
            return _EvalPlan((0.0,), np.zeros((1, 1, 1)))
        first = np.flatnonzero(np.diff(e, prepend=-2) != 1)  # where each run starts
        width = np.diff(first, append=len(e))
        # a term sits in slice (widest - 1) - (its power above its block's N)
        block = np.repeat(np.arange(len(first)), width)
        horner = np.zeros((int(width.max()), len(first), 1))
        horner[len(horner) - 1 - (e - e[first][block]), block, 0] = self.coeffs
        return _EvalPlan(tuple(map(float, e[first])), horner)

    def eval(self, s):
        """Value at s, scalar or array; requires 0 <= s < 1."""
        s_arr, scalar = _unit_interval_points(s)
        out = self._plan.run(s_arr)
        return float(out[0]) if scalar else out

    def eval_with_derivatives(self, s):
        """(G(s), G'(s), G''(s)), each bit-equal to eval on G, G' and G''.

        G' and G'' are the cached derivative series.  One range check
        serves all three plans.
        """
        s_arr, scalar = _unit_interval_points(s)
        outs = tuple(g._plan.run(s_arr) for g in (self, self.derivative,
                                                  self.derivative.derivative))
        return tuple(float(o[0]) for o in outs) if scalar else outs

    __call__ = eval

    # ------------------------------------------------------------------ #
    # calculus

    def d_ds(self) -> "RadialSeries":
        """Termwise derivative in s."""
        keep = self.exponents >= 1
        e = self.exponents[keep]
        c = self.coeffs[keep] * e.astype(np.float64)
        return RadialSeries(e - 1, c)

    @cached_property
    def derivative(self) -> "RadialSeries":
        """d_ds(), built on first use and kept with the series."""
        return self.d_ds()

    def laplacian(self) -> "RadialSeries":
        """Normalized Laplacian of G(|z|^2): G' + s G'', i.e. s^e -> e^2 s^{e-1}."""
        keep = self.exponents >= 1
        e = self.exponents[keep]
        c = self.coeffs[keep] * (e.astype(np.float64) ** 2)
        return RadialSeries(e - 1, c)

    # grad_sq, shift, multiply and _PRODUCT_TERM_CAP have no caller in the package;
    # they stay while hardybench/tracer.py wraps grad_sq and multiply by name
    def grad_sq(self) -> "RadialSeries":
        """Squared gradient modulus of G(|z|^2): s * (G'(s))^2."""
        d = self.d_ds()
        return d.multiply(d).shift(1)

    # ------------------------------------------------------------------ #
    # algebra (add, times_one_minus_s: no caller in the package; the tracer wraps them)

    def add(self, other: "RadialSeries") -> "RadialSeries":
        e = np.concatenate([self.exponents, other.exponents])
        c = np.concatenate([self.coeffs, other.coeffs])
        e, c = _canonical(e, c)
        return RadialSeries(e, c)

    def shift(self, k: int) -> "RadialSeries":
        """Multiply by s^k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return RadialSeries(self.exponents + int(k), self.coeffs)

    def multiply(self, other: "RadialSeries") -> "RadialSeries":
        if len(self) * len(other) > _PRODUCT_TERM_CAP:
            raise ValueError("series product too large; evaluate numerically instead")
        e = (self.exponents[:, None] + other.exponents[None, :]).ravel()
        c = (self.coeffs[:, None] * other.coeffs[None, :]).ravel()
        e, c = _canonical(e, c)
        return RadialSeries(e, c)

    def times_one_minus_s(self) -> "RadialSeries":
        e = np.concatenate([self.exponents, self.exponents + 1])
        c = np.concatenate([self.coeffs, -self.coeffs])
        e, c = _canonical(e, c)
        return RadialSeries(e, c)


# ---------------------------------------------------------------------- #
# truncation control


def tail_bound_geometric(order: int, r_max: float) -> float:
    """Bound sum_{m > order} s^m / w_m <= r_max^{2(order+1)} / (1 - r_max^2).

    Valid for any weight sequence with w_m >= 1, at s = r_max^2.
    """
    if not 0.0 <= r_max < 1.0:
        raise ValueError("r_max must lie in [0, 1)")
    if r_max == 0.0:
        return 0.0
    log_s = 2.0 * math.log(r_max)
    return math.exp((order + 1) * log_s) / (-math.expm1(2.0 * math.log(r_max)))


def truncation_order(r_max: float, tol: float) -> int:
    """Smallest order whose geometric tail bound at r_max is at most tol."""
    if not 0.0 <= r_max < 1.0:
        raise ValueError("r_max must lie in [0, 1)")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")
    if r_max == 0.0 or tail_bound_geometric(0, r_max) <= tol:
        return 0
    log_s = 2.0 * math.log(r_max)
    one_minus_s = -math.expm1(log_s)
    guess = int(math.ceil(math.log(tol * one_minus_s) / log_s - 1.0))
    m = max(guess - 2, 0)
    while tail_bound_geometric(m, r_max) > tol:
        m += 1
    while m > 0 and tail_bound_geometric(m - 1, r_max) <= tol:
        m -= 1
    return m

