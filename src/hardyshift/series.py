"""Radial power series in s = |z|^2 with sparse exponents.

A radial function G(|z|^2) = sum_e b_e s^e is stored as parallel arrays of
integer exponents and real coefficients.  Exponents may be huge (spiked
weight constructions push them to ~10^6), so monomials s^e with e > 64 are
evaluated in the log domain as exp(e * ln s); small exponents go through
ordinary powers.  Dense series (contiguous exponents from 0) take a Horner
fast path.

Each series builds its evaluation plan once, on first use, and keeps it:
the dense flag, the (exponents, coeffs) pair of the small exponents, and
the log-domain terms cut into blocks of 4096 with float exponents.  eval
runs the plan; eval_with_derivatives returns G, G' and G'' together,
bit-equal to eval on the series and its cached derivatives, with one
range check and one log of s for all three.

Differential operators, for the normalized Laplacian Delta = d^2/(dz dzbar)
(one quarter of the standard Laplacian):

    Delta s^e = e^2 s^{e-1}            so   Delta G = G'(s) + s G''(s)
    |dG/dz|^2 = s * (G'(s))^2

both of which stay sparse with the same number of terms (squaring excepted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np
from numpy.polynomial import polynomial as _poly

_LOG_DOMAIN_MIN_EXP = 65  # s**e by repeated squaring below this, exp(e ln s) at or above
_LOG_DOMAIN_BLOCK = 4096  # log-domain terms per exp(ln s * e) matrix
_PRODUCT_TERM_CAP = 4_000_000


class TruncationError(RuntimeError):
    """A requested tolerance needs more series terms than the configured cap."""

    def __init__(self, message: str, required_order: int):
        super().__init__(message)
        self.required_order = required_order


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
    """A series' terms as eval consumes them.

    dense holds the coefficients of a dense series (Horner); otherwise
    small is the (exponents, coeffs) pair below _LOG_DOMAIN_MIN_EXP, or
    None, and blocks the log-domain (float exponents, coeffs) pairs.  The
    zero series has neither and evaluates to zeros.
    """

    dense: Optional[np.ndarray]
    small: Optional[tuple[np.ndarray, np.ndarray]]
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    def run(self, s_arr: np.ndarray, logs: Optional[np.ndarray]) -> np.ndarray:
        """Values at the points s_arr; logs = log(s_arr) when blocks is nonempty."""
        if self.dense is not None:
            return _poly.polyval(s_arr, self.dense)
        out = np.zeros(s_arr.shape)
        if self.small is not None:
            e, c = self.small
            out += np.power(s_arr[:, None], e[None, :]) @ c
        for e, c in self.blocks:
            out += np.exp(logs[:, None] * e[None, :]) @ c
        return out


def _unit_interval_points(s) -> tuple[np.ndarray, bool]:
    """s as a float array of at least one dimension, and whether it was a scalar.

    Raises ValueError unless every point satisfies 0 <= s < 1; NaN fails
    both comparisons and is rejected too.
    """
    s_arr = np.asarray(s, dtype=np.float64)
    if not np.all((s_arr >= 0.0) & (s_arr < 1.0)):
        raise ValueError("s must lie in [0, 1)")
    return (s_arr.reshape(1), True) if s_arr.ndim == 0 else (s_arr, False)


def _log(s_arr: np.ndarray) -> np.ndarray:
    """log of points already checked to lie in [0, 1)."""
    # s = 0 gives log = -inf and exp(e * -inf) = 0, the right limit
    with np.errstate(divide="ignore"):
        return np.log(s_arr)


@dataclass(frozen=True, eq=False)
class RadialSeries:
    """Sparse polynomial sum_e coeffs[e] * s**exponents[e] on s in [0, 1)."""

    exponents: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.exponents, dtype=np.int64)
        c = np.asarray(self.coeffs, dtype=np.float64)
        if e.shape != c.shape or e.ndim != 1:
            raise ValueError("exponents and coeffs must be 1-d arrays of equal length")
        if len(e) > 1 and not np.all(np.diff(e) > 0):
            e, c = _canonical(e, c)
        if np.any(e < 0):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "exponents", e)
        object.__setattr__(self, "coeffs", c)

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

    @property
    def is_dense(self) -> bool:
        n = len(self.exponents)
        return n > 0 and self.exponents[0] == 0 and self.exponents[-1] == n - 1

    def __len__(self) -> int:
        return len(self.exponents)

    def dense_coeffs(self) -> np.ndarray:
        """Coefficients b_0..b_order as a dense array (order must be modest)."""
        if self.order > 10_000_000:
            raise ValueError("series too large to densify")
        out = np.zeros(self.order + 1 if self.order >= 0 else 0, dtype=np.float64)
        out[self.exponents] = self.coeffs
        return out

    # ------------------------------------------------------------------ #
    # evaluation

    @cached_property
    def _plan(self) -> _EvalPlan:
        """How eval splits the terms, built on first use and kept with the series."""
        if self.is_dense:
            return _EvalPlan(self.coeffs, None, ())
        small = self.exponents < _LOG_DOMAIN_MIN_EXP
        pair = (self.exponents[small], self.coeffs[small]) if np.any(small) else None
        e = self.exponents[~small].astype(np.float64)
        c = self.coeffs[~small]
        blocks = tuple((e[lo:lo + _LOG_DOMAIN_BLOCK], c[lo:lo + _LOG_DOMAIN_BLOCK])
                       for lo in range(0, len(e), _LOG_DOMAIN_BLOCK))
        return _EvalPlan(None, pair, blocks)

    def eval(self, s):
        """Value at s, scalar or array; requires 0 <= s < 1."""
        s_arr, scalar = _unit_interval_points(s)
        plan = self._plan
        out = plan.run(s_arr, _log(s_arr) if plan.blocks else None)
        return float(out[0]) if scalar else out

    def eval_with_derivatives(self, s):
        """(G(s), G'(s), G''(s)), each bit-equal to eval on G, G' and G''.

        G' and G'' are the cached derivative series.  One range check and
        one log of s serve all three plans.
        """
        s_arr, scalar = _unit_interval_points(s)
        plans = (self._plan, self.derivative._plan, self.derivative.derivative._plan)
        logs = _log(s_arr) if any(p.blocks for p in plans) else None
        outs = tuple(p.run(s_arr, logs) for p in plans)
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

    def grad_sq(self) -> "RadialSeries":
        """Squared gradient modulus of G(|z|^2): s * (G'(s))^2."""
        d = self.d_ds()
        return d.multiply(d).shift(1)

    # ------------------------------------------------------------------ #
    # algebra

    def add(self, other: "RadialSeries") -> "RadialSeries":
        e = np.concatenate([self.exponents, other.exponents])
        c = np.concatenate([self.coeffs, other.coeffs])
        e, c = _canonical(e, c)
        return RadialSeries(e, c)

    def scale(self, a: float) -> "RadialSeries":
        return RadialSeries(self.exponents, self.coeffs * float(a))

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
# stock series


def geometric_series(order: int) -> RadialSeries:
    """Truncation of 1/(1-s) at s^order; tail_bound_geometric bounds the rest."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return RadialSeries.from_dense(np.ones(order + 1))


def edge_bump(n: int) -> RadialSeries:
    """The bump s^n (1 - s), vanishing at both s = 0 (for n >= 1) and s = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return RadialSeries.from_terms([(n, 1.0), (n + 1, -1.0)])


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
    if tol <= 0.0:
        raise ValueError("tol must be positive")
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


def fd_laplacian(field: Callable[[complex], float], z: complex, h: float = 1e-4) -> float:
    """Five point stencil for the normalized Laplacian d^2/(dz dzbar).

    (F(z+h) + F(z-h) + F(z+ih) + F(z-ih) - 4 F(z)) / (4 h^2), one quarter of
    the standard five point Laplacian.  All stencil points must stay inside
    the unit disk.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if abs(z) + h >= 1.0:
        raise ValueError("stencil exits the unit disk")
    z = complex(z)
    acc = field(z + h) + field(z - h) + field(z + 1j * h) + field(z - 1j * h) - 4.0 * field(z)
    return acc / (4.0 * h * h)
