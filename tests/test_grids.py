"""Grid suprema and sign-change brackets."""

import math

import bump_oracles
import numpy as np
import pytest
import scipy.optimize
from series_oracles import edge_bump
from theorem_oracles import curvature_density

from hardyshift.construction import lemma_bounds
from hardyshift.grids import (
    _G10_WEIGHTS,
    _GK21_NODES,
    _K21_WEIGHTS,
    QuadratureError,
    _root_scan_grid,
    boundary_refined_grid,
    brentq,
    gauss_kronrod,
    merge_grids,
    peak_candidates,
    refined_supremum,
    sign_change_brackets,
)
from hardyshift.search import RootNotConvergedError
from hardyshift.series import RadialSeries
from hardyshift.spectral import kernel_ratio_series, ratio_log_laplacian, spike_ratio_term
from hardyshift.weights import SpikeSpec


def _bump_fns(n: int):
    lap = edge_bump(n).laplacian()
    grad = edge_bump(n).grad_sq()
    return (lambda r: np.abs(lap.eval(r * r)) * (1.0 - r) ** 2,
            lambda r: np.abs(grad.eval(r * r)) * (1.0 - r) ** 2)


def _bump_grid(n: int) -> np.ndarray:
    """Boundary-refined grid seeded with the peaks of the monomials
    r^{2n-2} ... r^{2n+2} of the bump s^n (1 - s) and its derivatives, and
    with the bump's own peak r = sqrt(n/(n+1)) (and s = n/(n+1))."""
    stencil = [q for q in range(2 * n - 2, 2 * n + 3) if q >= 1]
    return merge_grids(boundary_refined_grid(701, 45.0), peak_candidates(stencil),
                       [math.sqrt(n / (n + 1.0)), n / (n + 1.0)])


class CountingFn:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, r):
        self.calls += 1
        return self.fn(r)


# ---------------------------------------------------------------------- #
# refined_supremum


@pytest.mark.parametrize("seed", range(5))
def test_refined_supremum_never_below_grid_maximum(seed):
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(1.0, 40.0, size=3)
    phases = rng.uniform(0.0, 2 * np.pi, size=3)

    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.sum(np.sin(freqs[:, None] * r[None, :] + phases[:, None]), axis=0)

    grid = np.sort(rng.uniform(0.0, 1.0, size=50))
    r_star, value = refined_supremum(fn, grid)
    assert value >= np.max(fn(grid))
    assert grid[0] <= r_star <= grid[-1]
    assert value == fn(np.array([r_star]))[0]


@pytest.mark.parametrize("n", [3, 34, 910, 2250])
def test_refined_supremum_reaches_dense_grid_maximum(n):
    dense = np.linspace(0.0, 1.0, 2_000_001)[:-1]
    for fn in _bump_fns(n):
        _, value = refined_supremum(fn, _bump_grid(n))
        dense_max = max(float(np.max(fn(chunk))) for chunk in np.array_split(dense, 8))
        assert value >= dense_max - 1e-12


@pytest.mark.parametrize("n", [1, 3, 34, 117, 910, 2250])
def test_lemma_suprema_match_scalar_polish(n):
    # the lemma's critical-point sups against mpmath at the real roots of
    # the cubics whose zeros are the critical radii; the grid polish they
    # replace read these 1e-8 close and never more than 1e-14 below
    rep = lemma_bounds(n)
    sup_lap, sup_grad = bump_oracles.laplacian_sup(n), bump_oracles.gradient_sup(n)
    assert abs(rep.laplacian_sup - sup_lap) <= 1e-15 * sup_lap
    assert abs(rep.gradient_sup - sup_grad) <= 1e-15 * sup_grad


def test_polished_bump_supremum_is_never_below_the_grid_maximum():
    grid = boundary_refined_grid(101, 10.0)
    for base in _bump_fns(34):
        fn = CountingFn(base)
        vals = fn.fn(grid)
        r_star, value = refined_supremum(fn, grid)
        assert fn.calls > 1  # the interior peak was polished
        assert value >= np.max(vals)
        assert grid[0] <= r_star <= grid[-1]
        assert value == pytest.approx(base(np.array([r_star]))[0], rel=1e-13)


@pytest.mark.parametrize("grid", [np.array([0.5]), np.array([0.1, 0.7])])
def test_refined_supremum_on_short_grids(grid):
    fn = CountingFn(lambda r: np.asarray(r) * (1.0 - np.asarray(r)))
    vals = fn.fn(grid)
    i = int(np.argmax(vals))
    assert refined_supremum(fn, grid) == (grid[i], vals[i])
    assert fn.calls == 1


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_refined_supremum_without_interior_local_maximum(sign):
    # monotone: the maximum sits on the grid end, and the fallback bracket
    # next to it must not move the result
    grid = np.linspace(0.0, 0.9, 31)
    r_star, value = refined_supremum(lambda r: sign * np.asarray(r) ** 3, grid)
    end = grid[-1] if sign > 0 else grid[0]
    assert (r_star, value) == (end, sign * end ** 3)


def test_refined_supremum_rejects_scalar_functions():
    with pytest.raises(ValueError, match="vectorized"):
        refined_supremum(lambda r: 1.0, np.linspace(0.0, 0.5, 5))


@pytest.mark.parametrize("n", [3, 910, 172510])
def test_polish_is_batched(n):
    # one call on the grid, then one per polish step for all brackets together
    for base in _bump_fns(n):
        fn = CountingFn(base)
        refined_supremum(fn, _bump_grid(n))
        assert fn.calls <= 16


def test_polish_refines_all_top_brackets_together():
    grid = np.linspace(0.0, 0.99, 400)
    fn = CountingFn(lambda r: np.sin(60.0 * np.asarray(r)) + np.asarray(r))
    vals = fn.fn(grid)
    interior = np.arange(1, len(grid) - 1)
    local = (vals[interior] >= vals[interior - 1]) & (vals[interior] >= vals[interior + 1])
    assert np.count_nonzero(local) > 8
    _, value = refined_supremum(fn, grid)
    assert fn.calls <= 16
    assert value > np.max(vals)


def test_polish_ends_where_brackets_stop_shrinking():
    # near r = 1000 one ulp (1.1e-13) exceeds the polish tolerance, so the
    # brackets reach their floating-point floor before they get that narrow
    grid = np.linspace(1000.0, 1001.0, 50)

    def parabola(r):
        if fn.calls > 100:
            raise RuntimeError("polish does not terminate")
        return -(np.asarray(r) - 1000.3) ** 2

    fn = CountingFn(parabola)
    r_star, value = refined_supremum(fn, grid)
    assert fn.calls <= 16
    assert abs(r_star - 1000.3) <= 2 * np.spacing(1000.3)
    assert value >= np.max(fn.fn(grid))


# ---------------------------------------------------------------------- #
# sign_change_brackets


def _brackets_loop(values, grid):
    out = []
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        if (a < 0) != (b < 0) and abs(a) > 0.0 and abs(b) > 0.0:
            out.append((float(grid[i]), float(grid[i + 1])))
    return out


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("planted", [0.0, 1e-280, 0.3])
def test_sign_change_brackets_match_pairwise_loop(seed, planted):
    # values of modulus `planted` and random sign sit among the normal
    # ones; only exact zeros and NaN keep a cell from being a bracket
    rng = np.random.default_rng(seed)
    values = rng.normal(size=200)
    values[rng.integers(0, 200, size=20)] = planted * rng.choice([-1.0, 1.0], size=20)
    values[rng.integers(0, 200, size=5)] = np.nan
    grid = np.sort(rng.uniform(0.0, 1.0, size=200))
    assert sign_change_brackets(values, grid) == _brackets_loop(values, grid)


def test_sign_change_brackets_edge_cases():
    assert sign_change_brackets(np.array([1.0]), np.array([0.5])) == []
    assert sign_change_brackets(np.array([-1.0, 0.0, 1.0]), np.array([0.1, 0.2, 0.3])) == []
    assert sign_change_brackets(np.array([-1.0, 2.0]), np.array([0.1, 0.2])) == [(0.1, 0.2)]
    # no floor: a sign change from a subnormal value is a bracket too
    assert sign_change_brackets(np.array([-5e-324, 1e-300]), np.array([0.1, 0.2])) == [(0.1, 0.2)]


# ---------------------------------------------------------------------- #
# brentq, against scipy.optimize.brentq


XTOL = 1e-15  # the tolerance of grids.sign_roots


def _brent_runs(f, lo, hi):
    """(root, points f was evaluated at) of the port and of scipy."""
    runs = []
    for solver in (brentq, scipy.optimize.brentq):
        seen = []

        def logged(x):
            seen.append(x)
            return f(x)

        runs.append((solver(logged, lo, hi, xtol=XTOL), seen))
    return runs


def _scalar_brackets(fn, exponents, widen: int = 0):
    """Scan-grid sign-change brackets of a function of s built from the
    given exponents, under scalar evaluation, each widened by `widen` grid
    cells on both sides where that keeps the sign change."""
    grid = _root_scan_grid(exponents)
    vals = fn(grid)

    def f(s):
        return float(fn(s))

    out = []
    for lo, hi in sign_change_brackets(vals, grid):
        i = int(np.searchsorted(grid, lo))
        lo, hi = float(grid[max(i - widen, 0)]), float(grid[min(i + 1 + widen, len(grid) - 1)])
        flo, fhi = f(lo), f(hi)
        if flo != 0.0 and fhi != 0.0 and (flo < 0.0) != (fhi < 0.0):
            out.append((f, lo, hi))
    return out


def test_brentq_matches_scipy_on_bump_brackets():
    # a single bump's derivative and Laplacian vanish exactly at the scan
    # grid's e/(e+1) and e^2/(e+1)^2 candidates and leave no bracket; a
    # spike term, a combination of 2k - 1 bumps, leaves one for each when
    # k >= 2
    cases = []
    for start, k in ((10, 2), (2248, 3), (172510, 4)):
        term = RadialSeries(*spike_ratio_term(1.0, SpikeSpec(start, k)))
        for series in (term.d_ds(), term.laplacian()):
            for widen in (0, 3, 20):
                cases += _scalar_brackets(series.eval, series.exponents, widen)
    assert len(cases) >= 12
    for f, lo, hi in cases:
        (root, seen), (ref_root, ref_seen) = _brent_runs(f, lo, hi)
        assert root == ref_root
        assert seen == ref_seen


def test_brentq_matches_scipy_on_curvature_numerator(standard_config):
    # the curvature density's cuts: sign changes of Delta log f, evaluated
    # in factored form on the grid of f's exponents
    w = standard_config.weights()
    f = kernel_ratio_series(w, r_max=standard_config.r_max, tol=standard_config.tol)

    def log_laplacian(s):
        return ratio_log_laplacian(f, np.sqrt(s))

    assert len(curvature_density(f, w.spikes).breakpoints) > 0
    cases = (_scalar_brackets(log_laplacian, f.exponents)
             + _scalar_brackets(log_laplacian, f.exponents, 4))
    assert len(cases) >= 4
    for g, lo, hi in cases:
        (root, seen), (ref_root, ref_seen) = _brent_runs(g, lo, hi)
        assert root == ref_root
        assert seen == ref_seen


@pytest.mark.parametrize("seed", range(20))
def test_brentq_matches_scipy_on_random_polynomials(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=int(rng.integers(2, 9)))
    grid = np.sort(rng.uniform(-2.0, 2.0, size=int(rng.integers(5, 40))))

    def f(x):
        return float(np.polynomial.polynomial.polyval(x, coeffs))

    vals = np.array([f(x) for x in grid])
    for lo, hi in sign_change_brackets(vals, grid):
        (root, seen), (ref_root, ref_seen) = _brent_runs(f, lo, hi)
        assert root == ref_root
        assert seen == ref_seen


@pytest.mark.parametrize("lo, hi", [(0.5, 1.0), (0.0, 0.5)])
def test_brentq_returns_a_root_on_an_endpoint(lo, hi):
    (root, seen), (ref_root, ref_seen) = _brent_runs(lambda x: x - 0.5, lo, hi)
    assert root == ref_root == 0.5
    assert seen == ref_seen == [lo, hi]


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("shape", [lambda x: x ** 3 - 0.3, lambda x: (x - 0.2) ** 3],
                         ids=["simple_root", "triple_root"])
def test_brentq_bisects_where_the_step_divisor_underflows(scale, shape):
    # on values this small the extrapolation step's divisor dblk dpre
    # (fblk - fpre) underflows to 0: scipy's C code gets inf or NaN and
    # bisects, where a Python quotient would raise ZeroDivisionError
    (root, seen), (ref_root, ref_seen) = _brent_runs(lambda x: scale * shape(x), 0.0, 1.0)
    assert root == ref_root
    assert seen == ref_seen


def test_brentq_rejects_brackets_without_a_sign_change():
    for solver in (brentq, scipy.optimize.brentq):
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: x * x + 1.0, -1.0, 1.0, xtol=XTOL)


def test_brentq_rejects_nan_values():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: float("nan") if x > 0.2 else -1.0, 0.0, 1.0, xtol=XTOL)


def test_brentq_raises_runtime_error_at_maxiter():
    def triple(x):  # stalls both solvers for all 100 steps
        return (x - 0.3) ** 3

    with pytest.raises(RuntimeError):
        scipy.optimize.brentq(triple, 0.0, 1.0, xtol=XTOL)
    with pytest.raises(RootNotConvergedError):
        brentq(triple, 0.0, 1.0, xtol=XTOL)
    assert issubclass(RootNotConvergedError, RuntimeError)


# ---------------------------------------------------------------------- #
# adaptive Gauss-Kronrod quadrature


def test_gauss_kronrod_constants():
    # the Gauss nodes interleave the Kronrod ones and match Gauss-Legendre;
    # the 21-point rule is exact for degree 31, the 10-point one for 19
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.allclose(_GK21_NODES[1::2], nodes, rtol=0.0, atol=1e-15)
    assert np.allclose(_G10_WEIGHTS[1::2], weights, rtol=0.0, atol=1e-15)
    assert np.all(_G10_WEIGHTS[::2] == 0.0)
    for k in range(32):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert np.sum(_K21_WEIGHTS * _GK21_NODES**k) == pytest.approx(exact, abs=1e-15)
        if k < 20:
            assert np.sum(_G10_WEIGHTS * _GK21_NODES**k) == pytest.approx(exact, abs=1e-15)
    assert abs(np.sum(_G10_WEIGHTS * _GK21_NODES**20) - 2.0 / 21.0) > 1e-7


def test_gauss_kronrod_integrates_smooth_and_kinked_functions():
    value, err = gauss_kronrod(np.exp, [0.0, 1.0], 200)
    assert value == pytest.approx(np.e - 1.0, rel=1e-15) and err < 1e-13
    kink = CountingFn(lambda x: np.abs(x - 1.0 / 3.0))
    # a cut on the kink is one round of two cells; without it the rule
    # bisects towards the kink, evaluating every new half in one call
    value, err = gauss_kronrod(kink, [0.0, 1.0 / 3.0, 1.0], 200)
    assert value == pytest.approx(5.0 / 18.0, rel=1e-15) and kink.calls == 1
    kink.calls = 0
    value, err = gauss_kronrod(kink, [0.0, 1.0], 200)
    assert abs(value - 5.0 / 18.0) <= err <= 1e-10 * value
    assert 1 < kink.calls < 40


def test_gauss_kronrod_raises_instead_of_returning_an_unconverged_value():
    wavy = lambda x: np.abs(np.sin(1000.0 * x))  # noqa: E731
    with pytest.raises(QuadratureError, match="no convergence within 200 intervals"):
        gauss_kronrod(wavy, [0.0, 1.0], 200)
    with pytest.raises(QuadratureError, match="3 cells exceed the limit of 2"):
        gauss_kronrod(np.exp, [0.0, 0.25, 0.5, 1.0], 2)
    with pytest.raises(QuadratureError, match="not finite"), np.errstate(divide="ignore",
                                                                        invalid="ignore"):
        gauss_kronrod(lambda x: np.log(x - 0.5), [0.0, 1.0], 200)
    # a pole that is not integrable: the halves around it shrink to nothing
    with pytest.raises(QuadratureError, match="too narrow"):
        gauss_kronrod(lambda x: 1.0 / np.abs(x - np.pi / 4.0), [0.0, 1.0], 10**6)
