"""Grid suprema and sign-change brackets."""

import numpy as np
import pytest
import scipy.optimize

from hardyshift.carleson import SeriesGapDensity
from hardyshift.construction import _decay_grid, curvature_density, lemma_bounds
from hardyshift.grids import (
    RootNotConvergedError,
    boundary_refined_grid,
    brentq,
    refined_supremum,
    sign_change_brackets,
)
from hardyshift.series import edge_bump
from hardyshift.spectral import kernel_ratio_series


def _bump_fns(n: int):
    lap = edge_bump(n).laplacian()
    grad = edge_bump(n).grad_sq()
    return (lambda r: np.abs(lap.eval(r * r)) * (1.0 - r) ** 2,
            lambda r: np.abs(grad.eval(r * r)) * (1.0 - r) ** 2)


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
        _, value = refined_supremum(fn, _decay_grid([n], 701, 45.0))
        dense_max = max(float(np.max(fn(chunk))) for chunk in np.array_split(dense, 8))
        assert value >= dense_max - 1e-12


# sup_laplacian and sup_grad_sq of lemma_bounds as computed by the earlier
# per-bracket scalar polish (scipy minimize_scalar, xatol 1e-13)
SCALAR_POLISH_VALUES = {
    1: (1.0, 0.029944361507758227),
    3: (0.07873240261500201, 0.002879521992491334),
    34: (0.004502551043498621, 2.08333459707263e-05),
    117: (0.0012684762361943594, 1.7483847599321684e-06),
    910: (0.00016128216355749923, 2.883599673810272e-08),
    2250: (6.516569610294687e-05, 4.715904556593118e-09),
}


@pytest.mark.parametrize("n", sorted(SCALAR_POLISH_VALUES))
def test_lemma_suprema_match_scalar_polish(n):
    sup_lap, sup_grad = SCALAR_POLISH_VALUES[n]
    rep = lemma_bounds(n)
    assert rep.sup_laplacian == pytest.approx(sup_lap, rel=1e-8)
    assert rep.sup_grad_sq == pytest.approx(sup_grad, rel=1e-8)
    # the batched polish samples more points near each peak, so it never
    # ends below the scalar one by more than rounding
    assert rep.sup_laplacian >= sup_lap * (1.0 - 1e-14)
    assert rep.sup_grad_sq >= sup_grad * (1.0 - 1e-14)


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
        refined_supremum(fn, _decay_grid([n], 701, 45.0))
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


XTOL = 1e-15  # the tolerance of SeriesGapDensity.sign_roots


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


def _scalar_brackets(series, widen: int = 0):
    """Scan-grid sign-change brackets of a series under scalar evaluation,
    each widened by `widen` grid cells on both sides where that keeps the
    sign change."""
    grid = SeriesGapDensity(series, 0)._root_scan_grid()
    vals = series.eval(grid)

    def f(s):
        return float(series.eval(s))

    out = []
    for lo, hi in sign_change_brackets(vals, grid):
        i = int(np.searchsorted(grid, lo))
        lo, hi = float(grid[max(i - widen, 0)]), float(grid[min(i + 1 + widen, len(grid) - 1)])
        flo, fhi = f(lo), f(hi)
        if flo != 0.0 and fhi != 0.0 and (flo < 0.0) != (fhi < 0.0):
            out.append((f, lo, hi))
    return out


def test_brentq_matches_scipy_on_bump_brackets():
    cases = []
    for n in (10, 2248, 172510):
        bump = edge_bump(n)
        for series in (bump.d_ds(), bump.laplacian()):
            for widen in (0, 3, 20):
                cases += _scalar_brackets(series, widen)
    assert len(cases) >= 12
    for f, lo, hi in cases:
        (root, seen), (ref_root, ref_seen) = _brent_runs(f, lo, hi)
        assert root == ref_root
        assert seen == ref_seen


def test_brentq_matches_scipy_on_curvature_numerator(standard_config):
    # the curvature density's cuts: many sign changes of a long series
    w = standard_config.weights()
    f = kernel_ratio_series(w, r_max=standard_config.r_max, tol=standard_config.tol)
    dp = f.derivative
    numerator = f.multiply(f.laplacian()).add(dp.multiply(dp).shift(1).scale(-1.0))
    assert len(curvature_density(f, w.spikes).breakpoints) > 0
    cases = _scalar_brackets(numerator) + _scalar_brackets(numerator, 4)
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
