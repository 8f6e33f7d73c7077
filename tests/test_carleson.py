"""Edge integrals, window measures, and the depth scan."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

from hardyshift import (
    ConstructionConfig,
    RadialDensity,
    carleson_norm,
    dyadic_t_grid,
    edge_integral,
    edge_integral_exact,
    edge_integral_partial,
    radial_carleson_norm,
    window_measure,
    window_quotient,
)
from hardyshift.carleson import TWO_PI, QuadratureError, SeriesGapDensity
from hardyshift.construction import curvature_density
from hardyshift.series import RadialSeries, edge_bump
from hardyshift.spectral import kernel_ratio_series


def binomial_expansion_integral(m: int, p: int) -> Fraction:
    # independent route: expand (1-r)^p and integrate termwise, exactly
    return sum(
        Fraction((-1) ** j * math.comb(p, j), m + j + 1) for j in range(p + 1)
    )


# ---------------------------------------------------------------------- #
# edge integrals


def test_edge_integral_exact_frozen_values():
    assert edge_integral_exact(1, 1) == Fraction(1, 6)
    assert edge_integral_exact(3, 2) == Fraction(1, 60)
    assert edge_integral_exact(0, 0) == 1


def test_edge_integral_exact_matches_binomial_expansion():
    for m in (0, 1, 7, 40):
        for p in (0, 1, 2, 3, 5):
            assert edge_integral_exact(m, p) == binomial_expansion_integral(m, p)


def test_edge_integral_matches_adaptive_quadrature():
    for m, p in ((1, 1), (199, 2), (1999, 3)):
        crit = m / (m + p)
        oracle, err = quad(lambda r: r**m * (1.0 - r) ** p, 0.0, 1.0,
                           points=[crit], epsabs=0.0, epsrel=1e-13, limit=300)
        assert edge_integral(m, p) == pytest.approx(oracle, rel=1e-10)


def test_float_binomial_sum_cancels_where_exact_route_does_not():
    # the naive alternating sum loses most digits once m is large; the
    # closed form stays exact, which is why full-interval window pieces
    # go through rational arithmetic
    m, p = 2 * 10**5 - 1, 3
    naive = sum((-1) ** j * math.comb(p, j) / (m + j + 1) for j in range(p + 1))
    exact = float(edge_integral_exact(m, p))
    assert abs(naive - exact) / exact > 1e-3
    assert abs(edge_integral(m, p) - exact) / exact < 1e-12


def test_edge_integral_partial_matches_quadrature():
    for m, p, r in ((3, 1, 0.5), (60, 2, 0.97), (500, 3, 0.999)):
        oracle, _ = quad(lambda x: x**m * (1.0 - x) ** p, 0.0, r,
                         epsabs=1e-16, epsrel=1e-12, limit=200)
        assert edge_integral_partial(m, p, r) == pytest.approx(oracle, rel=1e-9)
    assert edge_integral_partial(5, 2, 1.0) == pytest.approx(edge_integral(5, 2), rel=1e-14)
    assert edge_integral_partial(5, 2, 0.0) == 0.0


# ---------------------------------------------------------------------- #
# windows and the scan


def area_density() -> RadialDensity:
    return RadialDensity(lambda r: np.ones_like(np.asarray(r, dtype=float)), label="area")


def test_window_measure_of_area_density():
    d = area_density()
    # full depth: 2 pi * int_0^1 r dr = pi
    assert window_measure(d, 1.0) == pytest.approx(math.pi, rel=1e-12)
    # shallow windows: 2 pi (t - t^2/2), so the quotient tends to 2 pi
    t = 2.0**-20
    assert window_quotient(d, t) == pytest.approx(TWO_PI * (1.0 - t / 2.0), rel=1e-10)


def test_window_measure_monotone_in_depth():
    lap = edge_bump(12).laplacian()
    d = SeriesGapDensity(lap, 1)
    depths = [2.0**-j for j in range(8, -1, -1)]
    values = [window_measure(d, t) for t in depths]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_window_validation():
    d = area_density()
    for t in (0.0, 1.5, -0.5, math.nan):
        with pytest.raises(ValueError):
            window_measure(d, t)


def test_carleson_norm_homogeneous_in_the_density():
    lap = edge_bump(9).laplacian()
    base = SeriesGapDensity(lap, 1)
    # power-of-two scaling commutes with every float operation exactly
    scaled_exact = SeriesGapDensity(lap.scale(4.0), 1)
    assert carleson_norm(scaled_exact).value == 4.0 * carleson_norm(base).value
    assert radial_carleson_norm(scaled_exact) == 4.0 * radial_carleson_norm(base)
    # generic densities go through adaptive quadrature instead
    scaled_quad = RadialDensity(lambda r: 4.0 * base.rho(r), breakpoints=base.sign_roots)
    assert radial_carleson_norm(scaled_quad) == pytest.approx(
        4.0 * radial_carleson_norm(base), rel=1e-9)


def test_dyadic_grid_shape():
    grid = dyadic_t_grid(10)
    assert grid[0] == 1.0
    assert grid[-1] == 2.0**-10
    assert np.all(np.diff(grid) < 0)


def test_sign_roots_of_bump_laplacian():
    # Delta(s^n (1-s)) = s^{n-1} (n^2 - (n+1)^2 s) vanishes at s = (n/(n+1))^2,
    # i.e. at radius n/(n+1)
    for n in (3, 11, 64):
        lap = edge_bump(n).laplacian()
        roots = SeriesGapDensity(lap, 1).sign_roots
        assert len(roots) == 1
        assert roots[0] == pytest.approx(n / (n + 1.0), rel=1e-12)


def test_sign_roots_ignore_underflowed_zeros():
    # for large n the scan values s^{n-1} (n^2 - (n+1)^2 s) underflow to
    # exactly 0 over the inner part of the grid; those zeros are not roots
    for n, mass in ((2248, 0.0007561360409536338),
                    (20000, 8.502872112730622e-05),
                    (172510, 9.858337829544026e-06)):
        d = SeriesGapDensity(edge_bump(n).laplacian(), 1)
        assert len(d.sign_roots) == 1
        assert d.sign_roots[0] == pytest.approx(n / (n + 1.0), rel=1e-12)
        # the same bits as when every underflowed zero was also a cut
        assert radial_carleson_norm(d) == mass


def test_sign_roots_keep_grid_points_on_a_root():
    # s - 1/2 vanishes exactly on the scan grid point s = 1/2
    d = SeriesGapDensity(RadialSeries.from_terms([(0, -0.5), (1, 1.0)]), 0)
    assert 0.5 in d._root_scan_grid()
    assert d.sign_roots == (math.sqrt(0.5),)


@pytest.mark.parametrize("j", [15, 22, 33])  # t = 3.1e-5, 2.4e-7, 1.2e-10
def test_deep_window_masses_match_exact_rationals(j):
    # integral_{1-t}^1 of r^m (1 - r) taken as the difference of two
    # integrals from 0 lost every digit once t <= 1.2e-10 (it read 0.0)
    t = 2.0**-j
    d = SeriesGapDensity(edge_bump(40).laplacian(), 1)
    assert max(d.sign_roots) < 1.0 - t  # one sign on the whole window
    a = Fraction(1.0 - t)
    exact = Fraction(0)
    for e, c in zip(d.series.exponents, d.series.coeffs):
        m = 2 * int(e) + 1  # integral_a^1 r^m (1 - r) dr
        exact += Fraction(float(c)) * (Fraction(1, (m + 1) * (m + 2))
                                       - a ** (m + 1) / (m + 1) + a ** (m + 2) / (m + 2))
    assert d.window_integral(1.0 - t, 1.0) == pytest.approx(float(abs(exact)), rel=1e-12)
    quotient = carleson_norm(d, t_grid=[t]).quotients[0]
    assert quotient == pytest.approx(TWO_PI * float(abs(exact)) / t, rel=1e-12)


def test_split_integration_handles_the_sign_change():
    # |Delta psi| mass must exceed the unsplit signed integral in magnitude
    n = 5
    lap = edge_bump(n).laplacian()
    d = SeriesGapDensity(lap, 1)
    signed, _ = quad(lambda r: lap.eval(r * r) * (1.0 - r) * r, 0.0, 1.0,
                     points=[n / (n + 1.0)], limit=100)
    total = radial_carleson_norm(d)
    assert total > TWO_PI * abs(signed) + 0.01


def test_scan_reports_plateau_while_unit_depth_mass_decays():
    # the depth scan hovers near a constant for every bump power: shrinking
    # windows concentrate on the peak, so the quotient does not decay; the
    # decaying certificate is the full-depth mass, which the scan reports
    # separately
    shallow = carleson_norm(SeriesGapDensity(edge_bump(100).laplacian(), 1))
    deep = carleson_norm(SeriesGapDensity(edge_bump(10000).laplacian(), 1))
    assert shallow.value > 1.0
    assert deep.value > 1.0
    assert deep.at_unit_depth < shallow.at_unit_depth / 50.0
    assert shallow.at_unit_depth == pytest.approx(
        radial_carleson_norm(SeriesGapDensity(edge_bump(100).laplacian(), 1)), rel=1e-12)


def test_scan_value_is_supremum_of_quotients():
    d = SeriesGapDensity(edge_bump(6).laplacian(), 1)
    scan = carleson_norm(d, t_grid=[1.0, 0.5, 0.25])
    quotients = [window_quotient(d, t) for t in (1.0, 0.5, 0.25)]
    assert scan.value == pytest.approx(max(quotients), rel=1e-12)
    assert scan.t_star in (1.0, 0.5, 0.25)


def test_window_integral_raises_when_quadrature_does_not_converge():
    # |sin(1000 r)| has about 318 kinks in [0, 1], more than the 200
    # subdivisions quad may use, so it cannot reach its tolerance
    d = RadialDensity(lambda r: np.abs(np.sin(1000.0 * np.asarray(r))), label="oscillating")
    with pytest.raises(QuadratureError, match="oscillating"):
        d.window_integral(0.0, 1.0)
    with pytest.raises(QuadratureError):
        carleson_norm(d, t_grid=[1.0])


# ---------------------------------------------------------------------- #
# the nested depth scan


def bump_densities(n: int = 40) -> tuple[SeriesGapDensity, RadialDensity]:
    """The |Delta psi| (1 - r) density of the bump s^n (1 - s), exact and by quad."""
    exact = SeriesGapDensity(edge_bump(n).laplacian(), 1)
    return exact, RadialDensity(exact.rho, breakpoints=exact.sign_roots, label="bump")


def test_nested_scan_matches_per_window_quotients():
    exact, by_quad = bump_densities()
    depths = dyadic_t_grid()
    scan = carleson_norm(by_quad)
    assert scan.depths == tuple(depths)
    for t, q in zip(depths, scan.quotients):
        assert q == pytest.approx(window_quotient(by_quad, t), rel=1e-9)
    # series densities keep one exact sum per window
    assert carleson_norm(exact).quotients == tuple(window_quotient(exact, t) for t in depths)


def test_scan_unit_depth_is_the_radial_norm_bit_for_bit():
    for d in (*bump_densities(), area_density()):
        for grid in (None, [0.5, 0.25], [0.25, 1.0, 0.5]):
            assert carleson_norm(d, t_grid=grid).at_unit_depth == radial_carleson_norm(d)


@pytest.mark.parametrize("grid", [
    [0.25, 1.0, 2.0**-10, 0.25, 0.5],  # unsorted, with a duplicate
    [0.125, 2.0**-20, 0.5, 0.125],     # no depth one
    [1.0, 1.0],
    [2.0**-30],
])
def test_scan_of_any_depth_grid_matches_per_window(grid):
    exact, by_quad = bump_densities()
    for d, rel in ((exact, 0.0), (by_quad, 1e-9)):
        scan = carleson_norm(d, t_grid=grid)
        assert scan.depths == tuple(grid)
        per_window = [window_quotient(d, t) for t in grid]
        assert scan.quotients == pytest.approx(per_window, rel=rel, abs=0.0)
        i = int(np.argmax(scan.quotients))
        assert (scan.value, scan.t_star) == (scan.quotients[i], grid[i])
        # a repeated depth gets the same value wherever it appears
        assert len({(t, q) for t, q in zip(scan.depths, scan.quotients)}) == len(set(grid))


@pytest.mark.parametrize("grid", [[], [0.0], [1.5], [-0.5], [0.5, 0.0], [float("nan")]])
def test_scan_rejects_depths_outside_the_unit_interval(grid):
    for d in bump_densities():
        with pytest.raises(ValueError):
            carleson_norm(d, t_grid=grid)


def test_curvature_scan_integrates_each_shell_once(standard_config):
    # nested windows share everything near r = 1, where the spike mass sits;
    # integrating each one from scratch cost 8x one [0, 1] integral at K = 3
    w = standard_config.weights()
    f = kernel_ratio_series(w, r_max=standard_config.r_max, tol=standard_config.tol)
    density = curvature_density(f, w.spikes)
    calls = [0]

    def counted(r):
        calls[0] += 1
        return density.rho(r)

    counting = RadialDensity(counted, breakpoints=density.breakpoints)
    mass = radial_carleson_norm(counting)
    one_integral = calls[0]
    scan = carleson_norm(counting)
    assert scan.at_unit_depth == mass
    assert calls[0] - one_integral <= 6 * one_integral


# ---------------------------------------------------------------------- #
# vectorized window pieces against the per-monomial reference


def per_term_piece(d: SeriesGapDensity, a: float, b: float) -> float:
    """Signed integral of G(r^2) r (1-r)^p over [a, b], one scalar betainc per monomial."""
    p = d.gap_power
    total = 0.0
    for e, c in zip(d.series.exponents, d.series.coeffs):
        m = 2 * int(e) + 1
        if b == 1.0:
            piece = float(edge_integral_exact(m, p)) * float(betainc(p + 1, m + 1, 1.0 - a))
        else:
            piece = edge_integral_partial(m, p, b) - edge_integral_partial(m, p, a)
        total += float(c) * piece
    return total


def piece_windows(d: SeriesGapDensity) -> list[tuple[float, float]]:
    """Windows with a = 0, with b = 1 and interior ones, around the sign roots."""
    cuts = [0.0, *d.sign_roots, 1.0]
    windows = list(zip(cuts, cuts[1:]))
    r0 = d.sign_roots[0]
    gap = 1.0 - r0
    windows += [(0.0, 0.5), (0.0, 1.0 - 4.0 * gap), (1.0 - 2.0**-30, 1.0), (0.5, 1.0),
                (1.0 - 4.0 * gap, r0), (r0, 1.0 - gap / 4.0), (0.25, 0.75)]
    return [(a, b) for a, b in windows if (a, b) != (0.0, 1.0)]


@pytest.mark.parametrize("n", [10, 2248, 172510])
def test_signed_piece_is_bit_equal_to_per_term_sum_on_bumps(n):
    d = SeriesGapDensity(edge_bump(n).laplacian(), 1)
    for a, b in piece_windows(d):
        assert d._signed_piece(a, b).hex() == per_term_piece(d, a, b).hex(), (a, b)


def test_signed_piece_is_bit_equal_to_per_term_sum_on_ratio_laplacian():
    starts = (3, 32, 117, 343, 906, 2248, 5368, 12479)
    config = ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=8, spike_starts=starts)
    f = kernel_ratio_series(config.weights(), r_max=config.r_max, tol=config.tol)
    d = SeriesGapDensity(f.add(RadialSeries.from_terms([(0, -1.0)])).laplacian(), 1)
    assert len(d.sign_roots) > 2
    windows = piece_windows(d) + [(1.0 - t, 1.0) for t in dyadic_t_grid()[1:]]
    for a, b in windows:
        assert d._signed_piece(a, b).hex() == per_term_piece(d, a, b).hex(), (a, b)
