"""Edge integrals, window integrals, and the depth scan."""

import math
import warnings
from fractions import Fraction
from unittest import mock

import bump_oracles
import fraction_oracles
import mpmath
import numpy as np
import pytest
import runs_oracles
from conftest import K16_STARTS, SMALL_DELTA_K8, spiked_layouts
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc
from scan_oracles import full_scan
from series_oracles import edge_bump, kernel_ratio
from theorem_oracles import curvature_density, peak_hints

from hardyshift import (
    ConstructionConfig,
    RadialDensity,
    build_spiked_weights,
    edge_integral_exact,
    radial_carleson_norm,
)
from hardyshift import carleson
from hardyshift.carleson import (_TINY, TWO_PI, SeriesGapDensity, _block, _block_density, _runs,
                                 _slope, block_supremum, carleson_norm, dyadic_t_grid,
                                 gradient_sq_mass, tail_ratio, term_decay)
from hardyshift.construction import verify_f_conditions
from hardyshift.grids import QuadratureError, _root_scan_grid, sign_roots
from hardyshift.search import MAX_POWER, Terms, _integer_coefficients, spike_ratio_term
from hardyshift.series import RadialSeries
from hardyshift.spectral import kernel_ratio_series
from hardyshift.weights import SpikeSpec


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
        assert float(edge_integral_exact(m, p)) == pytest.approx(oracle, rel=1e-10)


def test_float_binomial_sum_cancels_where_exact_route_does_not():
    # the naive alternating sum loses most digits once m is large; the
    # closed form stays exact, which is why full-interval window pieces
    # go through rational arithmetic
    m, p = 2 * 10**5 - 1, 3
    naive = sum((-1) ** j * math.comb(p, j) / (m + j + 1) for j in range(p + 1))
    exact = float(edge_integral_exact(m, p))
    assert abs(naive - exact) / exact > 1e-3


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, MAX_POWER - 1))
@example(n=1)
@example(n=MAX_POWER - 1)
def test_bump_gradient_mass_decreases_in_the_power(n):
    # the mass is about pi / (16 n^2), so one step in n moves it by about
    # 2/n relative, above rounding across the whole search range
    assert gradient_sq_mass(edge_bump(n + 1)) < gradient_sq_mass(edge_bump(n))


# ---------------------------------------------------------------------- #
# windows and the scan


def area_density() -> RadialDensity:
    return RadialDensity(lambda r: np.ones_like(np.asarray(r, dtype=float)), label="area")


def per_window_quotient(d: RadialDensity, t: float) -> float:
    """Full-circle mass of the window of depth t, divided by t."""
    return TWO_PI * d.window_integral(1.0 - t, 1.0) / t


def test_window_measure_of_area_density():
    d = area_density()
    # full depth: 2 pi * int_0^1 r dr = pi
    assert radial_carleson_norm(d) == pytest.approx(math.pi, rel=1e-12)
    # shallow windows: 2 pi (t - t^2/2), so the quotient tends to 2 pi
    t = 2.0**-20
    assert per_window_quotient(d, t) == pytest.approx(TWO_PI * (1.0 - t / 2.0), rel=1e-10)


def test_window_measure_monotone_in_depth():
    lap = edge_bump(12).laplacian()
    d = SeriesGapDensity(lap, 1)
    depths = [2.0**-j for j in range(8, -1, -1)]
    values = [d.window_integral(1.0 - t, 1.0) for t in depths]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_window_validation():
    for d in (area_density(), SeriesGapDensity(edge_bump(12).laplacian(), 1)):
        for a, b in ((-0.5, 1.0), (0.0, 1.5), (0.75, 0.5), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                d.window_integral(a, b)


def test_carleson_norm_homogeneous_in_the_density():
    lap = edge_bump(9).laplacian()
    base = SeriesGapDensity(lap, 1)
    # power-of-two scaling commutes with every float operation exactly
    scaled_exact = SeriesGapDensity(RadialSeries(lap.exponents, 4.0 * lap.coeffs), 1)
    assert carleson_norm(scaled_exact).value == 4.0 * carleson_norm(base).value
    assert radial_carleson_norm(scaled_exact) == 4.0 * radial_carleson_norm(base)
    # generic densities go through adaptive quadrature instead
    scaled_quad = RadialDensity(lambda r: 4.0 * base.rho(r), breakpoints=base.sign_roots)
    assert radial_carleson_norm(scaled_quad) == pytest.approx(
        4.0 * radial_carleson_norm(base), rel=1e-9)


def test_dyadic_grid_shape():
    grid = dyadic_t_grid()
    assert len(grid) == 41
    assert grid[0] == 1.0
    assert grid[-1] == 2.0**-40
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
    for n, mass in ((2248, 0.0007561360409533289),
                    (20000, 8.502872112720804e-05),
                    (172510, 9.858337831389568e-06)):
        d = SeriesGapDensity(edge_bump(n).laplacian(), 1)
        assert len(d.sign_roots) == 1
        assert d.sign_roots[0] == pytest.approx(n / (n + 1.0), rel=1e-12)
        # the same bits as when every underflowed zero was also a cut, and
        # within 1e-15 of the closed form
        assert radial_carleson_norm(d) == mass
        exact = bump_oracles.laplacian_mass(n)
        assert abs(mass - exact) <= 1e-15 * exact, n


def test_sign_roots_keep_grid_points_on_a_root():
    # s - 1/2 vanishes exactly on the scan grid point s = 1/2
    series = RadialSeries.from_terms([(0, -0.5), (1, 1.0)])
    assert 0.5 in _root_scan_grid(series.exponents)
    assert sign_roots(series.eval, series.exponents) == (math.sqrt(0.5),)
    assert SeriesGapDensity(series, 0).sign_roots == (math.sqrt(0.5),)


def test_sign_roots_ignore_subnormal_values():
    # n^2 s^{n-1} - (n+1)^2 s^n has its one sign change at r = n/(n+1); where
    # s^n is subnormal its rounding flipped signs and made a second root
    # (at r = 0.97764 for n = 16419, where s^n is about 1e-322)
    rng = np.random.default_rng(0)
    for n in [16419, *np.exp(rng.uniform(math.log(1e3), math.log(1e7), 30)).astype(int).tolist()]:
        roots = SeriesGapDensity(edge_bump(n).laplacian(), 1).sign_roots
        assert len(roots) == 1, n
        assert roots[0] == pytest.approx(n / (n + 1.0), rel=1e-12)


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
    quotient = carleson_norm(d).quotients[j]
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
    scan = carleson_norm(d)
    quotients = [per_window_quotient(d, t) for t in dyadic_t_grid()]
    assert scan.value == pytest.approx(max(quotients), rel=1e-12)
    assert scan.t_star == dyadic_t_grid()[int(np.argmax(quotients))]


def test_window_integral_raises_when_quadrature_does_not_converge():
    # |sin(1000 r)| has about 318 kinks in [0, 1], more than the 200
    # subdivisions quad may use, so it cannot reach its tolerance
    d = RadialDensity(lambda r: np.abs(np.sin(1000.0 * np.asarray(r))), label="oscillating")
    with pytest.raises(QuadratureError, match="oscillating"):
        d.window_integral(0.0, 1.0)
    with pytest.raises(QuadratureError):
        carleson_norm(d)


# ---------------------------------------------------------------------- #
# the depth scan, a diagnostic


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
        assert q == pytest.approx(per_window_quotient(by_quad, t), rel=1e-9)
    # series densities keep one exact sum per window
    assert carleson_norm(exact).quotients == tuple(per_window_quotient(exact, t) for t in depths)


def test_scan_unit_depth_is_the_radial_norm_bit_for_bit():
    for d in (*bump_densities(), area_density()):
        assert carleson_norm(d).at_unit_depth == radial_carleson_norm(d)


# ---------------------------------------------------------------------- #
# incomplete beta ratios with integer parameters


BETA_POWERS = (3, 10, 101, 4497, 344621, 10**7 + 1, 2 * 10**9 + 1)
# the expm1 form of tail_ratio loses about (m+1) t / I_t(p+1, m+1) in
# relative accuracy just above its switch at (m+1) t = 1/2: about 5.5,
# 35 and 285 for p = 1, 2, 3
TAIL_REL = {0: 1e-15, 1: 4e-15, 2: 2e-14, 3: 2e-13}


def beta_points(m: int) -> list[float]:
    """t from 2^-40 to 0.999, and just on either side of (m+1) t = 1/2."""
    ts = [2.0**-40, 2.0**-20, 1e-7, 1e-4, 0.01, 0.3, 0.999]
    ts += [f * 0.5 / (m + 1) for f in (0.5, 0.999, 1.001, 2.0)]
    return [t for t in ts if 0.0 < t < 1.0]


def mp_tail_ratio(m: int, p: int, t: float):
    """I_t(p+1, m+1) from its finite sum, to 60 digits after the
    cancellation (at most about 200 digits here)."""
    with mpmath.workdps(260):
        t = mpmath.mpf(t)
        return 1 - (1 - t) ** (m + 1) * sum(mpmath.binomial(m + j, j) * t**j for j in range(p + 1))


def rel_err(got: float, ref) -> float:
    if ref < 2.0**-1000:  # underflows in float
        return 0.0 if abs(got) < 2.0**-1000 else 1.0
    return float(abs((got - ref) / ref))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_beta_ratios_match_mpmath(p):
    sides = set()
    for m in BETA_POWERS:
        for t in beta_points(m):
            sides.add((m + 1.0) * t < 0.5)
            ratio = tail_ratio(m, p, t)
            assert rel_err(ratio, mp_tail_ratio(m, p, t)) <= TAIL_REL[p], (m, t)
    assert sides == {True, False}


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_beta_ratios_match_scipy(p):
    for m in BETA_POWERS:
        ts = beta_points(m)
        assert [tail_ratio(m, p, t) for t in ts] == pytest.approx(
            betainc(p + 1, m + 1, np.array(ts)), rel=1e-13, abs=1e-300)


def test_beta_ratio_edges():
    for m in (1, 3, 4497, 2 * 10**9 + 1):
        assert tail_ratio(m, 1, 0.0) == 0.0 and tail_ratio(m, 1, 1.0) == 1.0


def test_tail_ratio_ends_are_exact_at_every_power():
    # C(m+p, p) t^p overflowed at t = 1 once m ~ 1e11 and p ~ 25, and the
    # share read NaN instead of 1
    ms = (1, 3, 2**20 + 1, 2**32 + 1, 10**11 + 1, 2**41 + 1)
    for p in range(128):
        assert [tail_ratio(m, p, 1.0) for m in ms] == [1.0] * len(ms), p
        assert [tail_ratio(m, p, 0.0) for m in ms] == [0.0] * len(ms), p


def test_tail_ratio_raises_nothing_at_the_ends_of_its_range():
    # math raises where numpy returned inf, 0 or NaN: log1p(-1), an exp or
    # pow that overflows; every share here is a float in [0, 1]
    for m in (0, 1, 2**20 + 1, 2**41, 2**41 + 1):
        for p in (0, 1, 2, 40, 127, 130):
            for t in (0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    ratio = tail_ratio(m, p, t)
                assert 0.0 <= ratio <= 1.0, (m, p, t)


def test_tail_ratio_is_one_where_its_rising_sum_overflows():
    # the expm1 form read -inf at these points, where the rising sum
    # overflows; the complement 1 - I_t(p+1, m+1) is below 2^-15616 there
    for m, p, t in ((10**12 + 1, 40, 0.5), (5 * 10**9, 95, 0.1), (2 * 10**12 + 1, 127, 0.3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tail_ratio(m, p, t) == 1.0, (m, p, t)
        with mpmath.workdps(30):
            x = mpmath.mpf(t)
            complement = (1 - x) ** (m + 1) * mpmath.fsum(mpmath.binomial(m + j, j) * x ** j
                                                          for j in range(p + 1))
        assert complement < mpmath.mpf(2) ** -15616, (m, p, t)


@pytest.mark.parametrize("p", [40, 60, 100, 127])
def test_tail_ratio_small_branch_at_large_powers(p):
    # (m+p+1) C(m+p, p) overflows while t^{p+1} underflows: the small branch
    # read NaN here, and 0.0 where only t^{p+1} left the normal range
    for m in (10**12 + 1, 2**41 + 1):
        for t in (f / (m + 1) for f in (0.499, 0.25, 0.1, 0.01, 1e-3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ratio = tail_ratio(m, p, t)
            with mpmath.workdps(60):
                exact = mpmath.betainc(p + 1, m + 1, 0, t, regularized=True)
            assert rel_err(ratio, exact) <= 3e-15, (m, t)
    assert tail_ratio(10**12 + 1, 25, 1e-13) > 0.0


# ---------------------------------------------------------------------- #
# the curvature quadrature's cuts against the expanded numerator


def assert_cuts_match_expanded_numerator(w, f, ulps: int) -> None:
    """curvature_density's sign cuts lie within `ulps` of the sign roots of
    f Delta f - s f'^2 expanded into one series, the reference route."""
    dp = f.derivative
    minus_dp = RadialSeries(dp.exponents, -dp.coeffs)
    numerator = f.multiply(f.laplacian()).add(dp.multiply(minus_dp).shift(1))
    ref = np.array(SeriesGapDensity(numerator, 0).sign_roots)
    hints = set(peak_hints(w.spikes))
    cuts = np.array([b for b in curvature_density(f, w.spikes).breakpoints if b not in hints])
    assert len(cuts) == len(ref)
    assert np.all(np.abs(cuts - ref) <= ulps * np.spacing(ref)), (cuts, ref)


@pytest.mark.parametrize("delta, starts", [
    (0.5, (3, 32, 117)),
    (0.5, (3, 32, 117, 343, 906, 2248, 5368, 12479)),
    (1e-3, (2549, 16580, 59309, 172510)),
])
def test_curvature_cuts_match_expanded_numerator(delta, starts):
    config = ConstructionConfig(alpha=1.0, delta=delta, n_spikes=len(starts), spike_starts=starts)
    assert_cuts_match_expanded_numerator(config.weights(), kernel_ratio(config), 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(w=spiked_layouts())
@example(w=build_spiked_weights(2.3046875, (5, 13, 41, 71)))
def test_curvature_cuts_match_expanded_numerator_on_random_layouts(w):
    # each route rounds its own way, and a root where the numerator's slope
    # is of order one moves by ulps in each: in the example the two routes
    # are 19 ulps apart, 6 and 13 ulps either side of a 60-digit mpmath
    # root; 4000 random layouts stayed within 24 ulps
    assert_cuts_match_expanded_numerator(w, kernel_ratio_series(w), 64)


# ---------------------------------------------------------------------- #
# the curvature quadrature against scipy


@pytest.mark.parametrize("delta, starts", [
    (0.5, (3, 32, 117, 343, 906, 2248, 5368, 12479)),
    (1e-3, (2549, 16580, 59309, 172510)),
])
def test_curvature_shells_match_scipy_quad(delta, starts):
    config = ConstructionConfig(alpha=1.0, delta=delta, n_spikes=len(starts), spike_starts=starts)
    w = config.weights()
    density = curvature_density(kernel_ratio_series(w, r_max=config.r_max, tol=config.tol),
                                w.spikes)
    edges = [0.0, *(1.0 - dyadic_t_grid()[1:]), 1.0]  # the scan's shells, and [0, 1]
    windows = [(0.0, 1.0), *zip(edges[1:-1], edges[2:])]
    errors = []
    for a, b in windows:
        value = density.window_integral(a, b, errors)
        pts = [x for x in density.breakpoints if a < x < b]
        oracle, oracle_err = quad(lambda r: float(density.rho(np.asarray([r]))[0]) * r, a, b,
                                  points=pts or None, limit=200 + 20 * len(pts),
                                  epsabs=1e-13, epsrel=1e-10)
        # both estimates, plus the rounding noise of Delta log f, whose
        # numerator f Delta f - |grad f|^2 cancels: one-point and batched
        # evaluations differ by up to about 1e-13 relative
        assert abs(value - oracle) <= errors[-1] + oracle_err + 1e-12 * oracle, (a, b)
        assert errors[-1] <= max(1e-13, 1e-10 * value)


# ---------------------------------------------------------------------- #
# window pieces against mpmath


def mp_window_mass(d: SeriesGapDensity, a: float, b: float):
    """integral_a^b |G(r^2)| (1-r)^p r dr at 80 digits for the float
    coefficients of G, from each monomial's antiderivative, split at the
    density's own sign roots (an error there is second order)."""
    p = d.gap_power
    with mpmath.workdps(80):
        terms = [(int(e), mpmath.mpf(float(c)))
                 for e, c in zip(d.series.exponents, d.series.coeffs)]

        def antiderivative(x: float):
            r = mpmath.mpf(x)  # r^{2e+1} (1-r)^p = sum_i (-1)^i C(p, i) r^{2e+1+i}
            return mpmath.fsum(c * (-1) ** i * math.comb(p, i) * r ** (2 * e + 2 + i)
                               / (2 * e + 2 + i) for e, c in terms for i in range(p + 1))

        values = [antiderivative(x) for x in (a, *(x for x in d.sign_roots if a < x < b), b)]
        return mpmath.fsum(abs(y - x) for x, y in zip(values, values[1:]))


def piece_windows(d: SeriesGapDensity) -> list[tuple[float, float]]:
    """Windows with a = 0, with b = 1 and interior ones, around the sign roots."""
    cuts = [0.0, *d.sign_roots, 1.0]
    windows = list(zip(cuts, cuts[1:]))
    r0 = d.sign_roots[0]
    gap = 1.0 - r0
    windows += [(0.0, 0.5), (0.0, 1.0 - 4.0 * gap), (1.0 - 2.0**-30, 1.0), (0.5, 1.0),
                (1.0 - 4.0 * gap, r0), (r0, 1.0 - gap / 4.0), (0.25, 0.75)]
    return [(a, b) for a, b in windows if (a, b) != (0.0, 1.0)]


def assert_windows_match_mpmath(d: SeriesGapDensity, windows) -> None:
    # a window is a difference of two block sums on [0, 1 - r]: it is exact
    # to rounding of the total mass, and a window ending at r = 1 to its own
    # rounding (deep windows of up to 3e-12 relative above it on these
    # densities, near r = 0)
    total = mp_window_mass(d, 0.0, 1.0)
    assert abs(d.window_integral(0.0, 1.0) - total) <= 1e-15 * total
    for a, b in windows:
        mass = mp_window_mass(d, a, b)
        got = d.window_integral(a, b)
        assert abs(got - mass) <= 1e-15 * total, (a, b)
        if b == 1.0:
            assert abs(got - mass) <= 1e-15 * mass, (a, b)


@pytest.mark.parametrize("n", [10, 2248, 172510])
def test_window_masses_match_mpmath_on_bumps(n):
    d = SeriesGapDensity(edge_bump(n).laplacian(), 1)
    assert_windows_match_mpmath(d, piece_windows(d))


def test_window_masses_match_mpmath_on_ratio_laplacian():
    starts = (3, 32, 117, 343, 906, 2248, 5368, 12479)
    config = ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=8, spike_starts=starts)
    f = kernel_ratio_series(config.weights(), r_max=config.r_max, tol=config.tol)
    d = SeriesGapDensity(f.add(RadialSeries.from_terms([(0, -1.0)])).laplacian(), 1)
    assert len(d.sign_roots) > 2
    assert_windows_match_mpmath(d, piece_windows(d) + [(1.0 - t, 1.0) for t in dyadic_t_grid()[1:]])


def test_masses_where_the_root_polish_meets_an_underflowing_step():
    # the Laplacian of s^1000 - 3 s^1001 + 2 s^1002 is s^999 q(s) with a
    # quadratic q; polishing its sign changes in u = 1 - r divided by zero
    # before brentq bisected there as scipy does.  Oracle: 40-digit quad
    # split at the two exact roots
    g = RadialSeries(np.array([1000, 1001, 1002]), np.array([1.0, -3.0, 2.0]))
    a, b, c = 2 * 1002 ** 2, -3 * 1001 ** 2, 1000 ** 2

    def density(r):
        s = r * r
        return abs(s ** 999 * (c + b * s + a * s * s)) * (1 - r) * r

    with mpmath.workdps(40):
        roots = sorted(mpmath.sqrt(x) for x in mpmath.polyroots([a, b, c]) if 0 < x < 1)
        cuts = [0, 0.9, 0.99, *roots, 1]
        exact = float(2 * mpmath.pi * sum(mpmath.quad(density, [x, y])
                                          for x, y in zip(cuts, cuts[1:])))
    assert len(roots) == 2
    density = SeriesGapDensity(g.laplacian(), 1)
    for mass in (term_decay(g)[3][1], radial_carleson_norm(density)):
        assert abs(mass - exact) <= 1e-15 * exact


# ---------------------------------------------------------------------- #
# suprema from the boundary blocks


@st.composite
def integer_runs(draw):
    """Terms (e, n_e) of one to three runs of consecutive exponents with
    integer coefficients, the first run starting at 0 or up to 2^20."""
    e = draw(st.one_of(st.just(0), st.integers(1, 2 ** 20)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        for n in draw(st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=1, max_size=5)):
            terms.append((e, n))
            e += 1
        e += draw(st.integers(1, 2 * e))
    return terms


# the integer terms of one spike's ratio term, by half width
SPIKE_TERMS = {h: _integer_coefficients(spike_ratio_term(1.0, SpikeSpec(h * h, h)))[0]
               for h in (8, 32, 100)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(terms=integer_runs())
@example(terms=[])
@example(terms=[(5, -7)])
@example(terms=[(0, 0), (1, 0), (2, 0), (9, 0), (10, 0)])
@example(terms=SPIKE_TERMS[8])
@example(terms=SPIKE_TERMS[32])
@example(terms=SPIKE_TERMS[100])
@example(terms=[(e - 1, e * e * n) for e, n in SPIKE_TERMS[100]])
def test_runs_match_the_binomial_expansion(terms):
    assert _runs(terms) == runs_oracles.runs(terms)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(terms=integer_runs(), p=st.integers(0, 2), r_power=st.integers(0, 1))
@example(terms=[(0, 3), (1, -5), (2, 1)], p=0, r_power=0)  # G(1) = -1: the sup is at r = 0
@example(terms=[(0, 1), (1, 1)], p=0, r_power=0)  # increasing: the sup is G(1) at r = 1
@example(terms=[(0, -3), (1, 8), (2, -4)], p=2, r_power=0)
# G' = -(100s - 76)(100s - 78)(100s - 81) / 12: a max, a min and the larger
# max at u = 0.128, 0.117 and 0.1, closer than a scan of 2 points per octave
@example(terms=[(1, 5762016), (2, -11041200), (3, 9400000), (4, -3000000)], p=0, r_power=0)
def test_block_supremum_is_never_below_the_function(terms, p, r_power):
    # on a geometric grid in u = 1 - r of 64 points per octave, four times
    # as dense as _block_roots' scan; the slack covers rounding, relative to
    # the sum of the terms' absolute values
    argmax_r, sup = block_supremum(_runs(terms), 1, p, r_power)
    assert 0.0 <= argmax_r <= 1.0
    m = np.array([2 * e + r_power for e, _ in terms], dtype=np.float64)  # (1-u)^m per term
    n = np.array([n for _, n in terms], dtype=np.float64)
    top = int(m[-1]) + 1
    u = np.geomspace(2.0 ** -30 / top, 1.0, 64 * (30 + top.bit_length()))[:, None]
    weights = np.where(u < 0.5, np.exp(m * np.log1p(-np.minimum(u, 0.5))),
                       np.power(1.0 - u, m)) * u ** p
    values = np.abs(weights @ n)
    slack = 1e-10 * (weights @ np.abs(n))
    assert np.all(sup >= values - slack)


# ---------------------------------------------------------------------- #
# the summed block densities


def test_block_density_raises_nothing_at_the_ends():
    # log1p(-1) raises in math; (1-u)^m is 0 at u = 1 for m > 0 and 1 for m = 0
    for m, at_one in ((0, 2.0), (2 ** 41, 0.0)):
        blocks = [_block(m, [3, -1], 1)]  # S(u) = 3 - u
        assert _block_density(blocks, 1.0) == at_one, m
        assert _block_density(blocks, 5e-324) == 3.0, m


def scan_grid(blocks) -> list[float]:
    """np.geomspace(2^-30 / top, 1, 16 (30 + bits of top)), the points _block_roots
    scans, top = 1 + the largest m; libm's pow and numpy's may differ in the last bit."""
    top = max(b.m for b in blocks) + 1
    return np.geomspace(2.0 ** -30 / top, 1.0, 16 * (30 + top.bit_length())).tolist()


def scanned_points(blocks) -> list[float]:
    """The points at which _block_roots evaluates the summed block densities:
    its grid points from the first one it does not skip, then brentq's."""
    seen = []
    with mock.patch.object(carleson, "_block_density",
                           lambda bl, u: seen.append(u) or _block_density(bl, u)):
        carleson._block_roots(blocks)
    return seen


def first_scanned(blocks) -> int:
    """The index in scan_grid of the first point _block_roots evaluates;
    the grid's length when it evaluates none."""
    grid, seen = scan_grid(blocks), scanned_points(blocks)
    if not seen:
        return len(grid)
    first = int(np.argmin(np.abs(np.array(grid) - seen[0])))
    assert seen[0] == pytest.approx(grid[first], rel=1e-15)
    return first


def test_block_scan_points_are_numpys_geomspace():
    # each evaluated grid point is np.geomspace's of the same index, the end
    # 1.0 exactly; the scan starts at the last point at or below u_cert, the
    # least u_b of _lowest_term_rule, or at the grid's start when the blocks'
    # lowest terms differ in sign
    top = 2 ** 21 + 2
    bump = _block(top - 1, [1, -3, 1], 1)  # y_lo > 1, so y <= 1 binds: u_cert = 1 / top
    for blocks, skips in (([bump], True), ([bump, _block(0, [-1], 1)], False)):
        grid, seen = scan_grid(blocks), scanned_points(blocks)
        _, u_cert = carleson._lowest_term_rule(bump, grid[0])
        first = max(i for i, u in enumerate(grid) if u <= u_cert) if skips else 0
        assert (first > 0) == skips
        assert seen[:len(grid) - first] == pytest.approx(grid[first:], rel=1e-15)
        assert seen[len(grid) - first - 1] == 1.0
        if not skips:
            assert seen[0] == grid[0]


@st.composite
def scanned_block_lists(draw):
    """One of the two block lists _block_roots scans for an integer_runs layout:
    its boundary blocks, m = 2N + r_power, or their slope blocks for a gap power p."""
    terms, p, r_power = draw(integer_runs()), draw(st.integers(0, 2)), draw(st.integers(0, 1))
    blocks = [_block(2 * low + r_power, s, 1) for low, s in _runs(terms)]
    return draw(st.sampled_from([blocks, [_block(*_slope(b.m, b.s, p), 1) for b in blocks]]))


def assert_roots_match_the_full_scan(blocks):
    assert [u.hex() for u in carleson._block_roots(blocks)] == [u.hex() for u in full_scan(blocks)]


def assert_skipped_points_keep_the_lowest_sign(blocks):
    # a grid point the scan skips has the sign sigma of the blocks' lowest
    # nonzero coefficients, one for every block, or counts as 0; never -sigma
    first = first_scanned(blocks) if blocks else 0
    if first == 0:
        return
    assert all(any(b.scaled) for b in blocks)
    (sigma,) = {math.copysign(1.0, next(c for c in b.scaled if c)) for b in blocks}
    for u in scan_grid(blocks)[:first]:
        assert sigma * _block_density(blocks, u) > -_TINY, u


# the boundary blocks of n_e = (-1)^(16-e) C(15, e-1), e = 1..16, and -s^(2^41): the
# first has S(u) = ((1-u)^2 - 1)^15 = u^15 (u-2)^15 and m = 2, a lowest term 2^15 (y/3)^15
# near 2^-1065 at the grid start 2^-30 / (2^42 + 1), in the subnormal range
UNDERFLOW_BLOCKS = [_block(2 * low, s, 1) for low, s in _runs(
    [*((e, (-1) ** (16 - e) * math.comb(15, e - 1)) for e in range(1, 17)), (2 ** 41, -1)])]
# in the sampled lists the first root lies far past the certified prefix, so
# the last two examples put one just past it: 1 - 8 u^3 has its root at
# u = 1/2, with y_lo = 32^(-1/3) / 2 = 0.157; the slope list of n = (-4, 1),
# p = 1, r_power = 1, is -3 + 2u + 9u^2 - 4u^3 with its root at 0.531, below
# min over j of |c_0 / c_j|^(1/j) = 0.577, a y_lo without the 1/4 and the 1/2
SCAN_EXAMPLES = [
    [_block(0, [3], 1)],  # one term at m = 0: u_cert = 1, nothing is evaluated
    [_block(11, [-2], 1)],  # one term: y_lo is infinite and y <= 1 binds
    [_block(0, [1], 1), _block(20, [-1], 1)],  # lowest terms of opposite signs
    [_block(3, [0], 1), _block(7, [1, -5, 2], 1)],  # one S all zero
    UNDERFLOW_BLOCKS,
    [_block(0, [1, 0, 0, -8], 1)],
    [_block(0, [-3, 2, 9, -4], 1)],
]


def with_scan_examples(test):
    for blocks in reversed(SCAN_EXAMPLES):
        test = example(blocks=blocks)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(blocks=scanned_block_lists())
@with_scan_examples
def test_block_roots_match_the_full_scan(blocks):
    assert_roots_match_the_full_scan(blocks)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(blocks=scanned_block_lists())
@with_scan_examples
def test_skipped_scan_points_keep_the_lowest_sign(blocks):
    assert_skipped_points_keep_the_lowest_sign(blocks)


@pytest.mark.parametrize("delta, starts", [
    (0.5, (3, 32, 117, 343, 906, 2248, 5368, 12479)),
    (1e-3, (2549, 16580, 59309, 172510)),
    (1e-6, SMALL_DELTA_K8),
    (0.5, K16_STARTS),
])
def test_block_roots_of_verify_f_match_the_full_scan(delta, starts, monkeypatch):
    # every block list term_decay scans for f - 1 and the spike terms
    scanned, roots = [], carleson._block_roots
    monkeypatch.setattr(carleson, "_block_roots",
                        lambda blocks: scanned.append(blocks) or roots(blocks))
    verify_f_conditions(ConstructionConfig(alpha=1.0, delta=delta, n_spikes=len(starts),
                                           spike_starts=starts))
    assert len(scanned) == 4 * (1 + len(starts))
    monkeypatch.undo()
    for blocks in scanned:
        assert_roots_match_the_full_scan(blocks)
        assert_skipped_points_keep_the_lowest_sign(blocks)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(terms=integer_runs(), r_power=st.integers(0, 1),
       u=st.one_of(st.floats(0.0, 1.0), st.sampled_from([5e-324, 2.0 ** -30, 0.5, 1.0])))
@example(terms=[(2 ** 40, 1), (2 ** 40 + 1, -3), (2 ** 41, 2)], r_power=0, u=2.0 ** -30)
@example(terms=[(0, 1), (1, -1), (2 ** 20, 5)], r_power=1, u=0.01)  # one block underflows
@example(terms=[(2 ** 20, 1)], r_power=0, u=3.4e-4)  # a subnormal weight still counts
def test_block_density_skip_is_the_plain_sum(terms, r_power, u):
    # _block_density skips a block whose weight (1-u)^m underflows before its
    # Horner pass; adding that block's 0 * S(u) instead gives the same bits
    blocks = [_block(2 * low + r_power, s, 1) for low, s in _runs(terms)]
    total = 0.0
    for b in blocks:
        y, poly = (b.m + 1) * u, 0.0
        for c in reversed(b.scaled):
            poly = poly * y + c
        weight = math.exp(b.m * math.log1p(-u)) if u < 1.0 else float(b.m == 0)
        total += weight * poly
    assert _block_density(blocks, u).hex() == total.hex()


# ---------------------------------------------------------------------- #
# the gradient mass as one integer fraction


@st.composite
def gradient_records(draw):
    """Terms with integer_runs' integers over a power of two, on half the draws
    with their sum made 0, or a spike term, whose coefficients sum to about 0."""
    if draw(st.booleans()):
        spike = SpikeSpec(draw(st.integers(0, 2 ** 30)), draw(st.integers(1, 24)))
        return spike_ratio_term(draw(st.floats(0.01, 100.0)), spike)
    terms = draw(integer_runs())
    if draw(st.booleans()):
        terms[-1] = (terms[-1][0], terms[-1][1] - sum(n for _, n in terms))
    shift = 2.0 ** -draw(st.integers(0, 80))
    return Terms([e for e, _ in terms], [n * shift for _, n in terms])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(series=gradient_records())
@example(series=Terms([], []))  # the zero series
@example(series=Terms([0], [3.0]))  # a constant: no pair
@example(series=Terms([5, 6], [0.0, 0.0]))
@example(series=Terms([1, 2, 3], [1.0, -2.0, 1.0]))  # (1-s)^2 s: sum 0
def test_gradient_sq_mass_equals_the_fraction_sum(series):
    # the unreduced integer pairs round to the same double as the Fraction sum
    assert gradient_sq_mass(series).hex() == fraction_oracles.gradient_sq_mass(series).hex()
