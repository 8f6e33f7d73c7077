"""Sparse radial series: evaluation paths, calculus, truncation control."""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as poly

from hardyshift import RadialSeries, TruncationError
from hardyshift.series import (
    edge_bump,
    fd_laplacian,
    geometric_series,
    tail_bound_geometric,
    truncation_order,
)
from hardyshift.spectral import kernel_ratio_series
from hardyshift.weights import build_spiked_weights

RNG = np.random.default_rng(7)


def random_dense(degree: int) -> RadialSeries:
    return RadialSeries.from_dense(RNG.uniform(-1.0, 1.0, degree + 1))


# ---------------------------------------------------------------------- #
# evaluation


def test_geometric_series_matches_closed_form():
    g = geometric_series(200)
    s = np.linspace(0.0, 0.81, 40)
    expected = 1.0 / (1.0 - s)
    err = np.abs(g.eval(s) - expected)
    # truncation is the only error source, bounded by the geometric tail at r = 0.9
    assert np.all(err <= tail_bound_geometric(200, 0.9) + 1e-12)


def test_edge_bump_evaluates_to_monomial_times_gap():
    psi = edge_bump(7)
    s = np.linspace(0.0, 0.99, 23)
    expected = s**7 * (1.0 - s)
    assert np.allclose(psi.eval(s), expected, rtol=1e-14, atol=0.0)


def test_eval_sparse_large_exponents_against_scalar_powers():
    # runs of consecutive exponents and lone ones, up to 10^6
    terms = [(0, 0.5), (3, -1.25), (64, 2.0), (65, -0.75), (4000, 1.5), (10**6, 3.0)]
    series = RadialSeries.from_terms(terms)
    for s in (0.0, 0.3, 0.97, 0.999999):
        expected = sum(c * s**e for e, c in terms)
        got = series.eval(s)
        assert got == pytest.approx(expected, rel=1e-11, abs=1e-300)


def test_eval_dense_path_agrees_with_sparse_path():
    c = RNG.uniform(-1.0, 1.0, 30)
    dense = RadialSeries.from_dense(c)
    # same polynomial with exponent 13 omitted: forces the sparse branch
    sparse = RadialSeries.from_terms(
        [(e, v) for e, v in enumerate(c) if e != 13])
    assert dense.is_dense and not sparse.is_dense
    s = np.linspace(0.0, 0.99, 50)
    expected = dense.eval(s) - c[13] * s**13
    assert np.allclose(sparse.eval(s), expected, rtol=1e-12, atol=1e-15)


def test_eval_rejects_points_outside_unit_interval():
    g = geometric_series(10)
    with pytest.raises(ValueError):
        g.eval(1.0)
    with pytest.raises(ValueError):
        g.eval(-0.1)
    # NaN fails both comparisons of 0 <= s < 1
    for series in (g, edge_bump(100)):
        for bad in (math.nan, np.array([0.5, math.nan]), np.array([math.nan])):
            with pytest.raises(ValueError):
                series.eval(bad)
            with pytest.raises(ValueError):
                series.eval_with_derivatives(bad)
    with pytest.raises(ValueError):
        g.eval_with_derivatives(np.array([0.0, 1.0]))


def fused_cases() -> dict[str, RadialSeries]:
    rng = np.random.default_rng(11)
    many = 70 + 3 * np.arange(2 * 4096 + 17)  # one block per term
    # small_only keeps every exponent below 65, log_domain_only at or above it
    return {
        "zero": RadialSeries.zero(),
        "dense": RadialSeries.from_dense(rng.uniform(-1.0, 1.0, 13)),
        "small_only": RadialSeries.from_terms([(0, 0.5), (3, -1.25), (64, 2.0)]),
        "log_domain_only": RadialSeries.from_terms([(66, -0.75), (4000, 1.5), (10**6, 3.0)]),
        "mixed": RadialSeries.from_terms(
            [(0, 0.5), (3, -1.25), (4, 2.0), (6, -0.75), (4000, 1.5), (10**6, 3.0)]),
        "blocks": RadialSeries(many, rng.uniform(-1.0, 1.0, len(many))),
    }


def test_fused_cases_cover_every_evaluation_plan():
    cases = fused_cases()
    plans = {name: g._plan for name, g in cases.items()}
    # the zero series is one block of zeros
    assert plans["zero"].powers.tolist() == [[0.0]]
    assert plans["zero"].horner.tolist() == [[[0.0]]]
    # a dense series is one block at N = 0, its coefficients from the top down
    assert plans["dense"].powers.tolist() == [[0.0]]
    assert plans["dense"].horner[:, 0, 0].tolist() == cases["dense"].coeffs[::-1].tolist()
    # a gap of 2 splits a run, a gap of 1 does not
    assert plans["mixed"].powers.ravel().tolist() == [0.0, 3.0, 6.0, 4000.0, 1e6]
    assert plans["mixed"].horner[:, :2, 0].T.tolist() == [[0.0, 0.5], [2.0, -1.25]]
    assert plans["blocks"].horner.shape == (1, 2 * 4096 + 17, 1)
    # the kernel ratio: the constant, then one block per spike interior run
    w = build_spiked_weights(1.0, (3, 32, 117, 343))
    plan = kernel_ratio_series(w)._plan
    assert plan.powers.ravel().tolist() == [0.0] + [float(sp.interior[0]) for sp in w.spikes]
    assert plan.horner.shape == (2 * len(w.spikes), 1 + len(w.spikes), 1)


@pytest.mark.parametrize("name", ["zero", "dense", "small_only", "log_domain_only", "mixed",
                                  "blocks"])
def test_eval_with_derivatives_is_bit_equal_to_separate_evals(name):
    series = fused_cases()[name]
    separate = (series, series.derivative, series.derivative.derivative)
    points = np.array([0.0, 1e-300, 0.3, 0.97, 0.9999, 0.999999])
    fused = series.eval_with_derivatives(points)
    assert len(fused) == 3
    for got, g in zip(fused, separate):
        assert got.shape == points.shape
        assert got.tobytes() == g.eval(points).tobytes()
    for s in points:
        for got, g in zip(series.eval_with_derivatives(float(s)), separate):
            assert type(got) is float
            assert got.hex() == g.eval(float(s)).hex()


# frozen spike starts at alpha = 1: the delta 0.5 search extended to K = 8,
# and the minimal starts at delta 1e-3 (K = 4) and delta 1e-6 (K = 8),
# whose powers reach 6.2e9
FROZEN_STARTS = {
    "K8_delta0.5": (3, 32, 117, 343, 906, 2248, 5368, 12479),
    "K4_delta1e-3": (2549, 16580, 59309, 172510),
    "K8_delta1e-6": (2551008, 16581563, 59310981, 172512049, 453601462, 1124756247,
                     2684818434, 6240348396),
}


def ratio_parts(starts) -> dict[str, RadialSeries]:
    """f - 1, f' and Delta f of the kernel ratio f of the spiked weights."""
    f = kernel_ratio_series(build_spiked_weights(1.0, starts))
    return {"f - 1": f.add(RadialSeries.from_terms([(0, -1.0)])), "f'": f.derivative,
            "Delta f": f.laplacian()}


@pytest.mark.parametrize("config", FROZEN_STARTS)
def test_eval_is_batch_independent(config):
    # s = exp(-x / m) with m a spike start and x log-uniform in [1e-2, 1e2]:
    # the points sit on the spikes' boundary scales, where the terms are large
    starts = FROZEN_STARTS[config]
    rng = np.random.default_rng(19)
    m = rng.choice(np.asarray(starts, dtype=np.float64), 5000)
    s = np.exp(-np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 5000)) / m)
    f = kernel_ratio_series(build_spiked_weights(1.0, starts))
    for g in (f, f.derivative, f.laplacian()):
        batch = g.eval(s)
        one = np.array([g.eval(float(x)) for x in s])
        assert batch.tobytes() == one.tobytes()
        assert batch[::7].tobytes() == g.eval(s[::7]).tobytes()


@pytest.mark.parametrize("config", FROZEN_STARTS)
def test_eval_matches_mpmath_sum_at_spike_scales(config):
    # each value within 5e-16 of the sum of |c_e s^e| from a 60-digit sum of
    # the same float coefficients, at s = exp(-x / m) around each start m
    starts = FROZEN_STARTS[config]
    s = np.array([math.exp(-x / m) for m in starts for x in (0.05, 0.5, 1.0, 2.0, 8.0)])
    with mpmath.workdps(60):
        for name, g in ratio_parts(starts).items():
            got = g.eval(s)
            for si, gi in zip(s.tolist(), got.tolist()):
                terms = [mpmath.mpf(c) * mpmath.mpf(si) ** e
                         for e, c in zip(g.exponents.tolist(), g.coeffs.tolist())]
                scale = float(mpmath.fsum(abs(x) for x in terms))
                assert abs(gi - float(mpmath.fsum(terms))) <= 5e-16 * scale, (name, si)


# ---------------------------------------------------------------------- #
# calculus against numpy polynomial arithmetic


def test_derivative_matches_polynomial_oracle():
    series = random_dense(12)
    expected = poly.polyder(series.dense_coeffs())
    assert np.array_equal(series.d_ds().dense_coeffs(), expected)


def test_laplacian_is_first_plus_s_times_second_derivative():
    series = random_dense(9)
    c = series.dense_coeffs()
    d1 = poly.polyder(c)
    d2 = poly.polyder(c, 2)
    expected = d1.copy()
    expected[1:] += d2  # s * G'' shifts the second derivative up one slot
    # the library computes e^2 c_e in one product; the oracle adds two, so
    # agreement is to the last ulp rather than bitwise
    assert np.allclose(series.laplacian().dense_coeffs(), expected, rtol=1e-15, atol=0.0)


def test_laplacian_exponent_rule():
    # Delta s^e = e^2 s^{e-1}, including huge exponents
    series = RadialSeries.from_terms([(5, 2.0), (10**6, -1.0)])
    lap = series.laplacian()
    assert list(lap.exponents) == [4, 10**6 - 1]
    assert list(lap.coeffs) == [2.0 * 25, -1.0 * (10**6) ** 2]


def test_gradient_square_matches_polynomial_oracle():
    series = random_dense(8)
    d1 = poly.polyder(series.dense_coeffs())
    expected = np.concatenate([[0.0], poly.polymul(d1, d1)])
    assert np.allclose(series.grad_sq().dense_coeffs(), expected, rtol=1e-14, atol=1e-16)


def test_algebra_operations_agree_pointwise():
    a = random_dense(6)
    b = random_dense(4)
    s = np.linspace(0.0, 0.9, 17)
    assert np.allclose(a.add(b).eval(s), a.eval(s) + b.eval(s), rtol=1e-13)
    assert np.allclose(a.shift(3).eval(s), s**3 * a.eval(s), rtol=1e-13, atol=1e-16)
    assert np.allclose(a.multiply(b).eval(s), a.eval(s) * b.eval(s), rtol=1e-12, atol=1e-15)
    assert np.allclose(a.times_one_minus_s().eval(s), (1.0 - s) * a.eval(s),
                       rtol=1e-13, atol=1e-16)


def test_times_one_minus_s_coefficients_match_convolution():
    a = random_dense(11)
    expected = poly.polymul(a.dense_coeffs(), [1.0, -1.0])
    assert np.allclose(a.times_one_minus_s().dense_coeffs(), expected, rtol=0.0, atol=0.0)


def test_duplicate_terms_merge_and_zeros_drop():
    series = RadialSeries.from_terms([(2, 1.0), (2, -1.0), (5, 3.0)])
    assert list(series.exponents) == [5]
    assert series.order == 5
    assert RadialSeries.zero().order == -1


# ---------------------------------------------------------------------- #
# truncation control


def test_truncation_order_frozen_value():
    # tail r^{2(m+1)}/(1-r^2) <= 1e-9 at r = 0.5 first holds at m = 15
    assert truncation_order(0.5, 1e-9) == 15


def test_truncation_order_is_minimal():
    for r_max in (0.3, 0.9, 0.999):
        for tol in (1e-6, 1e-12):
            m = truncation_order(r_max, tol)
            assert tail_bound_geometric(m, r_max) <= tol
            if m > 0:
                assert tail_bound_geometric(m - 1, r_max) > tol


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_truncation_order_rejects_tol_that_is_not_positive_and_finite(tol):
    # tol = inf returned order 0; tol = nan failed converting nan to an integer
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        truncation_order(0.9, tol)


def test_tail_bound_dominates_true_geometric_tail():
    r = 0.7
    m = 20
    true_tail = math.fsum(r ** (2 * j) for j in range(m + 1, 400))
    # the bound is the closed form of the full tail, so the truncated sum
    # matches it to roundoff from below
    bound = tail_bound_geometric(m, r)
    assert true_tail * (1.0 - 1e-12) <= bound <= true_tail * (1.0 + 1e-9)


def test_truncation_error_carries_required_order():
    err = TruncationError("too many terms", required_order=123456)
    assert err.required_order == 123456
    assert isinstance(err, RuntimeError)


# ---------------------------------------------------------------------- #
# finite difference stencil


def test_fd_laplacian_matches_closed_form_on_bump():
    n = 6
    bump = edge_bump(n)
    lap = bump.laplacian()

    def field(z: complex) -> float:
        return bump.eval(abs(z) ** 2)

    for z in (0.4, 0.7 + 0.1j, -0.2 + 0.55j):
        expected = lap.eval(abs(z) ** 2)
        assert fd_laplacian(field, z) == pytest.approx(expected, rel=2e-6)


def test_fd_laplacian_rejects_stencils_leaving_the_disk():
    with pytest.raises(ValueError):
        fd_laplacian(lambda z: 0.0, 0.99999, h=1e-4)
