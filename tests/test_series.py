"""Sparse radial series: evaluation paths, calculus, truncation control."""

import math

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
    # exponents straddle the log-domain switchover at 65
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
    block_exps = 70 + 3 * np.arange(2 * 4096 + 17)  # more than one log-domain block
    return {
        "zero": RadialSeries.zero(),
        "dense": RadialSeries.from_dense(rng.uniform(-1.0, 1.0, 13)),
        "small_only": RadialSeries.from_terms([(0, 0.5), (3, -1.25), (64, 2.0)]),
        "log_domain_only": RadialSeries.from_terms([(66, -0.75), (4000, 1.5), (10**6, 3.0)]),
        "mixed": RadialSeries.from_terms(
            [(0, 0.5), (3, -1.25), (64, 2.0), (65, -0.75), (4000, 1.5), (10**6, 3.0)]),
        "blocks": RadialSeries(block_exps, rng.uniform(-1.0, 1.0, len(block_exps))),
    }


def test_fused_cases_cover_every_evaluation_plan():
    plans = {name: g._plan for name, g in fused_cases().items()}
    assert plans["zero"] == (None, None, ())
    assert plans["dense"].dense is not None
    assert plans["small_only"].small is not None and not plans["small_only"].blocks
    assert plans["log_domain_only"].small is None and len(plans["log_domain_only"].blocks) == 1
    assert plans["mixed"].small is not None and len(plans["mixed"].blocks) == 1
    assert len(plans["blocks"].blocks) == 3


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
    assert np.allclose(a.scale(-2.5).eval(s), -2.5 * a.eval(s), rtol=1e-14)
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
