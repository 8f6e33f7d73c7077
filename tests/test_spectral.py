"""Kernels, the sparse ratio decomposition, and the two curvature routes."""

import math

import numpy as np
import pytest
from conftest import dense_curvature, spiked_layouts
from hypothesis import given, settings
from hypothesis import strategies as st
from series_oracles import dense_coeffs, fd_laplacian

from hardyshift import (
    DecompositionMismatchError,
    RadialSeries,
    TruncationError,
    build_spiked_weights,
    curvature_backward_shift,
    curvature_difference,
    curvature_samples,
    curvature_weighted,
    deficit_coefficients,
    inner_w,
    kernel_diagonal_series,
    kernel_eval,
    kernel_ratio_series,
    ratio_log_laplacian,
    spike_kernel_term,
    spike_ratio_term,
)
from hardyshift import search
from hardyshift import spectral as spectral_module
from hardyshift.grids import boundary_refined_grid
from hardyshift.series import truncation_order
from hardyshift.weights import SpikeSpec

RNG = np.random.default_rng(11)


def brute_force_diagonal(weights, s: float, terms: int) -> float:
    w = weights.weight_range(0, terms)
    return float(np.sum(s ** np.arange(terms) / w))


# ---------------------------------------------------------------------- #
# kernel evaluation


def test_kernel_eval_matches_brute_force_sum():
    w = build_spiked_weights(1.0, [3, 32])
    for r in (0.0, 0.4, 0.9):
        expected = brute_force_diagonal(w, r * r, truncation_order(r, 1e-14) + 1)
        got = kernel_eval(w, r, r, tol=1e-13)
        assert got.imag == pytest.approx(0.0, abs=1e-13)
        assert got.real == pytest.approx(expected, rel=1e-11)


def test_kernel_eval_hermitian_symmetry():
    w = build_spiked_weights(0.5, [4])
    lam = 0.3 + 0.5j
    z = -0.2 + 0.6j
    assert kernel_eval(w, lam, z) == pytest.approx(np.conj(kernel_eval(w, z, lam)), rel=1e-12)


def test_kernel_reproduces_polynomials():
    # <p, k_lambda>_w recovers p(lambda): the weights cancel exactly
    w = build_spiked_weights(1.0, [2])
    lam = 0.35 - 0.4j
    coeffs = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    order = truncation_order(abs(lam), 1e-14)
    n = np.arange(max(order + 1, len(coeffs)))
    kernel_coeffs = np.conj(lam) ** n / w.weight_range(0, len(n))
    value = inner_w(w, coeffs, kernel_coeffs)
    expected = np.polyval(coeffs[::-1], lam)
    assert value == pytest.approx(expected, rel=1e-12)


def test_kernel_eval_input_validation_and_truncation_cap():
    w = build_spiked_weights(1.0, [])
    with pytest.raises(ValueError):
        kernel_eval(w, 1.0, 0.5)
    with pytest.raises(ValueError):
        kernel_eval(w, 0.5, 0.5, tol=0.0)
    with pytest.raises(TruncationError) as info:
        kernel_eval(w, 0.9999999999999, 0.9999999999999, tol=1e-14)
    assert info.value.required_order > 10_000_000


def test_diagonal_series_coefficients_are_reciprocal_weights():
    w = build_spiked_weights(1.0, [5])
    diag = kernel_diagonal_series(w, r_max=0.9, tol=1e-10)
    c = dense_coeffs(diag)
    assert c[0] == 1.0
    assert c[6] == 0.25
    assert c[7] == 1.0
    assert diag.order == truncation_order(0.9, 1e-10)


def test_diagonal_series_respects_order_cap():
    w = build_spiked_weights(1.0, [])
    with pytest.raises(TruncationError):
        # about 2e7 terms, ten times _DENSE_ORDER_CAP
        kernel_diagonal_series(w, r_max=0.999999, tol=1e-12)


# ---------------------------------------------------------------------- #
# spike corrections and the ratio


def test_deficit_coefficients_frozen_values():
    assert deficit_coefficients(1.0, 2) == pytest.approx([-0.75, -0.9375], rel=1e-14)
    c = np.array(deficit_coefficients(0.5, 4))
    assert np.all(c < 0)
    assert np.all(np.diff(c) < 0)  # deeper deficit toward the peak
    assert c[-1] > -1.0


def test_spike_kernel_term_support_and_symmetry():
    spike = SpikeSpec(start=10, half_width=3)
    g = spike_kernel_term(1.0, spike)
    assert list(g.exponents) == [11, 12, 13, 14, 15]
    c = deficit_coefficients(1.0, 3)
    assert g.coeffs == pytest.approx([c[0], c[1], c[2], c[1], c[0]], rel=1e-15)


def test_spike_kernel_term_matches_weight_deficits():
    # coefficients must be exactly 1/w_n - 1 on the spike interior
    w = build_spiked_weights(0.8, [7, 30])
    for sp in w.spikes:
        g = spike_kernel_term(w.alpha, sp)
        weights = w.weight_range(0, sp.end + 1)
        for e, c in zip(g.exponents, g.coeffs):
            assert c == pytest.approx(1.0 / weights[int(e)] - 1.0, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(w=spiked_layouts())
def test_spike_kernel_terms_sum_to_the_weight_deficits(w):
    # the deficits placed by SpikeSpec's step map against the weights'
    # own walk of the layout, every index up to last_index + 2
    n = w.last_index + 3
    total = np.zeros(n)
    for sp in w.spikes:
        g = spike_kernel_term(w.alpha, sp)
        total[g.exponents] += g.coeffs
    assert np.allclose(total, 1.0 / np.array(w.weight_range(0, n)) - 1.0, rtol=1e-12, atol=1e-15)


def test_ratio_term_is_one_minus_s_times_kernel_term():
    spike = SpikeSpec(start=6, half_width=2)
    g = RadialSeries(*spike_kernel_term(0.5, spike))
    h = RadialSeries(*spike_ratio_term(0.5, spike))
    # termwise: convolution of g with (1 - s)
    dense_g = np.zeros(h.order + 1)
    dense_g[g.exponents] = g.coeffs
    expected = dense_g - np.concatenate([[0.0], dense_g[:-1]])
    assert np.allclose(dense_coeffs(h), expected, rtol=0.0, atol=0.0)
    s = np.linspace(0.0, 0.99, 31)
    assert np.allclose(h.eval(s), (1.0 - s) * g.eval(s), rtol=1e-13, atol=1e-17)


def dense_ratio_coefficients(alpha: float, h: int) -> list[float]:
    """(1-s) G for a spike of half width h by a dense convolution, the
    reference for spike_ratio_term: G holds the deficit c_{min(i, 2h-i)} at
    offset i = 1 .. 2h-1 from the start and 0 at offsets 0 and 2h, and the
    result covers offsets 1 .. 2h."""
    c = deficit_coefficients(alpha, h)
    g = np.array([0.0, *(c[min(i, 2 * h - i) - 1] for i in range(1, 2 * h)), 0.0])
    return np.convolve(g, [1.0, -1.0])[1:2 * h + 1].tolist()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(alpha=st.floats(0.01, 1000.0), h=st.integers(1, 40), start=st.integers(0, 2 ** 40))
def test_spike_ratio_term_is_one_run_equal_to_the_dense_convolution(alpha, h, start):
    # a difference that rounds to 0 keeps its place: one run per spike
    term = spike_ratio_term(alpha, SpikeSpec(start, h))
    assert list(term.exponents) == list(range(start + 1, start + 2 * h + 1))
    assert [c.hex() for c in term.coeffs] == [c.hex() for c in dense_ratio_coefficients(alpha, h)]


@st.composite
def wide_layouts(draw):
    """alpha in [0.01, 1000] and up to 40 spikes of half widths 1, 2, ...,
    each starting 0 .. 10^9 past the previous one's end"""
    alpha = draw(st.floats(0.01, 1000.0))
    starts, nxt = [], 0
    for k, gap in enumerate(draw(st.lists(st.integers(0, 10 ** 9), max_size=40)), start=1):
        starts.append(nxt + gap)
        nxt = starts[-1] + 2 * k
    return build_spiked_weights(alpha, starts)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(w=wide_layouts())
def test_kernel_ratio_exponents_are_the_spike_spans(w):
    spans = [n for sp in w.spikes for n in range(sp.start + 1, sp.end + 1)]
    assert kernel_ratio_series(w).exponents.tolist() == [0, *spans]


def test_kernel_ratio_series_is_one_plus_corrections():
    w = build_spiked_weights(1.0, [3, 32, 117])
    f = kernel_ratio_series(w)
    assert f.eval(0.0) == 1.0
    expected = 1.0
    s = 0.93
    for sp in w.spikes:
        expected += RadialSeries(*spike_ratio_term(1.0, sp)).eval(s)
    assert f.eval(s) == pytest.approx(expected, rel=1e-14)


def test_kernel_ratio_cross_check_against_dense_diagonal():
    for alpha in (0.5, 1.0):
        w = build_spiked_weights(alpha, [7, 40, 150])
        f = kernel_ratio_series(w, r_max=0.999, tol=1e-9)
        diag = kernel_diagonal_series(w, r_max=0.999, tol=1e-12)
        r = np.linspace(0.0, 0.999, 200)
        s = r * r
        lhs = f.eval(s)
        rhs = (1.0 - s) * diag.eval(s)
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-9


def test_mismatched_slope_raises_decomposition_error(monkeypatch):
    w = build_spiked_weights(1.0, [5, 20])
    original = search.spike_ratio_term

    def corrupted(alpha, spike):
        return original(alpha * 1.01, spike)

    monkeypatch.setattr(search, "spike_ratio_term", corrupted)
    with pytest.raises(DecompositionMismatchError):
        kernel_ratio_series(w, r_max=0.9, tol=1e-9)


def test_mismatched_slope_raises_near_the_boundary(monkeypatch):
    # a dense truncation at r_max 0.99999 would need 1.6e6 terms; the
    # coefficient bound reads the same corruption there
    w = build_spiked_weights(1.0, [5, 20])
    original = search.spike_ratio_term
    monkeypatch.setattr(search, "spike_ratio_term",
                        lambda alpha, spike: original(alpha * 1.01, spike))
    with pytest.raises(DecompositionMismatchError):
        kernel_ratio_series(w, r_max=0.99999, tol=1e-9)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(w=spiked_layouts(max_spikes=8, max_gap=10**6),
       r_max=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_kernel_ratio_check_passes_on_correct_layouts(w, r_max):
    # the false-alarm side: the ratio of consistent weights is never refused
    f = kernel_ratio_series(w, r_max=r_max, tol=1e-9)
    assert f.eval(0.0) == 1.0
    assert len(f) == 1 + sum(2 * sp.half_width for sp in w.spikes)


# ---------------------------------------------------------------------- #
# curvature


def test_unweighted_curvature_closed_form():
    assert curvature_backward_shift(0.0) == 1.0
    assert curvature_backward_shift(0.5) == pytest.approx(16.0 / 9.0, rel=1e-15)
    assert curvature_backward_shift(0.9) == pytest.approx(27.700831024930764, rel=1e-15)


def test_flat_weights_reproduce_reference_curvature_both_methods():
    w = build_spiked_weights(1.0, [])
    r = np.array([0.0, 0.5, 0.9, 0.99])
    expected = curvature_backward_shift(r)
    for got in (curvature_weighted(w, r), dense_curvature(w, r)):
        assert np.max(np.abs(got - expected) / expected) < 1e-9


def test_curvature_methods_agree_on_spiked_weights():
    w = build_spiked_weights(1.0, [3, 32])
    r = np.linspace(0.0, 0.99, 60)
    closed = curvature_weighted(w, r)
    series = dense_curvature(w, r)
    assert np.max(np.abs(closed - series) / np.abs(closed)) < 1e-9


def test_ratio_log_laplacian_matches_finite_difference():
    w = build_spiked_weights(1.0, [3, 32])
    f = kernel_ratio_series(w)

    def log_field(z: complex) -> float:
        return math.log(f.eval(abs(z) ** 2))

    for r in (0.3, 0.7, 0.9):
        expected = fd_laplacian(log_field, r)
        got = ratio_log_laplacian(f, r)
        assert got == pytest.approx(expected, rel=1e-4, abs=1e-10)


def test_curvature_difference_routes_agree(standard_config):
    w = standard_config.weights()
    r = np.linspace(0.0, 0.998, 150)
    a, b = curvature_difference(w, r)
    floor = 64.0 * np.finfo(float).eps * (curvature_backward_shift(r) + 1.0)
    assert np.all(np.abs(a - b) <= 1e-6 * np.maximum(np.abs(a), np.abs(b)) + floor)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(w=spiked_layouts())
def test_curvature_routes_agree_and_ratio_stays_positive_on_random_layouts(w):
    # the frozen configs are not the only layouts the checks must hold on:
    # on a boundary-refined grid up to r_max 0.999 the two curvature routes
    # agree (curvature_difference raises otherwise) and f stays positive
    r = boundary_refined_grid(200, -math.log2(1.0 - 0.999))
    curvature_difference(w, r)
    assert np.all(kernel_ratio_series(w).eval(r * r) > 0.0)


def test_curvature_difference_raises_on_corrupted_ratio(standard_config, monkeypatch):
    # a multiplicative scale would cancel in Delta log f; an additive term does not
    w = standard_config.weights()
    bad = kernel_ratio_series(w).add(
        RadialSeries.from_terms([(2, 0.05)]))
    monkeypatch.setattr(spectral_module, "kernel_ratio_series", lambda *a, **k: bad)
    with pytest.raises(RuntimeError):
        curvature_difference(w, np.linspace(0.1, 0.9, 20))


def test_curvature_samples_table(standard_config):
    w = standard_config.weights()
    samples = curvature_samples(w, [0.0, 0.5, 0.9])
    assert samples._fields == ("r", "kappa_reference", "kappa_weighted", "difference")
    assert all(isinstance(col, np.ndarray) and col.shape == (3,) for col in samples)
    assert samples.r.tolist() == [0.0, 0.5, 0.9]
    np.testing.assert_array_equal(samples.kappa_reference, curvature_backward_shift(samples.r))
    np.testing.assert_array_equal(samples.kappa_weighted, curvature_weighted(w, samples.r))
    np.testing.assert_array_equal(samples.difference,
                                  samples.kappa_weighted - samples.kappa_reference)
    assert samples.kappa_reference[0] == 1.0
