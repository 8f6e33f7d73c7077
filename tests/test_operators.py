"""Shift action, adjoint, norms, and the operator-level certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyshift import (
    backward_shift,
    build_spiked_weights,
    coisometry_check,
    forward_shift,
    inner_w,
    kernel_eval,
    norm_w,
    orbit_norms,
)
from hardyshift.series import truncation_order

RNG = np.random.default_rng(3)


def random_vector(n: int) -> np.ndarray:
    return RNG.uniform(-1.0, 1.0, n) + 1j * RNG.uniform(-1.0, 1.0, n)


def test_backward_shift_on_basis_vectors():
    w = build_spiked_weights(1.0, [5])
    e6 = np.zeros(8)
    e6[6] = 1.0
    out = backward_shift(w, e6)
    # (T e_6)_5 = w_6 / w_5 = 4
    assert out[5] == 4.0
    assert np.count_nonzero(out) == 1
    assert len(backward_shift(w, [1.0])) == 0


def test_forward_shift_prepends_zero():
    out = forward_shift([1.0, 2.0])
    assert np.array_equal(out, [0.0, 1.0, 2.0])


def test_shift_composition_scales_by_weight_ratio():
    # (T T* x)_n = (w_{n+1}/w_n) x_n, bitwise: both sides are the same ops
    w = build_spiked_weights(0.75, [2, 12])
    x = random_vector(20)
    lhs = backward_shift(w, forward_shift(x))
    ratios = w.weight_range(1, 21) / w.weight_range(0, 20)
    assert np.array_equal(lhs, ratios * x)


def test_unweighted_shift_composition_is_identity():
    w = build_spiked_weights(1.0, [])
    x = random_vector(15)
    assert np.array_equal(backward_shift(w, forward_shift(x)), x)


def test_adjointness_of_the_pair():
    w = build_spiked_weights(1.0, [3, 32, 117])
    for n in (5, 40, 130):
        x = random_vector(n)
        y = random_vector(n + 1)
        lhs = inner_w(w, backward_shift(w, y), x[:-1])
        rhs = inner_w(w, y, forward_shift(x[:-1]))
        assert abs(lhs - rhs) <= 1e-12 * norm_w(w, y) * norm_w(w, x[:-1])


def test_norm_of_basis_vector_hits_weight():
    w = build_spiked_weights(1.0, [5])
    e6 = np.zeros(7)
    e6[6] = 1.0
    assert norm_w(w, e6) == 2.0
    assert norm_w(w, []) == 0.0


def test_kernel_is_shift_eigenvector():
    # T k_lambda = conj(lambda) k_lambda, up to the lost top coefficient
    w = build_spiked_weights(1.0, [3])
    lam = 0.4 + 0.3j
    order = truncation_order(abs(lam), 1e-13)
    n = np.arange(order + 1)
    k = np.conj(lam) ** n / w.weight_range(0, order + 1)
    shifted = backward_shift(w, k)
    assert np.allclose(shifted, np.conj(lam) * k[:-1], rtol=1e-13, atol=1e-16)
    # and the eigenvalue relation shows up in kernel values
    assert kernel_eval(w, lam, 0.2) == pytest.approx(
        complex(np.sum(k * 0.2 ** n)), rel=1e-11)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
def test_kernel_eval_rejects_tol_that_is_not_positive_and_finite(tol):
    # tol = inf returned 1+0j, the first term alone, where the value is 4.9403
    w = build_spiked_weights(1.0, [3])
    assert abs(kernel_eval(w, 0.9, 0.9) - 4.9403) < 1e-4
    for lam in (0.9, 0.0):  # the first term alone is exact at lam = 0; tol is still checked
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            kernel_eval(w, lam, 0.9, tol=tol)


def test_orbit_norms_match_iterated_shifts():
    w = build_spiked_weights(0.5, [4, 20])
    x = random_vector(9)
    norms = orbit_norms(w, x, 30)
    y = x.copy()
    for n in range(31):
        assert norms[n] == pytest.approx(norm_w(w, y), rel=1e-13)
        y = forward_shift(y)


def test_orbit_of_first_basis_vector_traces_spike_peaks():
    starts = (3, 32, 117)
    for alpha in (0.25, 1.0):
        w = build_spiked_weights(alpha, starts)
        norms = orbit_norms(w, [1.0], 130)
        for k, start in enumerate(starts, start=1):
            # exact equality: weights are integer powers of (1+alpha)^2 and
            # sqrt of a representable even power is exact
            assert norms[start + k] == (1.0 + alpha) ** k
        assert norms[0] == 1.0
        assert np.max(norms) == (1.0 + alpha) ** 3


def test_orbit_norm_lower_bound_witness():
    # ||T*^n x||^2 >= |x_m|^2 w_{m+n} for every coefficient m
    w = build_spiked_weights(1.0, [3, 32])
    x = random_vector(6)
    norms = orbit_norms(w, x, 40)
    for n in range(41):
        wr = w.weight_range(n, n + 6)
        best = np.max(np.abs(x) ** 2 * wr)
        assert norms[n] ** 2 >= best * (1.0 - 1e-12)


def test_coisometry_band_for_both_alphas():
    for alpha in (0.25, 1.0):
        w = build_spiked_weights(alpha, (3, 32, 117))
        rep = coisometry_check(w)
        assert rep.passed
        assert rep.lower == pytest.approx(1.0 / (1.0 + alpha), rel=1e-15)
        assert rep.upper == 1.0 + alpha
        # every spike climbs and falls at the full slope, so the extremes
        # land on the limits, bit for bit at these alphas
        assert (rep.min_ratio, rep.max_ratio) == (rep.lower, rep.upper)
        assert rep.deviation == 1.0
        # the classical floor 1 - alpha is implied by the sharp one
        assert rep.min_ratio >= 1.0 - alpha


def test_coisometry_band_is_attained_on_basis_vectors():
    for alpha in (0.25, 1.0):
        w = build_spiked_weights(alpha, (3, 32, 117))
        rep = coisometry_check(w)
        for sp in w.spikes:
            # e_start sits on an ascending step, e_peak on a descending one
            for n, extreme in ((sp.start, rep.max_ratio), (sp.peak, rep.min_ratio)):
                e = np.zeros(n + 1)
                e[n] = 1.0
                ratio = norm_w(w, forward_shift(e)) / norm_w(w, e)
                assert ratio == pytest.approx(extreme, rel=1e-15), (alpha, n)


def test_coisometry_band_of_flat_weights_is_one_point():
    rep = coisometry_check(build_spiked_weights(1.0, []))
    assert (rep.min_ratio, rep.max_ratio) == (1.0, 1.0)
    assert rep.passed


@st.composite
def spiked_layouts(draw):
    alpha = draw(st.floats(0.01, 3.0))
    gaps = draw(st.lists(st.integers(1, 40), max_size=4))
    starts, nxt = [], 0
    for k, gap in enumerate(gaps, start=1):
        starts.append(nxt + gap - 1)
        nxt = starts[-1] + 2 * k + 1  # first index past spike k
    return build_spiked_weights(alpha, starts)


@settings(max_examples=60, deadline=None)
@given(w=spiked_layouts(), seed=st.integers(0, 2**32 - 1), extra=st.integers(-20, 20))
def test_coisometry_band_bounds_every_vector(w, seed, extra):
    rep = coisometry_check(w)
    assert rep.passed
    rng = np.random.default_rng(seed)
    n = max(1, w.last_index + 3 + extra)
    # magnitudes over eight decades, so some vectors sit near a basis vector
    x = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-8, 0, n)
    ratio = norm_w(w, forward_shift(x)) / norm_w(w, x)
    assert rep.min_ratio * (1 - 1e-12) <= ratio <= rep.max_ratio * (1 + 1e-12)


def test_coefficient_vector_validation():
    w = build_spiked_weights(1.0, [])
    with pytest.raises(ValueError):
        norm_w(w, np.zeros((2, 2)))
