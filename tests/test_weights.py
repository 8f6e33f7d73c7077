"""Spiked weight sequences: values and layout validation."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import spiked_layouts
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyshift import SpikeSpec, WeightSequence, build_spiked_weights

# the starts the search finds at alpha = 1, delta = 0.5 for K = 8
K8_STARTS = (3, 32, 117, 343, 906, 2248, 5368, 12479)


def exact_powers(w: WeightSequence, n1: int) -> list[float]:
    """w_n for n < n1 as float(Fraction(b) ** j), b = (1+alpha)^2 and j the
    step of n on its spike: the correctly rounded power, index by index."""
    b = Fraction((1.0 + w.alpha) ** 2)
    steps = [0] * n1
    for sp in w.spikes:
        for n in range(sp.start, min(sp.end + 1, n1)):
            steps[n] = sp.step(n)
    return [float(b ** j) for j in steps]


def test_single_spike_weight_values():
    w = build_spiked_weights(1.0, [5])
    # half width 1: profile 1, 4, 1 across indices 5, 6, 7
    assert w.weight_range(5, 8) == [1.0, 4.0, 1.0]
    assert w.weight_range(0, 1) == [1.0]
    assert w.weight_range(100, 101) == [1.0]


def test_half_widths_grow_with_spike_index():
    w = build_spiked_weights(1.0, [3, 32, 117])
    assert [sp.half_width for sp in w.spikes] == [1, 2, 3]
    # peaks (1+alpha)^{2k} land at start + k, bit exact for alpha = 1
    vals = w.weight_range(0, w.last_index + 1)
    assert [vals[sp.peak] for sp in w.spikes] == [4.0, 16.0, 64.0]
    assert [sp.peak for sp in w.spikes] == [4, 34, 120]


def test_spike_profile_is_symmetric_triangle():
    w = WeightSequence(alpha=0.5, spikes=(SpikeSpec(start=10, half_width=3),))
    vals = w.weight_range(10, 17)
    assert np.array_equal(vals, vals[::-1])
    assert np.all(np.diff(vals[:4]) > 0)
    assert vals[3] == pytest.approx(1.5 ** 6, rel=1e-15)


def test_weight_range_matches_pointwise_lookup():
    w = build_spiked_weights(0.7, [2, 20])
    vals = w.weight_range(0, 30)
    assert all(vals[n] == w.weight_range(n, n + 1)[0] for n in range(30))


def test_power_and_log_evaluation_routes_agree():
    # log w_n = 2 j log(1+alpha) on each spike, j the step from its nearer end
    w = build_spiked_weights(0.37, [4, 40, 200])
    log_w = np.zeros(210)
    for sp in w.spikes:
        n = np.arange(sp.start, sp.end + 1)
        log_w[n] = sp.step(n) * 2.0 * math.log1p(w.alpha)
    via_pow = w.weight_range(0, 210)
    assert np.allclose(via_pow, np.exp(log_w), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.4, 0.6, 0.75, 1.0, 2.5])
def test_weights_are_correctly_rounded_powers(alpha):
    # numpy's SIMD np.power misses some of these by an ulp on AVX-512 hosts
    # (at alpha 0.3, 0.4 and 0.6)
    w = build_spiked_weights(alpha, K8_STARTS)
    assert w.weight_range(0, w.last_index + 3) == exact_powers(w, w.last_index + 3)


@settings(max_examples=60, deadline=None)
@given(w=spiked_layouts(max_spikes=8), data=st.data())
def test_weight_windows_are_correctly_rounded_powers(w, data):
    n1 = w.last_index + 3
    n0 = data.draw(st.integers(0, n1))
    assert w.weight_range(n0, n1) == exact_powers(w, n1)[n0:]


@pytest.mark.parametrize("alpha", [1e100, 1e200, 2.0 ** 512])
def test_an_infinite_peak_weight_is_rejected(alpha):
    # (1.0 + 1e200) ** 2 overflows and 1e100 ** 6 is past the largest float;
    # the check must raise ValueError rather than OverflowError
    with pytest.raises(ValueError, match="not a finite float"):
        build_spiked_weights(alpha, [3, 32, 117])
    # without spikes every weight is 1, whatever alpha
    assert build_spiked_weights(alpha, []).weight_range(0, 3) == [1.0, 1.0, 1.0]


def test_overflow_limit_is_where_float_rounds_to_inf():
    from hardyshift.weights import _FLOAT_OVERFLOW

    assert float(_FLOAT_OVERFLOW - 1) == sys.float_info.max
    with pytest.raises(OverflowError):
        float(_FLOAT_OVERFLOW)


@settings(max_examples=100, deadline=None)
@given(log2_peak=st.floats(1000.0, 1030.0), k=st.integers(1, 8))
def test_peak_check_is_exact_at_the_float_limit(log2_peak, k):
    # alpha near where the peak b^k crosses the largest float: the layout is
    # accepted exactly when the correctly rounded peak is finite
    alpha = 2.0 ** (log2_peak / (2 * k)) - 1.0
    starts = [3 + 20 * i * i for i in range(k)]
    try:
        peak = float(Fraction((1.0 + alpha) ** 2) ** k)
    except OverflowError:
        with pytest.raises(ValueError, match="not a finite float"):
            build_spiked_weights(alpha, starts)
    else:
        w = build_spiked_weights(alpha, starts)
        assert max(w.weight_range(0, w.last_index + 1)) == peak


def test_layout_validation():
    with pytest.raises(ValueError):
        build_spiked_weights(1.0, [3, 4])


@pytest.mark.parametrize("make, message", [
    (lambda: SpikeSpec(-1, 1), "spike start must be nonnegative"),
    (lambda: SpikeSpec(start=0, half_width=0), "spike half width must be at least 1"),
    (lambda: WeightSequence(alpha=0.0), "alpha must be positive and finite"),
    (lambda: WeightSequence(math.inf, (SpikeSpec(3, 1),)), "alpha must be positive and finite"),
    (lambda: WeightSequence(math.nan), "alpha must be positive and finite"),
    # the first spike covers 3..5, so a start at 5 collides
    (lambda: WeightSequence(alpha=1.0, spikes=(SpikeSpec(3, 1), SpikeSpec(5, 1))),
     "spikes must be separated: start 3 with half width 1 reaches 5, next start 5"),
    (lambda: WeightSequence(1e200, [SpikeSpec(3, 1)]),
     "alpha 1e+200 is too large: the peak weight (1+alpha)^2 is not a finite float"),
])
def test_layout_checks_name_the_fault(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_spike_specs_are_values():
    # equal and hashed by their fields; no field can be set, nor a new
    # attribute; _replace runs the checks
    spike = SpikeSpec(3, 2)
    assert spike == SpikeSpec(start=3, half_width=2) and spike != SpikeSpec(3, 1)
    assert hash(spike) == hash(SpikeSpec(3, 2))
    assert len({spike, SpikeSpec(3, 2), SpikeSpec(4, 2)}) == 2
    for name in ("start", "half_width", "label"):
        with pytest.raises(AttributeError):
            setattr(spike, name, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        spike._replace(start=-1)
    assert spike._replace(half_width=1) == SpikeSpec(3, 1)


def test_weight_sequences_compare_by_identity():
    w = build_spiked_weights(1.0, [3, 32])
    twin = build_spiked_weights(1.0, [3, 32])
    assert w == w and w != twin and len({w, twin}) == 2
    assert w.spikes == twin.spikes  # their layouts are values


def test_last_index_and_empty_layout():
    assert build_spiked_weights(1.0, []).last_index == 0
    assert build_spiked_weights(1.0, [3, 32, 117]).last_index == 123


def test_lookups_reject_indices_outside_the_layout():
    w = build_spiked_weights(1.0, [3, 32])
    with pytest.raises(ValueError):
        w.weight_range(-1, 0)
    with pytest.raises(ValueError):
        w.weight_range(5, 4)
    with pytest.raises(ValueError):
        w.weight_range(-1, 3)
