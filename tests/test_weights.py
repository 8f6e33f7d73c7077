"""Spiked weight sequences: values and layout validation."""

import math

import numpy as np
import pytest

from hardyshift import SpikeSpec, WeightSequence, build_spiked_weights


def test_single_spike_weight_values():
    w = build_spiked_weights(1.0, [5])
    # half width 1: profile 1, 4, 1 across indices 5, 6, 7
    assert w.weight_range(5, 8).tolist() == [1.0, 4.0, 1.0]
    assert w.weight_range(0, 1).tolist() == [1.0]
    assert w.weight_range(100, 101).tolist() == [1.0]


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


def test_layout_validation():
    with pytest.raises(ValueError):
        SpikeSpec(start=-1, half_width=1)
    with pytest.raises(ValueError):
        SpikeSpec(start=0, half_width=0)
    with pytest.raises(ValueError):
        # first spike covers 3..5, so a start at 5 collides
        WeightSequence(alpha=1.0, spikes=(SpikeSpec(3, 1), SpikeSpec(5, 1)))
    with pytest.raises(ValueError):
        WeightSequence(alpha=0.0)
    with pytest.raises(ValueError):
        build_spiked_weights(1.0, [3, 4])


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
