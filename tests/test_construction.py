"""Spike placement, gates, configs, and the two verification layers."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hardyshift import (
    ConstructionConfig,
    InfeasibleConstructionError,
    bump_gradient_sq_carleson_bound,
    bump_laplacian_carleson_bound,
    bump_peak,
    delta_for_epsilon,
    lemma_bounds,
    select_spike_positions,
    spike_budget,
    spike_correction_thresholds,
    spike_gate,
    verify_f_conditions,
    verify_theorem_conditions,
)
from hardyshift import construction
from hardyshift.construction import (
    DecayProfile,
    _condition_grid,
    _decay_grid,
    measure_spike_conditions,
)
from hardyshift.series import edge_bump
from hardyshift.spectral import spike_ratio_term
from hardyshift.weights import SpikeSpec

STANDARD_STARTS = (3, 32, 117)


# ---------------------------------------------------------------------- #
# single-bump reports


def test_bump_peak_frozen_values():
    r1, v1 = bump_peak(1)
    assert v1 == pytest.approx(0.25, rel=1e-15)
    assert r1 == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert bump_peak(10)[1] == pytest.approx(0.03504938994813925, rel=1e-13)
    assert bump_peak(0) == (0.0, 1.0)
    with pytest.raises(ValueError):
        bump_peak(-1)


def test_lemma_bounds_against_quadrature_oracles():
    n = 10
    rep = lemma_bounds(n)
    bump = edge_bump(n)
    lap = bump.laplacian()
    grad = bump.grad_sq()
    root = n / (n + 1.0)

    oracle, _ = quad(lambda r: abs(lap.eval(r * r)) * (1.0 - r) * r, 0.0, 1.0,
                     points=[root], limit=200)
    assert rep.carl_laplacian == pytest.approx(2.0 * math.pi * oracle, rel=1e-10)
    oracle2, _ = quad(lambda r: grad.eval(r * r) * (1.0 - r) * r, 0.0, 1.0, limit=200)
    assert rep.carl_grad_sq == pytest.approx(2.0 * math.pi * oracle2, rel=1e-10)

    # suprema against a dense independent grid
    r = np.linspace(0.0, 0.999999, 2_000_001)
    assert rep.sup_laplacian >= np.max(np.abs(lap.eval(r * r)) * (1.0 - r) ** 2) - 1e-12
    assert rep.sup_grad_sq >= np.max(grad.eval(r * r) * (1.0 - r) ** 2) - 1e-12
    assert rep.sup_value == pytest.approx(bump_peak(n)[1], rel=1e-15)


def test_lemma_report_scaling_rates():
    # fields scale like 1/n, 1/n, 1/n^2, 1/n, 1/n^2: tenfold n must shrink
    # each field by at least a factor 5 (linear) or 50 (quadratic)
    small, big = lemma_bounds(100), lemma_bounds(1000)
    assert big.sup_value < small.sup_value / 5.0
    assert big.sup_laplacian < small.sup_laplacian / 5.0
    assert big.carl_laplacian < small.carl_laplacian / 5.0
    assert big.sup_grad_sq < small.sup_grad_sq / 50.0
    assert big.carl_grad_sq < small.carl_grad_sq / 50.0


def test_carleson_bounds_majorize_measured_masses():
    for n in (1, 10, 100, 1000):
        rep = lemma_bounds(n)
        assert rep.carl_laplacian <= bump_laplacian_carleson_bound(n)
        assert rep.carl_grad_sq <= bump_gradient_sq_carleson_bound(n)


def test_pointwise_laplacian_majorization():
    # |Delta psi_n| (1-r)^2 <= 2 (n+1)^2 r^{2n-2} (1-r)^3 + (2n+1) r^{2n-2} (1-r)^2
    for n in (2, 9, 33):
        lap = edge_bump(n).laplacian()
        r = np.linspace(0.0, 0.999999, 40_001)
        s = r * r
        lhs = np.abs(lap.eval(s)) * (1.0 - r) ** 2
        rhs = (2.0 * (n + 1) ** 2 * (1.0 - r) + (2 * n + 1)) * r ** (2 * n - 2) * (1.0 - r) ** 2
        assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-300)



def test_lemma_computes_only_the_suprema_it_reports(monkeypatch):
    # the lemma reads laplacian_sup and gradient_sq_sup of its profile; the
    # closed-form peak stands in for value_sup, and gradient_sup is unused
    calls = []
    refined_supremum = construction.refined_supremum

    def counting(fn, grid, *args, **kwargs):
        calls.append(fn)
        return refined_supremum(fn, grid, *args, **kwargs)

    monkeypatch.setattr(construction, "refined_supremum", counting)
    construction.lemma_bounds.__wrapped__(34)
    assert len(calls) == 2


def _profiles():
    for n in (1, 34, 2248, 172510):
        yield DecayProfile(edge_bump(n), _decay_grid([n], 701, 45.0))
    for k, start in enumerate(STANDARD_STARTS, start=1):
        spike = SpikeSpec(start, k)
        yield DecayProfile(spike_ratio_term(1.0, spike), _condition_grid([spike]))


def test_gradient_suprema_are_one_supremum_rounded_two_ways():
    for p in _profiles():
        assert math.sqrt(p.gradient_sq_sup[1]) == pytest.approx(p.gradient_sup[1], rel=1e-14)

# ---------------------------------------------------------------------- #
# gates and placement


def test_spike_budget_frozen_values():
    assert spike_budget(1.0, SpikeSpec(3, 1)) == pytest.approx(0.75, rel=1e-14)
    assert spike_budget(1.0, SpikeSpec(32, 2)) == pytest.approx(2.4375, rel=1e-14)


def test_spike_correction_thresholds():
    assert spike_correction_thresholds(0.5, 1) == (0.25, 0.25, 0.25, 0.125)
    assert spike_correction_thresholds(0.5, 3) == (0.0625, 0.0625, 0.0625, 0.0078125)
    with pytest.raises(ValueError):
        spike_correction_thresholds(0.0, 1)
    with pytest.raises(ValueError):
        spike_correction_thresholds(0.5, 0)


def test_gate_values_bound_measured_conditions():
    # the triangle-inequality gate must majorize what verification measures
    for start, k in ((3, 1), (32, 2), (117, 3)):
        spike = SpikeSpec(start, k)
        gate = spike_gate(1.0, 0.5, spike)
        measured = measure_spike_conditions(1.0, spike)
        for name, value in zip(gate.names, gate.values):
            assert measured[name] <= value * (1.0 + 1e-9), name


def test_selected_positions_frozen_and_minimal():
    starts = select_spike_positions(1.0, 0.5, 3)
    assert starts == [3, 32, 117]
    for k, start in enumerate(starts, start=1):
        assert spike_gate(1.0, 0.5, SpikeSpec(start, k)).passed
        if start > 1:
            assert not spike_gate(1.0, 0.5, SpikeSpec(start - 1, k)).passed


def test_selection_respects_gaps():
    starts = select_spike_positions(1.0, 0.25, 4)
    spikes = [SpikeSpec(s, k) for k, s in enumerate(starts, start=1)]
    for prev, nxt in zip(spikes, spikes[1:]):
        assert prev.end < nxt.start


def test_selection_input_validation():
    with pytest.raises(ValueError):
        select_spike_positions(-1.0, 0.5, 2)
    with pytest.raises(ValueError):
        select_spike_positions(1.0, 1.5, 2)
    with pytest.raises(ValueError):
        select_spike_positions(1.0, 0.5, 9)
    assert select_spike_positions(1.0, 0.5, 0) == []


def test_infeasible_budget_raises():
    with pytest.raises(InfeasibleConstructionError):
        select_spike_positions(1.0, 0.5, 1, max_start=2)


def test_gate_worst_margin():
    gate = spike_gate(1.0, 0.5, SpikeSpec(3, 1))
    assert gate.passed
    assert 0.9 < gate.worst_margin <= 1.0  # position 3 is binding


# ---------------------------------------------------------------------- #
# config round trip


def test_config_json_round_trip(standard_config):
    text = standard_config.to_json()
    back = ConstructionConfig.from_json(text)
    assert back == standard_config
    data = json.loads(text)
    assert set(data) == {"alpha", "delta", "K", "spike_starts", "r_max", "tol"}
    assert data["K"] == 3


def test_config_rejects_bad_payloads(standard_config):
    data = standard_config.to_dict()
    incomplete = {k: v for k, v in data.items() if k != "delta"}
    with pytest.raises(ValueError):
        ConstructionConfig.from_dict(incomplete)
    extra = dict(data, surplus=1)
    with pytest.raises(ValueError):
        ConstructionConfig.from_dict(extra)
    with pytest.raises(ValueError):
        ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=2, spike_starts=(3,))
    with pytest.raises(ValueError):
        ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=2, spike_starts=(3, 4))
    with pytest.raises(ValueError):
        ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=1, spike_starts=(3,), r_max=1.0)


def test_delta_for_epsilon_map():
    assert delta_for_epsilon(2.0) == 0.5
    assert delta_for_epsilon(0.5) == 0.125
    # small epsilon: the eps/4 branch, large epsilon: the eps/(1+eps) branch
    assert delta_for_epsilon(0.01) == pytest.approx(0.0025, rel=1e-15)
    assert delta_for_epsilon(100.0) == pytest.approx(100.0 / 101.0, rel=1e-15)
    assert delta_for_epsilon(1e9) < 1.0
    with pytest.raises(ValueError):
        delta_for_epsilon(0.0)


# ---------------------------------------------------------------------- #
# verification layers


def test_f_conditions_pass_for_standard_config(standard_config):
    report = verify_f_conditions(standard_config)
    assert report.passed
    names = [c.condition for c in report.conditions]
    assert names[:5] == ["ratio_deviation", "laplacian_sup", "gradient_sup",
                         "laplacian_carleson", "gradient_carleson"]
    assert len(report.conditions) == 5 + 3 * 5
    assert report.failures() == []
    # the summation inequality behind the gates: the assembled ratio comes
    # in below the sum of its per-spike measurements
    by_name = {c.condition: c for c in report.conditions}
    spike_sum = sum(by_name[f"spike{k}_laplacian_sup"].measured for k in (1, 2, 3))
    assert by_name["laplacian_sup"].measured <= spike_sum * (1.0 + 1e-9)
    carl_sum = sum(by_name[f"spike{k}_laplacian_carleson"].measured for k in (1, 2, 3))
    assert by_name["laplacian_carleson"].measured <= carl_sum * (1.0 + 1e-9)


def test_gradient_window_norms_subadditive(standard_config):
    # L2 window masses of the gradient: assembled f never exceeds the sum
    # of its spike terms on any tested window, by Minkowski in L2
    from hardyshift import RadialSeries, window_measure
    from hardyshift.carleson import SeriesGapDensity

    w = standard_config.weights()
    terms = [spike_ratio_term(w.alpha, sp) for sp in w.spikes]
    f_extra = RadialSeries.zero()
    for t in terms:
        f_extra = f_extra.add(t)
    total = SeriesGapDensity(f_extra.grad_sq(), 1, nonneg=True)
    parts = [SeriesGapDensity(t.grad_sq(), 1, nonneg=True) for t in terms]
    for t in (1.0, 0.5, 0.125, 2.0**-8):
        lhs = math.sqrt(window_measure(total, t))
        rhs = sum(math.sqrt(window_measure(p, t)) for p in parts)
        assert lhs <= rhs * (1.0 + 1e-9)


def test_spike_value_sup_closed_form():
    # |c_1| sup s^4 (1-s) for the first standard spike: 0.75 * (4/5)^4 / 5
    measured = measure_spike_conditions(1.0, SpikeSpec(3, 1))
    assert measured["value_sup"] == pytest.approx(0.75 * 256.0 / 3125.0, rel=1e-12)


def test_f_conditions_fail_for_halved_positions():
    config = ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=3,
                                spike_starts=(1, 16, 58))
    report = verify_f_conditions(config)
    assert not report.passed
    failing = {c.condition for c in report.failures()}
    assert any("laplacian_carleson" in name for name in failing)


def test_theorem_conditions_at_matched_epsilon(standard_config):
    report = verify_theorem_conditions(standard_config, epsilon=2.0)
    assert report.passed
    names = [c.condition for c in report.conditions]
    assert names == ["ratio_band", "curvature_sup", "curvature_carleson"]
    assert report.meta["delta_sufficient"] == 0.5


def test_constructed_config_passes_at_requested_epsilon():
    epsilon = 0.5
    config = ConstructionConfig.plan(1.0, delta_for_epsilon(epsilon), 2)
    assert verify_f_conditions(config).passed
    assert verify_theorem_conditions(config, epsilon).passed


def test_trivial_config_passes_everything():
    config = ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=0, spike_starts=())
    assert verify_f_conditions(config).passed
    report = verify_theorem_conditions(config, epsilon=0.01)
    assert report.passed
    by_name = {c.condition: c for c in report.conditions}
    assert by_name["ratio_band"].measured == 1.0
    assert by_name["curvature_sup"].measured == 0.0


def test_verification_report_serialization(standard_config):
    report = verify_f_conditions(standard_config)
    data = report.to_dict()
    assert data["passed"] is True
    spikes = standard_config.weights().spikes
    assert len(data["conditions"]) == 5 + 5 * len(spikes)
    assert all(set(c) == {"condition", "threshold", "measured", "argmax_r", "pass"}
               for c in data["conditions"])
    # every spike row is held to the budget the spike search gated on
    rows = {c["condition"]: c for c in data["conditions"]}
    for sp in spikes:
        gate = spike_gate(standard_config.alpha, standard_config.delta, sp)
        for name, threshold in zip(gate.names, gate.thresholds):
            assert rows[f"spike{sp.half_width}_{name}"]["threshold"] == threshold
    assert "laplacian" in data["scans"]
    assert data["scans"]["laplacian"]["at_unit_depth"] <= data["scans"]["laplacian"]["value"]


def test_theorem_conditions_reject_bad_epsilon(standard_config):
    with pytest.raises(ValueError):
        verify_theorem_conditions(standard_config, epsilon=0.0)
