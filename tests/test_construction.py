"""Spike placement, gates, configs, and the two verification layers."""

import json
import math
import random
from fractions import Fraction

import bump_oracles
import fraction_oracles
import mpmath
import numpy as np
import pytest
import search_oracles
from conftest import K16_STARTS, K24_STARTS, SMALL_DELTA_K8, spiked_layouts
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from series_oracles import edge_bump, kernel_ratio
from theorem_oracles import sampled_theorem_rows

from hardyshift import (
    ConstructionConfig,
    InfeasibleConstructionError,
    build_spiked_weights,
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
from hardyshift import cli, construction, grids, search
from hardyshift.carleson import gradient_sq_mass, term_decay
from hardyshift.search import MAX_POWER, Terms
from hardyshift.construction import Decay, measure_spike_conditions
from hardyshift.series import RadialSeries
from hardyshift.spectral import deficit_coefficients, spike_kernel_term, spike_ratio_term
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
    assert rep.laplacian_carleson == pytest.approx(2.0 * math.pi * oracle, rel=1e-10)
    oracle2, _ = quad(lambda r: grad.eval(r * r) * (1.0 - r) * r, 0.0, 1.0, limit=200)
    assert rep.gradient_sq_carleson == pytest.approx(2.0 * math.pi * oracle2, rel=1e-10)

    # suprema against a dense independent grid
    r = np.linspace(0.0, 0.999999, 2_000_001)
    assert rep.laplacian_sup >= np.max(np.abs(lap.eval(r * r)) * (1.0 - r) ** 2) - 1e-12
    assert rep.gradient_sup ** 2 >= np.max(grad.eval(r * r) * (1.0 - r) ** 2) - 1e-12
    assert rep.value_sup == pytest.approx(bump_peak(n)[1], rel=1e-15)


def test_lemma_report_scaling_rates():
    # the sups, the Laplacian mass and the squared gradient sup scale like
    # 1/n, the gradient mass like 1/n^2: tenfold n must shrink each by at
    # least a factor 5 (linear) or 50 (quadratic)
    small, big = lemma_bounds(100), lemma_bounds(1000)
    assert big.value_sup < small.value_sup / 5.0
    assert big.laplacian_sup < small.laplacian_sup / 5.0
    assert big.laplacian_carleson < small.laplacian_carleson / 5.0
    assert big.gradient_sup ** 2 < small.gradient_sup ** 2 / 50.0
    assert big.gradient_sq_carleson < small.gradient_sq_carleson / 50.0


def test_carleson_bounds_majorize_measured_masses():
    for n in (1, 10, 100, 1000):
        rep = lemma_bounds(n)
        assert rep.laplacian_carleson <= bump_laplacian_carleson_bound(n)
        assert rep.gradient_sq_carleson <= bump_gradient_sq_carleson_bound(n)


def test_pointwise_laplacian_majorization():
    # |Delta psi_n| (1-r)^2 <= 2 (n+1)^2 r^{2n-2} (1-r)^3 + (2n+1) r^{2n-2} (1-r)^2
    for n in (2, 9, 33):
        lap = edge_bump(n).laplacian()
        r = np.linspace(0.0, 0.999999, 40_001)
        s = r * r
        lhs = np.abs(lap.eval(s)) * (1.0 - r) ** 2
        rhs = (2.0 * (n + 1) ** 2 * (1.0 - r) + (2 * n + 1)) * r ** (2 * n - 2) * (1.0 - r) ** 2
        assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-300)



def test_lemma_calls_no_refined_supremum(monkeypatch):
    # every column is a closed form or a brentq critical point; no grid
    def refuse(*args, **kwargs):
        raise AssertionError("refined_supremum called")

    # the lemma lives in hardyshift.search, which imports no grid code
    assert not hasattr(search, "refined_supremum")
    monkeypatch.setattr(grids, "refined_supremum", refuse)
    for n in (1, 2, 34, 2248, 6240348396):
        construction.lemma_bounds.__wrapped__(n)


def test_verify_f_runs_no_grid_supremum(monkeypatch):
    # every flatness supremum is read from the boundary blocks
    def refuse(*args, **kwargs):
        raise AssertionError("refined_supremum called")

    monkeypatch.setattr(grids, "refined_supremum", refuse)
    config = ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=8,
                                spike_starts=(3, 32, 117, 343, 906, 2248, 5368, 12479))
    report = verify_f_conditions(config)
    assert report.passed
    assert "grid_points" not in report.meta


def test_one_gradient_supremum_feeds_lemma_and_gate():
    # the lemma's gradient sup is the true one, and the gate carries it
    # times the budget, bit for bit
    for n in (1, 34, 2248, 172510):
        exact = bump_oracles.gradient_sup(n)
        assert abs(lemma_bounds(n).gradient_sup - exact) <= 1e-15 * exact, n
    for k, start in enumerate(STANDARD_STARTS, start=1):
        gate = spike_gate(1.0, 0.5, SpikeSpec(start, k))
        assert gate.values[2] == gate.budget * max(lemma_bounds(m).gradient_sup
                                                   for m in gate.spike.interior)


def test_lemma_gradient_columns_match_mpmath_across_the_search_range():
    # all four computed columns: 8 seeded random n per decade from 1e5 to
    # MAX_POWER, never a power of ten (powers of ten hide errors that
    # random n show), and both ends
    rng = random.Random(20260417)
    powers = [1, 2, MAX_POWER] + [rng.randrange(10 ** d + 1, min(10 ** (d + 1), MAX_POWER))
                                  for d in range(5, 13) for _ in range(8)]
    for n in powers:
        rep = lemma_bounds(n)
        checks = ((rep.laplacian_sup, bump_oracles.laplacian_sup(n), 1e-15),
                  (rep.gradient_sup ** 2, bump_oracles.gradient_sup(n) ** 2, 2e-15),
                  (rep.laplacian_carleson, bump_oracles.laplacian_mass(n), 1e-15),
                  (rep.gradient_sq_carleson, bump_oracles.gradient_sq_mass(n), 1e-15))
        for name, (value, exact, rel) in zip(Decay._fields[1:], checks):
            assert abs(value - exact) <= rel * exact, (n, name)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, MAX_POWER - 1))
@example(n=2)
@example(n=MAX_POWER - 1)
def test_lemma_columns_decrease_in_the_power(n):
    # the search takes the gate as monotone in the start
    for name, now, nxt in zip(Decay._fields, lemma_bounds(n), lemma_bounds(n + 1)):
        assert nxt < now, (n, name)


def test_lemma_columns_decrease_where_the_grid_sups_rose():
    # the grid sups rose on 19 (laplacian) and 17 (gradient) of these 39 steps
    reports = [lemma_bounds(n) for n in range(416216560, 416216600)]
    for name, column in zip(Decay._fields, zip(*reports)):
        assert all(b < a for a, b in zip(column, column[1:])), name


# ---------------------------------------------------------------------- #
# gates and placement


def test_spike_budget_frozen_values():
    assert spike_budget(1.0, SpikeSpec(3, 1)) == pytest.approx(0.75, rel=1e-14)
    assert spike_budget(1.0, SpikeSpec(32, 2)) == pytest.approx(2.4375, rel=1e-14)
    # at alpha = 1 the deficits 4^-j - 1 and every partial sum are dyadic
    # rationals, so the budget, added in index order, is exact at every
    # half width the search reaches: 32 at delta 0.5, whose spike 33 finds
    # no start below the cap (and whose budget is the first to round)
    frozen = (0.75, 2.4375, 4.359375, 6.33984375, 8.3349609375, 10.333740234375,
              12.33343505859375, 14.333358764648438)
    for h in range(1, 33):
        deficits = deficit_coefficients(1.0, h)
        assert [type(c) for c in deficits] == [float] * h
        assert deficits == [float(Fraction(1, 4 ** j) - 1) for j in range(1, h + 1)]
        exact = sum(2 * (1 - Fraction(1, 4 ** j)) for j in range(1, h)) + 1 - Fraction(1, 4 ** h)
        assert spike_budget(1.0, SpikeSpec(10, h)) == float(exact)
        if h <= len(frozen):
            assert float(exact) == frozen[h - 1]


def test_gate_and_verifier_read_the_same_deficits():
    # spike_gate sums deficit_coefficients; the verifier's spike term carries
    # the same floats, at an alpha whose deficits are not dyadic
    spike = SpikeSpec(40, 5)
    deficits = deficit_coefficients(0.8, 5)
    term = RadialSeries(*spike_kernel_term(0.8, spike))
    assert term.coeffs.tolist() == [deficits[j - 1] for j in spike.step(term.exponents).tolist()]


def test_spike_correction_thresholds():
    assert spike_correction_thresholds(0.5, 1) == (0.25, 0.25, 0.25, 0.25, 0.125)
    assert spike_correction_thresholds(0.5, 3) == (0.0625,) * 4 + (0.0078125,)
    with pytest.raises(ValueError):
        spike_correction_thresholds(0.0, 1)
    with pytest.raises(ValueError):
        spike_correction_thresholds(0.5, 0)


def test_gate_values_bound_measured_conditions():
    # the triangle-inequality gate must majorize what verification measures
    for start, k in ((3, 1), (32, 2), (117, 3)):
        spike = SpikeSpec(start, k)
        gate = spike_gate(1.0, 0.5, spike)
        measured = measure_spike_conditions(1.0, [spike])[0]
        for name, m, value in zip(Decay._fields, measured, gate.values):
            assert m <= value * (1.0 + 1e-9), name


def test_selected_positions_frozen_and_minimal():
    starts = select_spike_positions(1.0, 0.5, 3)
    assert starts == [3, 32, 117]
    for k, start in enumerate(starts, start=1):
        assert spike_gate(1.0, 0.5, SpikeSpec(start, k)).passed
        if start > 1:
            assert not spike_gate(1.0, 0.5, SpikeSpec(start - 1, k)).passed


def test_small_delta_starts_frozen_and_verified():
    # the grid lemma's noise pushed spikes 4 ... 8 past these minimal starts;
    # the verifier's Laplacian rows, then cancelling float products, failed
    # spikes 6 and 8 here by 2.5e-8 and 2.2e-9 relative
    assert tuple(select_spike_positions(1.0, 1e-6, 8)) == SMALL_DELTA_K8
    config = ConstructionConfig(alpha=1.0, delta=1e-6, n_spikes=8, spike_starts=SMALL_DELTA_K8)
    report = verify_f_conditions(config)
    assert report.passed, report.failures()


def test_verify_f_passes_at_16_spikes():
    # every row passes, and the gradient masses of f - 1 and of each spike
    # term are the Fraction sum's doubles
    config = ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=16, spike_starts=K16_STARTS)
    report = verify_f_conditions(config)
    assert len(report.conditions) == 85
    assert report.passed, report.failures()
    rows = {c.condition: c.measured for c in report.conditions}
    f = kernel_ratio(config)
    series = {f"spike{sp.half_width}_gradient_sq_carleson": spike_ratio_term(1.0, sp)
              for sp in config.weights().spikes}
    series["gradient_carleson"] = Terms(f.exponents[1:], f.coeffs[1:])
    for name, g in series.items():
        assert rows[name] == fraction_oracles.gradient_sq_mass(g), name


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
        select_spike_positions(1.0, 0.5, -1)
    assert select_spike_positions(1.0, 0.5, 0) == []
    # no cap on the spike count: the search itself stops where no start at
    # or below MAX_START passes
    with pytest.raises(InfeasibleConstructionError, match="spike 33 "):
        select_spike_positions(1.0, 0.5, 33)


def test_infeasible_budget_raises(monkeypatch):
    monkeypatch.setattr(search, "MAX_START", 2)
    with pytest.raises(InfeasibleConstructionError):
        select_spike_positions(1.0, 0.5, 1)


def test_search_probes_up_to_the_cap_itself(monkeypatch):
    # spike 2 steps from its floor 6 to 28 and 31, short of 32; the doubling
    # of 31, 62, passes the cap, so the next probe must be the cap 40, which
    # passes, and the search goes on down to 32
    monkeypatch.setattr(search, "MAX_START", 40)
    assert select_spike_positions(1.0, 0.5, 2) == [3, 32]


def _record_probes(mp: pytest.MonkeyPatch) -> list[int]:
    """Patch search.probe_and_predict through mp to record the start of each
    head probe; return the list it fills."""
    probe, probes = search.probe_and_predict, []

    def recorded(budget, thresholds, start):
        probes.append(start)
        return probe(budget, thresholds, start)

    mp.setattr(search, "probe_and_predict", recorded)
    return probes


def test_search_never_probes_past_the_cap(monkeypatch):
    # spike 1 ends at 5, so spike 2's floor 6 is already past the cap;
    # both the head probes and the gates over the interior that confirm
    # them are recorded: every gate read, at the start before its first power
    monkeypatch.setattr(search, "MAX_START", 5)
    probed, read, values = _record_probes(monkeypatch), [], search._gate_values

    def recorded_values(budget, powers):
        read.append(powers[0] - 1)
        return values(budget, powers)

    monkeypatch.setattr(search, "_gate_values", recorded_values)
    with pytest.raises(InfeasibleConstructionError):
        select_spike_positions(1.0, 0.5, 2)
    confirmed = read.copy()
    for n in probed:  # each probe reads the gate once, at its own start
        confirmed.remove(n)
    assert probed and confirmed == [3]
    assert max(probed) <= 5


def _search_outcome(select, alpha, delta, n_spikes):
    """The starts select returns, or the message of the InfeasibleConstructionError it raises."""
    try:
        return select(alpha, delta, n_spikes)
    except InfeasibleConstructionError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(alpha=st.sampled_from((0.3, 0.6, 1.0, 2.5, 100.0)), delta=st.floats(1e-12, 0.99),
       n_spikes=st.integers(1, 6), cap=st.sampled_from((None, 5, 40)))
@example(alpha=1.0, delta=0.5, n_spikes=6, cap=None)
@example(alpha=1.0, delta=1e-3, n_spikes=4, cap=None)
@example(alpha=1.0, delta=0.5, n_spikes=2, cap=40)
@example(alpha=1.0, delta=0.5, n_spikes=2, cap=5)
@example(alpha=0.3, delta=1e-12, n_spikes=6, cap=None)
def test_search_matches_the_doubling_and_bisection_oracle(alpha, delta, n_spikes, cap):
    # the same starts, or the same InfeasibleConstructionError, under the
    # start cap and under caps of 5 and 40, with no probe past the cap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "MAX_START", cap or search.MAX_START)
        probes = _record_probes(mp)
        outcome = _search_outcome(select_spike_positions, alpha, delta, n_spikes)
        assert probes and max(probes) <= search.MAX_START
        assert outcome == _search_outcome(search_oracles.select_spike_positions,
                                          alpha, delta, n_spikes)


def _scaled(factor):
    """Lemma reports with every column of lemma_bounds(n) times factor(n)."""
    return lambda bumps, n: Decay(*(factor(n) * v for v in bumps(n)))


# lemma reports, from the true ones, whose columns break the 1/n and 1/n^2
# decay the search's steps assume
BROKEN_DECAYS = {
    "rising": _scaled(lambda n: n * n),  # no start passes: the search runs into the cap
    "constant": lambda bumps, n: bumps(7),  # a spike passes at its floor or nowhere
    "slower": _scaled(lambda n: n ** 0.5),
    "much_slower": _scaled(lambda n: n / math.log(n + 1.0)),
    "faster": _scaled(lambda n: 1.0 / n),
    "jump": _scaled(lambda n: 10.0 if n < 5000 else 1.0),
    "gradient_mass_slower": lambda bumps, n: bumps(n)._replace(
        gradient_sq_carleson=n * bumps(n).gradient_sq_carleson),
}


@pytest.mark.parametrize("decay", sorted(BROKEN_DECAYS))
def test_search_keeps_the_oracle_start_where_the_decay_order_breaks(monkeypatch, decay):
    # each probe still decides by value <= threshold, so the starts stay the
    # oracle's, and the fallback steps keep the probes within 2x its + 4
    report, bumps = BROKEN_DECAYS[decay], lemma_bounds
    monkeypatch.setattr(search, "lemma_bounds", lambda n: report(bumps, n))
    probes = _record_probes(monkeypatch)
    for args in ((1.0, 0.5, 6), (1.0, 1e-3, 4), (1.0, 1e-6, 8), (0.3, 1e-9, 3), (100.0, 0.9, 5),
                 (2.5, 1e-12, 2)):
        probes.clear()
        expected = _search_outcome(search_oracles.select_spike_positions, *args)
        oracle_probes = len(probes)
        probes.clear()
        assert _search_outcome(select_spike_positions, *args) == expected, args
        assert len(probes) <= 2 * oracle_probes + 4, (args, len(probes), oracle_probes)


@pytest.mark.parametrize("delta, n_spikes, most", [(1e-3, 4, 35), (1e-6, 8, 100)])
def test_plan_lemma_misses_are_bounded(delta, n_spikes, most):
    # the doubling and bisection missed the lemma cache 88 and 312 times
    lemma_bounds.cache_clear()
    ConstructionConfig.plan(1.0, delta, n_spikes)
    assert lemma_bounds.cache_info().misses <= most


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alpha=st.sampled_from((0.3, 0.6, 1.0, 2.5, 100.0)), k=st.integers(1, 8),
       start=st.integers(1, search.MAX_START), delta=st.floats(1e-12, 0.99))
@example(alpha=1.0, k=3, start=117, delta=0.5)
@example(alpha=1.0, k=3, start=116, delta=0.5)
@example(alpha=1.0, k=8, start=search.MAX_START, delta=1e-12)
def test_head_probe_decides_as_the_gate(alpha, k, start, delta):
    # the search probes with the head power alone; it must decide as the
    # full gate does, here and at the delta that puts the gate at its edge
    spike = SpikeSpec(start, k)

    def probe(delta):
        thresholds = spike_correction_thresholds(delta, k)
        return search.probe_and_predict(spike_budget(alpha, spike), thresholds, start)[0]

    gate = spike_gate(alpha, delta, spike)
    assert probe(delta) == gate.passed
    edge = delta * max(v / t for v, t in zip(gate.values, gate.thresholds))
    if edge < 1.0:
        assert probe(edge) == spike_gate(alpha, edge, spike).passed


def test_search_confirms_with_the_full_gate_where_a_column_rises(monkeypatch):
    # inflate the last interior power of spike 2's minimal layout (33 .. 35),
    # which no head probe of its search reads: the search lands on 32, whose
    # full gate fails, and must step up to 35, the first start past it
    bumps = search.lemma_bounds

    def inflated(n):
        return Decay(*(10.0 * v for v in bumps(n))) if n == 35 else bumps(n)

    monkeypatch.setattr(search, "lemma_bounds", inflated)
    budget, thresholds = spike_budget(1.0, SpikeSpec(32, 2)), spike_correction_thresholds(0.5, 2)
    assert search.probe_and_predict(budget, thresholds, 32)[0]
    assert not spike_gate(1.0, 0.5, SpikeSpec(32, 2)).passed
    starts = select_spike_positions(1.0, 0.5, 3)
    assert starts[:2] == [3, 35]
    for k, start in enumerate(starts, start=1):
        assert spike_gate(1.0, 0.5, SpikeSpec(start, k)).passed
        assert not spike_gate(1.0, 0.5, SpikeSpec(start - 1, k)).passed


def test_search_reaches_32_spikes_below_the_start_cap():
    # the last spike is gated up to power 910607260958 + 63, inside MAX_POWER
    starts = select_spike_positions(1.0, 0.5, 32)
    assert tuple(starts[:24]) == K24_STARTS
    assert starts[-1] == 910607260958


def test_gate_worst_margin():
    gate = spike_gate(1.0, 0.5, SpikeSpec(3, 1))
    assert gate.passed
    worst = max(v / t for v, t in zip(gate.values, gate.thresholds))
    assert 0.9 < worst <= 1.0  # position 3 is binding


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


@pytest.mark.parametrize("change, message", [
    ({"alpha": "1"}, "alpha must be a real number, got '1'"),
    ({"delta": None}, "delta must be a real number, got None"),
    ({"n_spikes": 1.0}, "n_spikes must be an integer, got 1.0"),
    ({"alpha": -1.0}, "alpha must be positive and finite"),
    ({"alpha": math.inf}, "alpha must be positive and finite"),
    ({"delta": 1.0}, "delta must lie in (0, 1)"),
    ({"n_spikes": -1}, "n_spikes must be nonnegative, got -1"),
    ({"r_max": True}, "r_max must be a real number, got True"),
    ({"tol": "1e-9"}, "tol must be a real number, got '1e-9'"),
    ({"r_max": 1.0}, "r_max must lie in (0, 1)"),
    ({"tol": math.nan}, "tol must be positive and finite"),
    ({"spike_starts": (3, 3.5)}, "spike starts must be integers, got 3.5"),
    ({"spike_starts": (3, 4)},
     "spikes must be separated: start 3 with half width 1 reaches 5, next start 4"),
    ({"n_spikes": 3}, "n_spikes must equal len(spike_starts)"),
    ({"spike_starts": (3, 2 ** 41)}, "spike starts must not exceed 1099511627776, "
                                     "got 2199023255552"),
])
def test_config_checks_name_the_fault(change, message):
    valid = dict(alpha=1.0, delta=0.5, n_spikes=2, spike_starts=(3, 32))
    ConstructionConfig(**valid)
    with pytest.raises(ValueError) as info:
        ConstructionConfig(**{**valid, **change})
    assert str(info.value) == message


def test_configs_are_values(standard_config):
    # equal and hashed by their fields, which cannot be set; _replace runs
    # the checks; the cached ratio rows are one object
    same = ConstructionConfig(alpha=1, delta=0.5, n_spikes=3, spike_starts=[3, 32, 117])
    assert same == standard_config and hash(same) == hash(standard_config)
    assert same != ConstructionConfig(1.0, 0.5, 3, (3, 32, 117), r_max=0.99)
    assert len({same, standard_config}) == 1
    for name in ("alpha", "delta", "n_spikes", "spike_starts", "r_max", "tol"):
        with pytest.raises(AttributeError):
            setattr(same, name, getattr(same, name))
    with pytest.raises(ValueError, match="n_spikes must equal"):
        same._replace(n_spikes=2)
    assert type(same._replace(alpha=np.float64(0.5)).alpha) is float
    rows = same.ratio_decay
    assert same.ratio_decay is rows
    assert same == standard_config


def test_library_input_is_never_truncated():
    # from_dict refuses these; the constructors refuse them too instead of
    # truncating 3.9 to 3 or reading True as alpha 1.0
    for starts in ((3.9, 32.2), (3, True), (3.0, 32)):
        with pytest.raises(ValueError, match="integers"):
            ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=2, spike_starts=starts)
    for alpha in (True, "1.0", None):
        with pytest.raises(ValueError, match="alpha"):
            build_spiked_weights(alpha, [3])
    with pytest.raises(ValueError, match="integers"):
        build_spiked_weights(1.0, [3.9])
    # Python and numpy integers stay accepted, stored as Python ints
    config = ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=2,
                                spike_starts=(np.int64(3), 32))
    assert config.spike_starts == (3, 32)
    assert type(config.spike_starts[0]) is int
    assert build_spiked_weights(np.float64(1.0), [np.int32(3)]).spikes[0].start == 3


def test_library_numbers_are_checked_by_type():
    # K = True was stored and written as "K": true, which from_json refuses;
    # strings raised TypeError instead of ValueError
    valid = dict(alpha=1.0, delta=0.5, n_spikes=1, spike_starts=(3,))
    for change in ({"n_spikes": True}, {"n_spikes": 1.0}, {"alpha": "1"}, {"delta": "0.5"},
                   {"delta": True}, {"r_max": "0.999"}, {"tol": None}):
        with pytest.raises(ValueError):
            ConstructionConfig(**{**valid, **change})
    for args in ((True, 0.5, 1), (1.0, 0.5, True), (1.0, "0.5", 1), (1.0, 0.5, 1.0)):
        with pytest.raises(ValueError):
            select_spike_positions(*args)
    # numpy numbers stay accepted, stored as Python numbers for the JSON round trip
    config = ConstructionConfig(alpha=np.float64(1.0), delta=np.float32(0.5),
                                n_spikes=np.int64(1), spike_starts=(3,))
    assert ConstructionConfig.from_json(config.to_json()) == config
    assert type(config.n_spikes) is int


def test_config_rejects_starts_past_the_search_cap(monkeypatch):
    # the verifier's grid cannot reach a bump peak far past MAX_START: at
    # start 2^60 it read every spike2 sup as 0
    at_cap = (3, search.MAX_START)
    assert ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=2,
                              spike_starts=at_cap).spike_starts == at_cap
    with pytest.raises(ValueError, match="exceed"):
        ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=2, spike_starts=(3, 2**60))
    monkeypatch.setattr(search, "MAX_START", 40)  # read at check time
    with pytest.raises(ValueError, match="exceed"):
        ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=2, spike_starts=(3, 41))


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
    # L2 masses of the gradient: the assembled f never exceeds the sum of
    # its spike terms, by Minkowski in L2
    w = standard_config.weights()
    terms = [spike_ratio_term(w.alpha, sp) for sp in w.spikes]
    f_extra = RadialSeries.zero()
    for t in terms:
        f_extra = f_extra.add(t)
    lhs = math.sqrt(gradient_sq_mass(f_extra))
    rhs = sum(math.sqrt(gradient_sq_mass(t)) for t in terms)
    assert lhs <= rhs * (1.0 + 1e-9)


def _mp_gradient_sq_mass(g: RadialSeries) -> mpmath.mpf:
    """2 pi sum_ij a_i a_j / (2E (2E+1)), a_i = e_i c_i and E = e_i + e_j, at
    60 digits: the mass of s G'^2 (1-r) r dr for the float coefficients of G."""
    with mpmath.workdps(60):
        a = [(int(e), int(e) * mpmath.mpf(float(c))) for e, c in zip(g.exponents, g.coeffs)]
        return 2 * mpmath.pi * mpmath.fsum(ai * aj / (2 * (ei + ej) * (2 * (ei + ej) + 1))
                                           for ei, ai in a for ej, aj in a if ei and ej)


def test_gradient_masses_match_mpmath_at_large_starts():
    # the expanded float s G'^2 read spike 8 here 68 times too large and
    # gradient_carleson 0.26 % too small
    config = ConstructionConfig(alpha=1.0, delta=1e-6, n_spikes=8, spike_starts=SMALL_DELTA_K8)
    rows = {c.condition: c.measured for c in verify_f_conditions(config).conditions}
    series = {f"spike{sp.half_width}_gradient_sq_carleson": spike_ratio_term(1.0, sp)
              for sp in config.weights().spikes}
    series["gradient_carleson"] = kernel_ratio(config).add(RadialSeries.from_terms([(0, -1.0)]))
    for name, g in series.items():
        exact = _mp_gradient_sq_mass(g)
        assert abs(rows[name] - exact) <= 1e-15 * exact, name
    # the closed form against 40-digit quadrature of the density, spike 8
    g = series["spike8_gradient_sq_carleson"]
    n = int(g.exponents[0])
    with mpmath.workdps(40):
        a = [(int(e) - n, int(e) * mpmath.mpf(float(c))) for e, c in zip(g.exponents, g.coeffs)]

        def density(r):
            s = r * r
            d = s ** (n - 1) * mpmath.fsum(c * s ** j for j, c in a)
            return s * d * d * (1 - r) * r

        cuts = [0] + [1 - mpmath.mpf(2) ** j / n for j in range(8, -5, -1)] + [1]
        quadrature = 2 * mpmath.pi * mpmath.quad(density, cuts)
        assert abs(_mp_gradient_sq_mass(g) / quadrature - 1) < 1e-25


def _mp_laplacian_mass(g: RadialSeries) -> mpmath.mpf:
    """2 pi integral |Delta G(r^2)| (1-r) r dr at 40 digits for the float
    coefficients of G, Delta G = sum e^2 c_e s^{e-1} with exact e^2 c_e: quad
    split at the sign changes (bracketed on a grid in 1 - r, then polished)
    and at a geometric grid toward r = 1."""
    with mpmath.workdps(40):
        terms = [(int(e) - 1, int(e) ** 2 * mpmath.mpf(float(c)))
                 for e, c in zip(g.exponents, g.coeffs) if e > 0]
        low = terms[0][0]

        def lap(u):  # Delta G at r = 1 - u
            s = (1 - u) ** 2
            return s ** low * mpmath.fsum(c * s ** (e - low) for e, c in terms)

        grid = [u for u in (mpmath.mpf(j) / (8 * (low + 1)) for j in range(1, 400)) if u < 1]
        values = [lap(u) for u in grid]
        roots = [mpmath.findroot(lap, (a, b), solver="anderson")
                 for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]) if (fa < 0) != (fb < 0)]
        depths = [mpmath.mpf(2) ** j / (low + 1) for j in range(10, -8, -1)]
        cuts = sorted({mpmath.mpf(0), mpmath.mpf(1), *(1 - u for u in roots + depths if u < 1)})
        return 2 * mpmath.pi * mpmath.quad(lambda r: abs(lap(1 - r)) * (1 - r) * r, cuts)


def test_spike_laplacian_masses_match_mpmath_at_large_starts():
    # the float products e^2 c_e of the Laplacian series read spike 6 here
    # 3e-8 too large, a FAIL of a passing row
    config = ConstructionConfig(alpha=1.0, delta=1e-6, n_spikes=8, spike_starts=SMALL_DELTA_K8)
    rows = {c.condition: c.measured for c in verify_f_conditions(config).conditions}
    for sp in config.weights().spikes:
        exact = _mp_laplacian_mass(spike_ratio_term(1.0, sp))
        assert abs(rows[f"spike{sp.half_width}_laplacian_carleson"] - exact) <= 1e-15 * exact, sp


def _mp_many_block_laplacian_mass(g: RadialSeries) -> mpmath.mpf:
    """2 pi integral |Delta G(r^2)| (1-r) r dr at 40 digits for the float
    coefficients of G with exact e^2 c_e, for G with many runs of exponents:
    sign changes bracketed on a grid of 8 points per octave in u = 1 - r
    down to 2^-10 / N of the last run, polished by findroot, and the pieces
    between them read from the antiderivative."""
    with mpmath.workdps(40):
        terms = [(int(e), mpmath.mpf(float(c))) for e, c in zip(g.exponents, g.coeffs) if e > 0]

        def lap(u):  # Delta G at r = 1 - u
            return mpmath.fsum(e * e * c * (1 - u) ** (2 * e - 2) for e, c in terms)

        def antiderivative(u):  # of Delta G (1-r) r dr, from r = 0 to r = 1 - u
            r = 1 - u
            return mpmath.fsum(e * c * r ** (2 * e) / 2 - e * e * c * r ** (2 * e + 1) / (2 * e + 1)
                               for e, c in terms)

        octaves = 10 + terms[-1][0].bit_length()
        grid = [mpmath.mpf(2) ** (-k / mpmath.mpf(8)) for k in range(8 * octaves, 0, -1)]
        values = [lap(u) for u in grid]
        roots = [mpmath.findroot(lap, (a, b), solver="anderson")
                 for a, b, fa, fb in zip(grid, grid[1:], values, values[1:])
                 if (fa < 0) != (fb < 0)]
        ends = [antiderivative(u) for u in [mpmath.mpf(0), *roots, mpmath.mpf(1)]]
        return 2 * mpmath.pi * mpmath.fsum(abs(b - a) for a, b in zip(ends, ends[1:]))


@pytest.mark.parametrize("delta, starts", [
    (0.5, (3, 32, 117, 343, 906, 2248, 5368, 12479)),
    (1e-3, (2549, 16580, 59309, 172510)),
    (1e-6, SMALL_DELTA_K8),
])
def test_ratio_laplacian_mass_matches_mpmath(delta, starts):
    # the float products e^2 c_e of the Laplacian series read this row
    # 3.3e-15, 5.5e-13 and 2.5e-9 too large
    config = ConstructionConfig(alpha=1.0, delta=delta, n_spikes=len(starts), spike_starts=starts)
    rows = {c.condition: c.measured for c in verify_f_conditions(config).conditions}
    f_minus_one = kernel_ratio(config).add(RadialSeries.from_terms([(0, -1.0)]))
    exact = _mp_many_block_laplacian_mass(f_minus_one)
    assert abs(rows["laplacian_carleson"] - exact) <= 1e-15 * exact


def test_laplacian_mass_of_far_apart_spikes_matches_mpmath():
    # spike 24 of the K = 24, delta 0.5 layout, 49 terms at powers near 2.6e9,
    # read at the cuts of spike 1: its rising sums overflowed in tail_ratio
    # and the mass read NaN
    g = RadialSeries(*spike_ratio_term(1.0, SpikeSpec(3, 1))).add(
        RadialSeries(*spike_ratio_term(1.0, SpikeSpec(2644017572, 24))))
    mass = term_decay(g)[3][1]
    exact = _mp_many_block_laplacian_mass(g)
    assert abs(mass - exact) <= 1e-15 * exact


# the starts `construct --alpha 1 --delta 1e-8 --K 8` selects, up to 6.2e11
TINY_DELTA_K8 = (255100997, 1658156492, 5931098224, 17251205053, 45360146375, 112475624818,
                 268481843537, 624034839756)
# the starts `construct --alpha 100 --delta 0.5 --K 8` selects; spikes 6 - 8
# have differences g_n - g_{n-1} that round to exactly 0
ALPHA100_K8 = (5, 39, 134, 379, 978, 2393, 5658, 13059)
# (start, h) of the four widest spikes of the alpha 1, delta 0.5, K = 32 layout,
# whose ratio terms hold 4 to 10 exact zeros
K32_WIDEST = ((102869403141, 29), (213043142602, 30), (440694957842, 31), (910607260958, 32))


def test_spike_with_zero_differences_is_one_block():
    # with its four zeros dropped the spike split into two blocks whose
    # Laplacian pieces, about 0.15 each, cancelled: the mass read 8.8e-7 low
    mass = term_decay(spike_ratio_term(1.0, SpikeSpec(102869403141, 29)))[3][1]
    exact = 9.3132257436164877688e-10  # 40-digit mpmath
    assert abs(mass - exact) <= 1e-15 * exact


@pytest.mark.parametrize("start, h", K32_WIDEST)
def test_widest_spike_laplacian_masses_match_mpmath(start, h):
    g = spike_ratio_term(1.0, SpikeSpec(start, h))
    exact = _mp_many_block_laplacian_mass(g)
    assert abs(term_decay(g)[3][1] - exact) <= 1e-15 * exact
    assert 0.0 in g.coeffs


def test_alpha100_spike_laplacian_masses_match_mpmath():
    # read in two blocks each, spike 7 read 9.7e-14 low and spike 8 2.1e-13 high
    config = ConstructionConfig(alpha=100.0, delta=0.5, n_spikes=8, spike_starts=ALPHA100_K8)
    rows = {c.condition: c.measured for c in verify_f_conditions(config).conditions}
    for sp in config.weights().spikes[5:]:
        g = spike_ratio_term(100.0, sp)
        exact = _mp_many_block_laplacian_mass(g)
        assert abs(rows[f"spike{sp.half_width}_laplacian_carleson"] - exact) <= 1e-15 * exact, sp
        assert 0.0 in g.coeffs


def _mp_supremum(g: RadialSeries, kind: int, argmax_r: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The local maximum of |G| (kind 0), |Delta G| (1-r)^2 (kind 1) or
    r |G'(r^2)| (1-r) (kind 2) next to u = 1 - argmax_r, at 40 digits for the
    float coefficients of G, and the largest value at u (1 +- 2^-k), k = 4 .. 20.
    In u = 1 - r each is u^p sum_e a_e (1-u)^{2e + q} with exact a_e, and the
    maximum is the root of its u-derivative found by the secant method."""
    with mpmath.workdps(40):
        e_c = [(int(e), mpmath.mpf(float(c))) for e, c in zip(g.exponents, g.coeffs)]
        if kind == 0:
            terms, p, q = e_c, 0, 0
        elif kind == 1:
            terms, p, q = [(e - 1, e * e * c) for e, c in e_c if e], 2, 0
        else:
            terms, p, q = [(e - 1, e * c) for e, c in e_c if e], 1, 1

        def value(u):
            return abs(u ** p * mpmath.fsum(a * (1 - u) ** (2 * e + q) for e, a in terms))

        def slope(u):
            return mpmath.fsum(a * (p * u ** (p - 1) * (1 - u) ** (2 * e + q) if p else 0)
                               - a * (2 * e + q) * u ** p * (1 - u) ** (2 * e + q - 1)
                               for e, a in terms)

        u0 = 1 - mpmath.mpf(argmax_r)
        u = mpmath.findroot(slope, (u0, u0 * (1 + mpmath.mpf(2) ** -30)), verify=False)
        nearby = max(value(u * (1 + sign * mpmath.mpf(2) ** -k))
                     for k in range(4, 21) for sign in (1, -1))
        return value(u), nearby


@pytest.mark.parametrize("alpha, delta, starts", [
    (1.0, 0.5, (3, 32, 117, 343, 906, 2248, 5368, 12479)),
    (1.0, 1e-3, (2549, 16580, 59309, 172510)),
    (1.0, 1e-6, SMALL_DELTA_K8),
    (1.0, 1e-8, TINY_DELTA_K8),
    (100.0, 0.5, ALPHA100_K8),
], ids=["0.5-starts0", "0.001-starts1", "1e-06-starts2", "1e-08-starts3", "alpha100-0.5"])
def test_suprema_match_mpmath_maxima(alpha, delta, starts):
    # the grid sups read these up to 6.4e-12 (delta 1e-3), 7.0e-8 (delta
    # 1e-6) and 1.6e-5 (delta 1e-8, spike8_laplacian_sup) away: they took
    # s^N of a rounded s = r^2; at alpha 100, spikes 6 - 8 read in two
    # blocks each were up to 1.9e-13 off, some low
    config = ConstructionConfig(alpha=alpha, delta=delta, n_spikes=len(starts),
                                spike_starts=starts)
    rows = {c.condition: c.measured for c in verify_f_conditions(config).conditions}
    f = kernel_ratio(config)
    cases = [(("ratio_deviation", "laplacian_sup", "gradient_sup"),
              Terms(f.exponents[1:], f.coeffs[1:]))]
    cases += [(tuple(f"spike{sp.half_width}_{name}" for name in Decay._fields[:3]),
               spike_ratio_term(alpha, sp)) for sp in config.weights().spikes]
    for names, g in cases:
        for kind, (name, (argmax_r, value)) in enumerate(zip(names, term_decay(g)[:3])):
            assert rows[name] == value, name
            exact, nearby = _mp_supremum(g, kind, argmax_r)
            assert abs(value - exact) <= 2e-15 * exact, name
            assert nearby <= value * (1 + 2e-15), name


def test_laplacian_mass_stays_finite_at_the_largest_starts(tmp_path):
    # at these powers C(m+p, p) overflows: the share at u = 1 read NaN for
    # spike 8, and a batch padded with zeros spread it to spikes 6 and 7
    config = ConstructionConfig(alpha=1.0, delta=1e-8, n_spikes=8, spike_starts=TINY_DELTA_K8)
    terms = [kernel_ratio(config).add(RadialSeries.from_terms([(0, -1.0)]))]
    terms += [spike_ratio_term(1.0, sp) for sp in config.weights().spikes]
    assert all(math.isfinite(term_decay(g)[3][1]) for g in terms)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    assert cli.main(["verify", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "conditions.csv").read_text().splitlines()
    column = lines[0].split(",").index("measured")
    assert all(math.isfinite(float(line.split(",")[column])) for line in lines[1:])


def test_boundary_route_matches_the_closed_bump_mass():
    # both routes within 1e-15 of the truth; they differ by up to 1.1e-15
    # (n = 2, where the route's three terms cancel fivefold)
    powers = (1, 2, 3, 34, 2248, 172510, 416216560, 6240348396, MAX_POWER)
    for n in powers:
        mass = term_decay(edge_bump(n))[3][1]
        exact = bump_oracles.laplacian_mass(n)
        assert abs(mass - exact) <= 1e-15 * exact, n
        assert abs(lemma_bounds(n).laplacian_carleson - exact) <= 1e-15 * exact, n


def test_spike_value_sup_closed_form():
    # |c_1| sup s^4 (1-s) for the first standard spike: 0.75 * (4/5)^4 / 5
    measured = measure_spike_conditions(1.0, [SpikeSpec(3, 1)])[0]
    assert measured.value_sup == 192 / 3125


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


def test_theorem_conditions_expand_no_series_product(monkeypatch):
    # every gradient mass comes from G', and the theorem rows from the
    # ratio rows
    def refuse(self, other):
        raise AssertionError("RadialSeries.multiply called")

    monkeypatch.setattr(RadialSeries, "multiply", refuse)
    config = ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=8,
                                spike_starts=(3, 32, 117, 343, 906, 2248, 5368, 12479))
    assert verify_theorem_conditions(config, epsilon=2.0).passed
    assert verify_f_conditions(config).passed
    assert construction.lemma_bounds.__wrapped__(2248).gradient_sq_carleson > 0.0


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
    # f = 1: the corollary rows are exact
    assert [(c.measured, c.argmax_r) for c in report.conditions] == [(1.0, None), (0.0, None),
                                                                      (0.0, None)]


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
        for name, threshold in zip(Decay._fields, gate.thresholds):
            assert rows[f"spike{sp.half_width}_{name}"]["threshold"] == threshold
    assert set(data) == {"passed", "meta", "conditions"}


def assert_theorem_rows_bound_the_sample(config, epsilon) -> None:
    """Each row of verify_theorem_conditions is the least float at or above
    its corollary of the ratio rows (d, L, g, LC, GC), and at least the
    sampled row of theorem_oracles: ratio_band within 4 ulp(1.0), because the
    sample reads f near 1 to an ulp of 1.0, and curvature_carleson within the
    quadrature's own error estimate."""
    rows = {c.condition: c for c in verify_theorem_conditions(config, epsilon).conditions}
    d, lap, grad, lap_mass, grad_mass = map(Fraction, (c.measured for c in
                                                       verify_f_conditions(config).conditions[:5]))
    inv = 1 / (1 - d)
    exact = {"ratio_band": inv, "curvature_sup": lap * inv + grad * grad * inv * inv,
             "curvature_carleson": lap_mass * inv + grad_mass * inv * inv}
    for name, q in exact.items():
        assert math.nextafter(rows[name].measured, -math.inf) < q <= rows[name].measured, name
    sample = sampled_theorem_rows(kernel_ratio(config), config.weights().spikes)
    assert rows["ratio_band"].measured >= sample.ratio_band - 4 * math.ulp(1.0)
    assert rows["curvature_sup"].measured >= sample.curvature_sup
    assert rows["curvature_carleson"].measured >= sample.curvature_carleson - sample.carleson_error
    assert all(c.argmax_r is None for c in rows.values())


@pytest.mark.parametrize("delta, starts, epsilon", [
    (0.5, (3, 32, 117, 343, 906, 2248, 5368, 12479), 2.0),
    (1e-3, (2549, 16580, 59309, 172510), 0.004),
    (1e-6, SMALL_DELTA_K8, 4e-6),
    (0.5, K16_STARTS, 2.0),
])
def test_theorem_rows_bound_the_sampled_rows(delta, starts, epsilon):
    config = ConstructionConfig(alpha=1.0, delta=delta, n_spikes=len(starts), spike_starts=starts)
    assert_theorem_rows_bound_the_sample(config, epsilon)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(w=spiked_layouts())
def test_theorem_rows_bound_the_sampled_rows_on_random_layouts(w):
    starts = tuple(sp.start for sp in w.spikes)
    config = ConstructionConfig(alpha=w.alpha, delta=0.5, n_spikes=len(starts),
                                spike_starts=starts)
    assert_theorem_rows_bound_the_sample(config, 2.0)


def test_theorem_conditions_reject_bad_epsilon(standard_config):
    with pytest.raises(ValueError):
        verify_theorem_conditions(standard_config, epsilon=0.0)


@pytest.mark.parametrize("delta, starts, epsilon", [
    (0.5, STANDARD_STARTS, 2.0),
    (1e-3, (2549, 16580, 59309, 172510), 0.004),
])
def test_carleson_rows_are_total_masses(delta, starts, epsilon):
    # a radial density's Carleson constant is its total mass: each row reads
    # its total mass (term_decay's Laplacian mass of f - 1 and of the spike
    # terms, gradient_sq_mass), and no depth scan is reported; the curvature
    # mass is their corollary (assert_theorem_rows_bound_the_sample)
    config = ConstructionConfig(alpha=1.0, delta=delta, n_spikes=len(starts), spike_starts=starts)
    reports = (verify_f_conditions(config), verify_theorem_conditions(config, epsilon))
    rows = {c.condition: c.measured for rep in reports for c in rep.conditions}
    w, f = config.weights(), kernel_ratio(config)
    deviation = f.add(RadialSeries.from_terms([(0, -1.0)]))
    masses = {"laplacian_carleson": term_decay(deviation)[3][1],
              "gradient_carleson": gradient_sq_mass(deviation)}
    for sp in w.spikes:
        g = spike_ratio_term(config.alpha, sp)
        masses[f"spike{sp.half_width}_laplacian_carleson"] = term_decay(g)[3][1]
        masses[f"spike{sp.half_width}_gradient_sq_carleson"] = gradient_sq_mass(g)
    assert {name: rows[name].hex() for name in masses} == {n: m.hex() for n, m in masses.items()}
    assert all("scans" not in rep.to_dict() for rep in reports)
    assert "curvature_carleson_error" not in reports[1].meta
