"""Acceptance matrix: ten end-to-end checks, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Each check times itself against its runtime budget.  Numbered
test names keep the report in matrix order.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import dense_curvature
from scipy.integrate import quad
from series_oracles import edge_bump, fd_laplacian

from hardyshift import (
    ConstructionConfig,
    build_spiked_weights,
    coisometry_check,
    curvature_backward_shift,
    curvature_difference,
    curvature_weighted,
    edge_integral_exact,
    kernel_diagonal_series,
    kernel_eval,
    kernel_ratio_series,
    lemma_bounds,
    orbit_norms,
    radial_carleson_norm,
    verify_theorem_conditions,
)
from hardyshift import cli
from hardyshift.carleson import TWO_PI, RadialDensity
from hardyshift.construction import Decay
from hardyshift.grids import boundary_refined_grid, merge_grids, peak_candidates, refined_supremum

STANDARD_STARTS = (3, 32, 117)
DECOMPOSITION_CONFIGS = [
    (alpha, starts)
    for alpha in (0.5, 1.0)
    for starts in ((7,), (7, 40), (7, 40, 150))
]


class _Clock:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def done(self, detail: str = "") -> None:
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.budget, (
            f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget:.0f}s")
        suffix = f" {detail}" if detail else ""
        print(f"PASS [{self.number}] {self.label}:{suffix} ({elapsed:.2f}s < {self.budget:.0f}s)")


def test_criterion_01_flat_weights_reproduce_reference_curvature():
    clock = _Clock(1, "flat-weight curvature equals (1-r^2)^-2", 1.0)
    w = build_spiked_weights(1.0, [])
    r = np.array([0.0, 0.5, 0.9, 0.99])
    expected = curvature_backward_shift(r)
    worst = 0.0
    for got in (dense_curvature(w, r), curvature_weighted(w, r)):
        worst = max(worst, float(np.max(np.abs(got - expected) / expected)))
    assert worst < 1e-9
    clock.done(f"max relative error {worst:.2e}")


def test_criterion_02_bump_supremum_matches_closed_form():
    clock = _Clock(2, "grid supremum of the edge bump", 1.0)
    worst = 0.0
    for n in (1, 10, 100, 10**4):
        bump = edge_bump(n)
        grid = merge_grids(boundary_refined_grid(2001, 45.0),
                           peak_candidates([max(2 * n - 1, 1), 2 * n, 2 * n + 1]))
        _, sup = refined_supremum(lambda r: bump.eval(r * r), grid)
        closed = math.exp(-n * math.log1p(1.0 / n)) / (n + 1) if n else 1.0
        worst = max(worst, abs(sup - closed))
        assert abs(sup - closed) <= 1e-6
    clock.done(f"max absolute error {worst:.2e}")


def test_criterion_03_laplacian_against_stencil():
    clock = _Clock(3, "closed-form Laplacian vs 5-point stencil", 1.0)
    checked = 0
    worst = 0.0
    for n in (1, 5, 17, 50):
        bump = edge_bump(n)
        lap = bump.laplacian()

        def field(z: complex) -> float:
            return bump.eval(abs(z) ** 2)

        # sample where the bump carries mass, clear of the sign root of
        # its Laplacian at r = n/(n+1); relative error is unstable at a zero
        r_lo = max(0.15, math.exp(math.log(1e-8) / max(2 * n - 2, 1)))
        radii = np.linspace(r_lo, 0.9, 16)
        root = n / (n + 1.0)
        radii = [r for r in radii if abs(r - root) > 0.04][:13]
        phases = (1.0, np.exp(0.7j), np.exp(2.1j))
        for r, phase in zip(radii, phases * 5):
            z = r * phase
            expected = lap.eval(r * r)
            got = fd_laplacian(field, z, h=5e-5)
            rel = abs(got - expected) / abs(expected)
            worst = max(worst, rel)
            assert rel < 1e-4, (n, r)
            checked += 1
    assert checked >= 50
    clock.done(f"{checked} points, max relative error {worst:.2e}")


def test_criterion_04_lemma_decay_and_mass_bound():
    clock = _Clock(4, "single-bump decay along n", 10.0)
    powers = (10, 10**2, 10**3, 10**4)
    reports = [lemma_bounds(n) for n in powers]
    for name, values in zip(Decay._fields, zip(*reports)):
        assert all(a > b for a, b in zip(values, values[1:])), name
    assert reports[-1].laplacian_carleson < 1e-2
    assert reports[-1].gradient_sq_carleson < 1e-2
    for n, rep in zip(powers, reports):
        bound = TWO_PI * float(
            2 * Fraction((n + 1) ** 2) * (Fraction(1, 2 * n) - Fraction(2, 2 * n + 1)
                                          + Fraction(1, 2 * n + 2))
            + Fraction(2 * n + 1) * (Fraction(1, 2 * n) - Fraction(1, 2 * n + 1))
        )
        assert rep.laplacian_carleson <= bound
    clock.done(f"laplacian_carleson at n=10^4: {reports[-1].laplacian_carleson:.2e}")


def test_criterion_05_edge_integrals_and_area_measure():
    clock = _Clock(5, "exact edge integrals and the area-measure window", 5.0)
    worst = 0.0
    for m, p in ((1, 1), (199, 2), (1999, 3)):
        oracle, _ = quad(lambda r: r**m * (1.0 - r) ** p, 0.0, 1.0,
                         points=[m / (m + p)], epsabs=0.0, epsrel=1e-13, limit=300)
        rel = abs(float(edge_integral_exact(m, p)) - oracle) / oracle
        worst = max(worst, rel)
        assert rel < 1e-10
    area = RadialDensity(lambda r: np.ones_like(np.asarray(r, dtype=float)), label="area")
    assert radial_carleson_norm(area) == pytest.approx(math.pi, rel=1e-12)

    def quotient(t):
        return TWO_PI * area.window_integral(1.0 - t, 1.0) / t

    # 2 pi (t - t^2/2) / t climbs to 2 pi as the window shrinks
    for t in (2.0**-10, 2.0**-25):
        assert quotient(t) == pytest.approx(TWO_PI * (1.0 - t / 2.0), rel=1e-9)
    assert abs(quotient(2.0**-25) - TWO_PI) < 1e-6
    clock.done(f"max quadrature deviation {worst:.2e}")


def test_criterion_06_ratio_decomposition_identity():
    clock = _Clock(6, "sparse ratio equals (1-s) times the diagonal", 5.0)
    r = np.linspace(0.0, 0.999, 200)
    s = r * r
    worst = 0.0
    for alpha, starts in DECOMPOSITION_CONFIGS:
        w = build_spiked_weights(alpha, starts)
        f = kernel_ratio_series(w, r_max=0.999, tol=1e-9)
        diag = kernel_diagonal_series(w, r_max=0.999, tol=1e-12)
        lhs = f.eval(s)
        rhs = (1.0 - s) * diag.eval(s)
        rel = float(np.max(np.abs(lhs - rhs) / np.abs(lhs)))
        worst = max(worst, rel)
        assert rel < 1e-9, (alpha, starts)
    clock.done(f"{len(DECOMPOSITION_CONFIGS)} configs, max relative deviation {worst:.2e}")


def test_criterion_07_curvature_routes_agree():
    clock = _Clock(7, "curvature via log-ratio vs direct subtraction", 10.0)
    r = boundary_refined_grid(200, -math.log2(1.0 - 0.999))
    floor = 64.0 * np.finfo(float).eps * (curvature_backward_shift(r) + 1.0)
    worst = 0.0
    for alpha, starts in DECOMPOSITION_CONFIGS:
        w = build_spiked_weights(alpha, starts)
        a, b = curvature_difference(w, r)
        gap = np.abs(a - b)
        # relative 1e-6 with the double-precision noise floor of the
        # curvature-scale subtraction
        assert np.all(gap <= 1e-6 * np.maximum(np.abs(a), np.abs(b)) + floor)
        body = np.abs(b) > floor / 1e-6
        if np.any(body):
            worst = max(worst, float(np.max(gap[body] / np.abs(b[body]))))
    assert worst < 1e-6
    clock.done(f"max relative gap above the noise floor {worst:.2e}")


def test_criterion_08_end_to_end_construction(tmp_path):
    clock = _Clock(8, "construct, verify, and the halved negative control", 120.0)
    out = tmp_path / "run"
    rc = cli.main(["construct", "--alpha", "1", "--delta", "0.5", "--K", "3",
                   "--out", str(out)])
    assert rc == 0
    config_path = out / "config.json"
    assert cli.main(["verify", str(config_path), "--out", str(out)]) == 0

    config = ConstructionConfig.from_json(config_path.read_text())
    delta = config.delta
    epsilon = 2.0 * delta / (1.0 - delta)
    report = verify_theorem_conditions(config, epsilon)
    assert report.passed

    halved = dict(json.loads(config_path.read_text()))
    halved["spike_starts"] = [max(1, n // 2) for n in halved["spike_starts"]]
    bad_path = tmp_path / "halved.json"
    bad_path.write_text(json.dumps(halved))
    assert cli.main(["verify", str(bad_path), "--out", str(tmp_path)]) == 2
    clock.done(f"epsilon {epsilon:g}, starts {list(config.spike_starts)}")


def test_criterion_09_operator_certificates():
    clock = _Clock(9, "coisometry band and exact orbit peaks", 1.0)
    for alpha in (0.25, 1.0):
        w = build_spiked_weights(alpha, STANDARD_STARTS)
        assert coisometry_check(w).passed
        norms = orbit_norms(w, [1.0], 130)
        for k, start in enumerate(STANDARD_STARTS, start=1):
            assert norms[start + k] == (1.0 + alpha) ** k, (alpha, k)
        # the orbit supremum grows with the spike count: the witness
        # against similarity to a contraction
        assert np.max(norms) == (1.0 + alpha) ** 3
    clock.done("exact peaks (1+alpha)^k at n = N_k + k for alpha in {0.25, 1}")


def test_criterion_10_kernel_ratio_band():
    clock = _Clock(10, "kernel diagonal ratio inside the (1+eps) band", 10.0)
    config = ConstructionConfig(alpha=1.0, delta=0.5, n_spikes=3,
                                spike_starts=STANDARD_STARTS)
    epsilon = 2.0
    w = config.weights()
    f = kernel_ratio_series(w)
    hints = [math.sqrt(m / (m + 1.0)) for sp in w.spikes
             for m in range(sp.start, sp.end + 2)]
    grid = merge_grids(boundary_refined_grid(1200, 46.0), hints)
    ratio = 1.0 / f.eval(grid * grid)  # unweighted over weighted diagonal
    assert np.all(ratio >= 1.0 / (1.0 + epsilon))
    assert np.all(ratio <= 1.0 + epsilon)
    # spot check against directly summed kernels
    flat = build_spiked_weights(1.0, [])
    for r in (0.3, 0.9, 0.99):
        direct = kernel_eval(flat, r, r, tol=1e-13) / kernel_eval(w, r, r, tol=1e-13)
        assert direct.real == pytest.approx(1.0 / f.eval(r * r), rel=1e-9)
    margin = max(float(np.max(ratio)), float(1.0 / np.min(ratio)))
    assert margin <= 1.0 + epsilon
    clock.done(f"worst band excursion {margin:.6f} vs {1.0 + epsilon:g}")
