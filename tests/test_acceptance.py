"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Every tolerance is pinned here; the suite is desk scale (well
under five minutes end to end).
"""

import math
import time

import numpy as np
from scipy import ndimage

from starktoric.cli import main
from starktoric.dynamics import (
    flow_equivalence,
    measure_period,
    torus_act,
)
from starktoric.elliptic import ellip_k, ellip_k_d1, ellip_k_d2
from starktoric.levi_civita import (
    RegularizedState,
    conformal_factor,
    lc_lift,
    regularized_energy,
)
from starktoric.periods import (
    OscillatorSelector,
    period_oracle,
    tau1,
    tau2,
    turning_point,
)
from starktoric.stark_model import hamiltonian, hill_component_count, hill_grid
from starktoric.toric_profile import profile_sample, verify_convexity

PLUS, MINUS = OscillatorSelector.PLUS, OscillatorSelector.MINUS
TWO_PI = 2.0 * math.pi

EPS_GRID = np.linspace(0.01, 0.06, 5)
C_GRID = np.linspace(0.2, 2.0, 5)


def _report(number: int, name: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f} s)")


def _zero_level_state(z1, w1, z2, eps):
    e1 = 0.5 * w1 * w1 + 0.5 * z1 * z1 + 0.5 * eps * z1**4
    w2 = math.sqrt(2.0 * (2.0 - e1) - z2 * z2 + eps * z2**4)
    return RegularizedState(z=(z1, z2), w=(w1, w2))


def test_criterion_01_convexity_certificates():
    start = time.time()
    for eps in (0.005, 0.01, 0.02, 0.04, 0.06, 0.0624):
        cert = verify_convexity(eps, 201, 1e-4)
        assert cert.passed, f"certificate failed at eps={eps}"
        assert cert.min_f_second > 0.0
        assert cert.max_fd_residual <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, "convexity certificates", elapsed)


def test_criterion_02_log_convexity_of_k():
    start = time.time()
    m = np.linspace(-10.0, 0.99, 500)
    h = 1e-3
    second = np.log(ellip_k(m + h)) - 2.0 * np.log(ellip_k(m)) + np.log(ellip_k(m - h))
    assert np.all(second > 0.0)
    k = ellip_k(m)
    d1 = ellip_k_d1(m)
    d2 = ellip_k_d2(m)
    assert np.all(k * d2 - 3.0 * d1 * d1 >= -1e-9 * k * d2)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(2, "log-convexity of the elliptic kernel", elapsed)


def test_criterion_03_formula_vs_flow_periods():
    start = time.time()
    for eps in EPS_GRID:
        for c in C_GRID:
            t1 = tau1(eps, c)
            assert abs(measure_period(eps, c, PLUS) - t1) <= 1e-6 * t1
            t2 = tau2(eps, c)
            assert abs(measure_period(eps, c, MINUS) - t2) <= 1e-6 * t2
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(3, "formula vs flow periods (5x5 grid)", elapsed)


def test_criterion_04_formula_vs_quadrature_periods():
    start = time.time()
    for eps in EPS_GRID:
        for c in C_GRID:
            t1 = tau1(eps, c)
            assert abs(period_oracle(eps, c, PLUS) - t1) <= 1e-9 * t1
            t2 = tau2(eps, c)
            assert abs(period_oracle(eps, c, MINUS) - t2) <= 1e-9 * t2
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(4, "formula vs quadrature periods (5x5 grid)", elapsed)


def test_criterion_05_flow_equivalence():
    start = time.time()
    eps = 0.05
    states = [
        _zero_level_state(turning_point(eps, 1.2, PLUS), 0.0, 0.6, eps),
        _zero_level_state(1.0, 0.9, -0.8, eps),
        _zero_level_state(0.3, -1.2, 1.5, eps),
    ]
    for state in states:
        assert flow_equivalence(state, eps, s_duration=5.0) <= 1e-5
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(5, "regularized/raw flow equivalence", elapsed)


def test_criterion_06_ball_degeneration():
    start = time.time()
    prof = profile_sample(1e-6, 64)
    assert np.max(np.abs(prof.xs + prof.ys - 2.0 * TWO_PI)) <= 1e-3
    assert np.all(prof.second_derivs > 0.0)
    assert np.all(prof.second_derivs <= 1e-3)
    _report(6, "ball degeneration at vanishing field", time.time() - start)


def test_criterion_07_harmonic_limits():
    start = time.time()
    for eps in (0.001, 0.005, 0.01, 0.03, 0.0624):
        assert abs(tau1(eps, 0.0) - TWO_PI) <= 1e-12 * TWO_PI
        assert abs(tau2(eps, 0.0) - TWO_PI) <= 1e-12 * TWO_PI
    for sel in (PLUS, MINUS):
        assert abs(measure_period(0.05, 1e-6, sel) - TWO_PI) <= 1e-5
    _report(7, "harmonic limits", time.time() - start)


def test_criterion_08_torus_action_periodicity():
    start = time.time()
    eps = 0.05
    state = _zero_level_state(1.0, 0.9, -0.8, eps)

    def dist(a, b):
        return math.hypot(*(a.z - b.z), *(a.w - b.w))

    assert dist(torus_act(1.0, 0.0, state, eps), state) <= 1e-13
    assert dist(torus_act(0.0, 1.0, state, eps), state) <= 1e-13
    a, b = (0.4, 0.1), (0.35, 0.55)
    combined = torus_act(*a, torus_act(*b, state, eps), eps)
    direct = torus_act((a[0] + b[0]) % 1.0, (a[1] + b[1]) % 1.0, state, eps)
    assert dist(combined, direct) <= 1e-13
    _report(8, "torus action periodicity and composition", time.time() - start)


def test_criterion_09_pullback_identity():
    start = time.time()
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        angle = rng.uniform(0.0, TWO_PI)
        radius = rng.uniform(0.1, 3.0)
        z = radius * np.array([math.cos(angle), math.sin(angle)])
        w = rng.uniform(-3.0, 3.0, 2)
        eps = rng.uniform(0.0, 0.2)
        s = RegularizedState(z=z, w=w)
        e = regularized_energy(s, eps)
        lifted = conformal_factor(s) * (hamiltonian(lc_lift(s), eps) + 0.5)
        assert abs(e - lifted) <= 1e-12 * (1.0 + abs(e))
    _report(9, "pullback identity on 10^4 random states", time.time() - start)


def test_criterion_10_hill_decomposition(capsys):
    start = time.time()
    assert hill_component_count(0.01) == 2
    assert hill_component_count(0.05) == 2
    assert main(["hill", "--eps", "0.0625", "--resolution", "64"]) == 2
    assert main(["hill", "--eps", "0.2", "--resolution", "64"]) == 2
    capsys.readouterr()
    # the closed-form raster count against scipy's flood fill (its default
    # structure is 4-connectivity)
    for eps in (0.01, 0.05):
        grid = hill_grid(eps, 512)
        assert grid.n_components == ndimage.label(grid.allowed)[1]
    _report(10, "accessible-region decomposition", time.time() - start)
