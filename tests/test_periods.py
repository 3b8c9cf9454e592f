"""Period formulas against the quarter-period quadrature oracle.

Golden period values marked "frozen" were produced by period_oracle
before the elliptic-integral formulas were adopted.
"""

import math

import numpy as np
import pytest

from starktoric.dynamics import integrate_oscillator, measure_period
from starktoric.elliptic import ellip_k
from starktoric.errors import DomainError
from starktoric.levi_civita import RegularizedState, energy_split
from starktoric.periods import (
    OscillatorSelector,
    log_phi_d1,
    period_oracle,
    phi,
    tau1,
    tau2,
    turning_point,
)
from starktoric.toric_profile import action_T

PLUS, MINUS = OscillatorSelector.PLUS, OscillatorSelector.MINUS
TWO_PI = 2.0 * math.pi

TAU1_GOLDEN = {(0.05, 1.0): 5.89322638111347, (0.05, 2.0): 5.61076903224288}
TAU2_GOLDEN = {(0.05, 1.0): 6.89871727200873, (0.05, 2.0): 8.300542091081583}


def test_phi_trivial_and_composed():
    assert phi(0.0) == pytest.approx(math.pi / (2.0 * math.sqrt(2.0)), rel=1e-15)
    x = 0.8
    root = math.sqrt(1.0 - x)
    direct = ellip_k((1.0 - root) / (1.0 + root)) / math.sqrt(1.0 + root)
    assert phi(x) == pytest.approx(direct, rel=1e-13)
    with pytest.raises(DomainError):
        phi(1.0)


def test_log_phi_d1_trivial():
    assert log_phi_d1(0.0) == pytest.approx(3.0 / 16.0, rel=1e-14)
    with pytest.raises(DomainError):
        log_phi_d1(1.2)


def test_log_phi_d1_strictly_increasing():
    grid = np.linspace(-1.0, 0.99, 120)
    vals = log_phi_d1(grid)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) > 0.0)


def test_log_phi_d1_matches_finite_difference():
    h = 1e-4
    fd = (math.log(phi(0.3 + h)) - math.log(phi(0.3 - h))) / (2.0 * h)
    assert log_phi_d1(0.3) == pytest.approx(fd, abs=1e-6)


def test_period_kernel_factorization():
    # tau1(c) = 2^{5/2} phi(-8 eps c), tau2(c) = 2^{5/2} phi(8 eps c)
    for eps in (0.01, 0.05, 0.0624):
        for c in (0.0, 0.3, 1.1, 2.0):
            t1 = tau1(eps, c)
            t2 = tau2(eps, c)
            assert abs(t1 - 2.0**2.5 * phi(-8.0 * eps * c)) <= 1e-12 * t1
            assert abs(t2 - 2.0**2.5 * phi(8.0 * eps * c)) <= 1e-12 * t2


def test_turning_point_energy_roundtrip():
    for eps in (0.01, 0.05):
        for c in (0.2, 1.0, 1.9):
            zp = turning_point(eps, c, PLUS)
            e1 = energy_split(RegularizedState(z=(zp, 0.0), w=(0.0, 0.0)), eps).e1
            assert e1 == pytest.approx(c, rel=1e-12)
            zm = turning_point(eps, c, MINUS)
            e2 = energy_split(RegularizedState(z=(0.0, zm), w=(0.0, 0.0)), eps).e2
            assert e2 == pytest.approx(c, rel=1e-12)


def test_turning_point_saddle_limit_and_asymptotics():
    eps = 0.05
    sep = 1.0 / (8.0 * eps)
    assert turning_point(eps, sep * (1.0 - 1e-12), MINUS) == pytest.approx(
        1.0 / math.sqrt(2.0 * eps), rel=1e-5
    )
    for sel in (PLUS, MINUS):
        assert turning_point(eps, 1e-4, sel) == pytest.approx(
            math.sqrt(2e-4), rel=1e-2
        )
    with pytest.raises(DomainError):
        turning_point(eps, 0.0, PLUS)
    with pytest.raises(DomainError):
        turning_point(eps, sep, MINUS)


def test_harmonic_limit_is_two_pi():
    for eps in (0.001, 0.01, 0.05, 0.0624):
        assert abs(tau1(eps, 0.0) - TWO_PI) <= 1e-12 * TWO_PI
        assert abs(tau2(eps, 0.0) - TWO_PI) <= 1e-12 * TWO_PI


def test_golden_periods():
    for (eps, c), val in TAU1_GOLDEN.items():
        assert tau1(eps, c) == pytest.approx(val, rel=1e-13)
    for (eps, c), val in TAU2_GOLDEN.items():
        assert tau2(eps, c) == pytest.approx(val, rel=1e-13)


def test_period_monotonicity_and_ordering():
    eps = 0.05
    cs = np.linspace(0.0, 2.0, 41)
    t1 = tau1(eps, cs)
    t2 = tau2(eps, cs)
    assert np.all(np.diff(t1) < 0.0)  # stiff wall shortens the period
    assert np.all(np.diff(t2) > 0.0)  # soft wall lengthens it
    assert np.all(t2[1:] >= t1[1:])


def test_tau2_grows_toward_separatrix():
    eps = 0.05
    sep = 1.0 / (8.0 * eps)
    assert tau2(eps, sep * (1 - 1e-6)) > tau2(eps, sep * (1 - 1e-3)) > tau2(eps, 2.0)
    with pytest.raises(DomainError):
        tau2(eps, sep)
    with pytest.raises(DomainError):
        tau1(eps, -0.1)


def test_formula_matches_oracle():
    for eps in (0.01, 0.03, 0.06):
        for c in (0.2, 0.95, 1.7):
            t1 = tau1(eps, c)
            t2 = tau2(eps, c)
            assert abs(period_oracle(eps, c, PLUS) - t1) <= 1e-9 * t1
            assert abs(period_oracle(eps, c, MINUS) - t2) <= 1e-9 * t2


def test_oracle_harmonic_limit():
    for sel in (PLUS, MINUS):
        assert period_oracle(0.05, 1e-8, sel) == pytest.approx(TWO_PI, abs=1e-6)


def test_oracle_preconditions():
    with pytest.raises(DomainError):
        period_oracle(0.05, 0.0, PLUS)
    with pytest.raises(DomainError):
        period_oracle(0.05, 3.0, MINUS)


def test_log_derivative_combination_positive():
    # (ln tau2)'(c) + (ln tau1)'(2-c) reduced through the kernel derivative
    for eps in (0.005, 0.03, 0.0624):
        cs = np.linspace(1e-3, 2.0 - 1e-3, 50)
        combo = 8.0 * eps * (
            log_phi_d1(8.0 * eps * cs) - log_phi_d1(8.0 * eps * cs - 16.0 * eps)
        )
        assert np.all(combo > 0.0)


@pytest.mark.parametrize("sel", ["plus", "minus", None, 1])
@pytest.mark.parametrize(
    "call",
    [
        lambda sel: turning_point(0.05, 1.0, sel),
        lambda sel: period_oracle(0.05, 1.0, sel),
        lambda sel: action_T(0.05, 1.0, sel),
        lambda sel: action_T(0.05, 0.0, sel),
        lambda sel: measure_period(0.05, 1.0, sel),
        lambda sel: integrate_oscillator(0.1, 0.0, 0.05, sel, duration=0.01),
    ],
    ids=["turning_point", "period_oracle", "action_T", "action_T_zero",
         "measure_period", "integrate_oscillator"],
)
def test_selector_must_be_an_oscillator_selector(call, sel):
    # a string is not converted: "plus" once silently gave the soft action
    with pytest.raises(DomainError, match="OscillatorSelector"):
        call(sel)
