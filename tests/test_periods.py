"""Period formulas against the quarter-period quadrature oracle.

Golden period values marked "frozen" were produced by period_oracle
before the elliptic-integral formulas were adopted.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starktoric import dynamics
from starktoric.dynamics import measure_period
from starktoric.elliptic import ellip_k
from starktoric.errors import DomainError
from starktoric.levi_civita import RegularizedState, energy_split
from starktoric.periods import (
    OscillatorSelector,
    _kernel_arg,
    _tau_lphi,
    period_oracle,
    tau1,
    tau2,
    turning_point,
)
from starktoric.toric_profile import _actions

PLUS, MINUS = OscillatorSelector.PLUS, OscillatorSelector.MINUS
TWO_PI = 2.0 * math.pi

TAU1_GOLDEN = {(0.05, 1.0): 5.89322638111347, (0.05, 2.0): 5.61076903224288}
TAU2_GOLDEN = {(0.05, 1.0): 6.89871727200873, (0.05, 2.0): 8.300542091081583}
PREF = 2.0**2.5  # tau1, tau2 = 2^{5/2} phi(x), the first of _tau_lphi(x)


def tau_lphi(x):
    """(2^{5/2} phi(x), lphi(x)) of the period kernel at a float or an array x < 1."""
    return _tau_lphi(np.asarray(x, dtype=float))


def lphi(x):
    """The kernel's logarithmic derivative (ln phi)'(x) on which f'' > 0 rests."""
    return tau_lphi(x)[1]


def test_phi_trivial_and_composed():
    assert tau_lphi(0.0)[0] / PREF == pytest.approx(math.pi / (2.0 * math.sqrt(2.0)),
                                                    rel=1e-15, abs=0)
    x = 0.8
    root = math.sqrt(1.0 - x)
    direct = ellip_k((1.0 - root) / (1.0 + root)) / math.sqrt(1.0 + root)
    assert tau_lphi(x)[0] / PREF == pytest.approx(direct, rel=1e-13, abs=0)


def test_log_phi_d1_trivial():
    assert lphi(0.0) == pytest.approx(3.0 / 16.0, rel=1e-14, abs=0)


def test_log_phi_d1_strictly_increasing():
    grid = np.linspace(-1.0, 0.99, 120)
    vals = lphi(grid)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) > 0.0)


def test_log_phi_d1_matches_finite_difference():
    h = 1e-4
    fd = (math.log(tau_lphi(0.3 + h)[0]) - math.log(tau_lphi(0.3 - h)[0])) / (2.0 * h)
    assert lphi(0.3) == pytest.approx(fd, abs=1e-6)


def test_period_kernel_factorization():
    # tau1(c) = 2^{5/2} phi(-8 eps c), tau2(c) = 2^{5/2} phi(8 eps c)
    for eps in (0.01, 0.05, 0.0624):
        for c in (0.0, 0.3, 1.1, 2.0):
            t1 = tau1(eps, c)
            t2 = tau2(eps, c)
            assert abs(t1 - tau_lphi(-8.0 * eps * c)[0]) <= 1e-12 * t1
            assert abs(t2 - tau_lphi(8.0 * eps * c)[0]) <= 1e-12 * t2


def test_turning_point_energy_roundtrip():
    for eps in (0.01, 0.05):
        for c in (0.2, 1.0, 1.9):
            zp = turning_point(eps, c, PLUS)
            e1 = energy_split(RegularizedState(z=(zp, 0.0), w=(0.0, 0.0)), eps).e1
            assert e1 == pytest.approx(c, rel=1e-12, abs=0)
            zm = turning_point(eps, c, MINUS)
            e2 = energy_split(RegularizedState(z=(0.0, zm), w=(0.0, 0.0)), eps).e2
            assert e2 == pytest.approx(c, rel=1e-12, abs=0)


def test_turning_point_saddle_limit_and_asymptotics():
    eps = 0.05
    sep = 1.0 / (8.0 * eps)
    assert turning_point(eps, sep * (1.0 - 1e-12), MINUS) == pytest.approx(
        1.0 / math.sqrt(2.0 * eps), rel=1e-5, abs=0
    )
    for sel in (PLUS, MINUS):
        assert turning_point(eps, 1e-4, sel) == pytest.approx(
            math.sqrt(2e-4), rel=1e-2, abs=0
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
        assert tau1(eps, c) == pytest.approx(val, rel=1e-13, abs=0)
    for (eps, c), val in TAU2_GOLDEN.items():
        assert tau2(eps, c) == pytest.approx(val, rel=1e-13, abs=0)


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


@pytest.mark.parametrize(
    "call",
    [lambda: tau1(0.05, math.inf), lambda: tau2(0.05, math.inf),
     lambda: turning_point(0.05, math.inf, PLUS), lambda: turning_point(0.05, math.inf, MINUS),
     lambda: period_oracle(0.05, math.inf, PLUS)],
    ids=["tau1", "tau2", "turning_point_plus", "turning_point_minus", "period_oracle"],
)
def test_infinite_energy_is_a_domain_error(call):
    # it was a NaN after an "invalid value" warning
    with pytest.raises(DomainError, match="finite"):
        call()


@pytest.mark.parametrize("eps", [0.0625 - 2.0**-57, 0.0625 - 1e-12, 0.0625 - 1e-8])
def test_tau2_near_the_separatrix_matches_hypergeometric_oracle(eps):
    # the AGM starts from the exact 1 - m there, not from 1 - m rounded;
    # the oracle takes the argument 8 eps c as tau2 rounds it
    cs = np.linspace(1.9, 2.0, 21)
    with mp.workdps(40):
        for c, t, p in zip(cs.tolist(), tau2(eps, cs).tolist(),
                           tau_lphi(8.0 * cs * eps)[0].tolist()):
            want = 2 * mp.pi * mp.hyp2f1(0.25, 0.75, 1, 8.0 * c * eps)
            assert abs(mp.mpf(t) / want - 1) <= 2e-15
            assert abs(mp.mpf(p) / want - 1) <= 2e-15


def test_formula_matches_oracle():
    for eps in (0.01, 0.03, 0.06):
        for c in (0.2, 0.95, 1.7):
            t1 = tau1(eps, c)
            t2 = tau2(eps, c)
            assert abs(period_oracle(eps, c, PLUS) - t1) <= 1e-9 * t1
            assert abs(period_oracle(eps, c, MINUS) - t2) <= 1e-9 * t2


SEPARATRIX_EPS = 0.0625 - 2.0**-57  # the largest double below 1/16


@settings(max_examples=100, deadline=None)
@given(
    eps=st.floats(5e-324, SEPARATRIX_EPS),
    c=st.floats(5e-324, 2.0),
    stiff_c=st.floats(2.0, 1e300),
)
@example(eps=SEPARATRIX_EPS, c=2.0, stiff_c=2.0)
@example(eps=0.0625 - 1e-15, c=2.0, stiff_c=1e300)
@example(eps=5e-324, c=5e-324, stiff_c=2.0)
@example(eps=5e-324, c=2.0, stiff_c=1e300)
@example(eps=0.05, c=5e-324, stiff_c=2.0)
def test_period_oracle_matches_hypergeometric_oracle(eps, c, stiff_c):
    # tau = 2 pi 2F1(1/4, 3/4; 1; x) with x = -8 eps c (stiff) or 8 eps c (soft),
    # taking x as the oracle rounds it; the stiff factor has no upper energy
    with mp.workdps(40):
        for energy, sel, sign in ((c, PLUS, -1.0), (c, MINUS, 1.0), (stiff_c, PLUS, -1.0)):
            want = 2 * mp.pi * mp.hyp2f1(0.25, 0.75, 1, sign * (8.0 * energy * eps))
            assert abs(mp.mpf(period_oracle(eps, energy, sel)) / want - 1) <= 1e-14


@pytest.mark.parametrize("c", [1e308, 1.7e308])
def test_huge_stiff_energies_stay_finite(c):
    # 8 c eps overflowed left to right: tau1 and turning_point warned, and
    # period_oracle raised "integration limits must be finite"
    eps = 0.06
    x = 8.0 * (eps * c)
    with mp.workdps(40):
        want = 2 * mp.pi * mp.hyp2f1(0.25, 0.75, 1, -x)
        assert abs(mp.mpf(tau1(eps, c)) / want - 1) <= 1e-15
        assert abs(mp.mpf(period_oracle(eps, c, PLUS)) / want - 1) <= 1e-15
        z = mp.sqrt((mp.sqrt(1 + 8 * mp.mpf(eps) * c) - 1) / (2 * mp.mpf(eps)))
        assert abs(mp.mpf(turning_point(eps, c, PLUS)) / z - 1) <= 1e-15
        want = mp.mpf(3) / 16 * mp.hyp2f1(1.25, 1.75, 2, -x) / mp.hyp2f1(0.25, 0.75, 1, -x)
        assert abs(mp.mpf(lphi(-x)) / want - 1) <= 5e-15


@pytest.mark.parametrize(
    "call",
    [lambda: tau1(1.0, 1e308), lambda: turning_point(1.0, 1e308, PLUS),
     lambda: period_oracle(1.0, 1e308, PLUS), lambda: measure_period(1e300, 1e10, PLUS)],
    ids=["tau1", "turning_point", "period_oracle", "measure_period"],
)
def test_kernel_argument_beyond_the_doubles_is_a_domain_error(call):
    # 8 (eps c) overflowed with a warning: tau1 and turning_point returned 0
    # (the period is 4.41e-77, the amplitude 1.19e77), period_oracle raised
    # "integration limits must be finite", and measure_period stepped
    # max_steps times before it gave up
    with pytest.raises(DomainError, match="8\\*c\\*eps overflows"):
        call()


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(1e-8, 0.0625, exclude_max=True), c=st.floats(5e-324, 2.0),
       sel=st.sampled_from([PLUS, MINUS]))
@example(eps=0.05, c=5e-324, sel=PLUS)
@example(eps=0.05, c=5e-324, sel=MINUS)
@example(eps=1e-8, c=1e-310, sel=MINUS)
@example(eps=0.05, c=sys.float_info.min, sel=PLUS)
def test_turning_point_is_accurate_at_every_energy(eps, c, sel):
    # c / (1 + s) underflowed for a subnormal c, so 5e-324 had amplitude 0;
    # the mpmath root is taken at the exact value of the double c
    s = math.sqrt(1.0 + (-8.0 if sel is MINUS else 8.0) * (eps * c))
    z = turning_point(eps, c, sel)
    with mp.workdps(50):
        sign = 1 if sel is PLUS else -1
        want = 2 * mp.sqrt(mp.mpf(c) / (1 + mp.sqrt(1 + sign * 8 * mp.mpf(eps) * mp.mpf(c))))
        assert z > 0.0 and abs(mp.mpf(z) / want - 1) <= 1e-15
    if c / (1.0 + s) >= sys.float_info.min:
        assert z == 2.0 * math.sqrt(c / (1.0 + s))  # bit for bit where nothing underflows


@pytest.mark.parametrize("sel", [PLUS, MINUS])
def test_measure_period_at_the_smallest_energy(monkeypatch, sel):
    # from a turning point of 0 the orbit rested and never returned
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 20000)
    period = measure_period(0.05, 5e-324, sel)
    assert abs(period - TWO_PI) <= 1e-9


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
        combo = 8.0 * eps * (lphi(8.0 * eps * cs) - lphi(8.0 * eps * cs - 16.0 * eps))
        assert np.all(combo > 0.0)


def _action(c, sel):
    """The action T(c) of the selected factor, through the kernel argument."""
    cs = np.array([c])
    return _actions(0.05, _kernel_arg(0.05, cs, sel), cs)


@pytest.mark.parametrize("sel", ["plus", "minus", None, 1])
@pytest.mark.parametrize(
    "call",
    [
        lambda sel: turning_point(0.05, 1.0, sel),
        lambda sel: period_oracle(0.05, 1.0, sel),
        lambda sel: _action(1.0, sel),
        lambda sel: _action(0.0, sel),
        lambda sel: measure_period(0.05, 1.0, sel),
    ],
    ids=["turning_point", "period_oracle", "action_T", "action_T_zero", "measure_period"],
)
def test_selector_must_be_an_oscillator_selector(call, sel):
    # a string is not converted: "plus" once silently gave the soft action
    with pytest.raises(DomainError, match="OscillatorSelector"):
        call(sel)


X_M_099 = 1.0 - (0.01 / 1.99) ** 2  # the kernel's elliptic parameter is 0.99 here


@settings(max_examples=150, deadline=None)
@given(x=st.floats(-1.0, 0.999))
@example(x=0.0)
@example(x=5e-324)
@example(x=-5e-324)
@example(x=1.01e-4)
@example(x=-1.01e-4)
def test_log_phi_d1_matches_hypergeometric_oracle(x):
    # phi is proportional to F = 2F1(1/4, 3/4; 1; x), so lphi = F'/F
    with mp.workdps(40):
        want = mp.mpf(3) / 16 * mp.hyp2f1(1.25, 1.75, 2, x) / mp.hyp2f1(0.25, 0.75, 1, x)
        for batch in (np.array(x), np.array([x, X_M_099])):
            got = np.ravel(lphi(batch))[0]
            assert abs(mp.mpf(got) / want - 1) <= 5e-15
