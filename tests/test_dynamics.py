import math
import os
import re
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ellipj

from starktoric import dynamics, elliptic
from starktoric.cli import main
from starktoric.dynamics import (
    COLLISION_CUTOFF,
    Trajectory,
    flow_equivalence,
    integrate_regularized,
    measure_period,
    torus_act,
)
from starktoric.errors import DomainError, NumericsError
from starktoric.levi_civita import (RegularizedState, _factor_energy, energy_split, lc_lift,
                                    regularized_energy)
from starktoric.periods import OscillatorSelector, tau1, tau2, turning_point
from starktoric.stark_model import PlanarState

from oracles import _oscillate, kernel_flow

PLUS, MINUS = OscillatorSelector.PLUS, OscillatorSelector.MINUS
EPS = 0.05
# the closed form and its stepped oracle
FLOWS = (integrate_regularized, kernel_flow)


def zero_level_state(z1, w1, z2, eps=EPS):
    """Bounded state on the zero level set: w2 balances the energy budget."""
    e1 = 0.5 * w1 * w1 + 0.5 * z1 * z1 + 0.5 * eps * z1**4
    w2 = math.sqrt(2.0 * (2.0 - e1) - z2 * z2 + eps * z2**4)
    return RegularizedState(z=(z1, z2), w=(w1, w2))


def inside_the_soft_well(state, eps):
    """Whether the soft factor starts inside its well: below the separatrix
    energy 1/(8 eps), with |z2| up to the saddle 1/sqrt(2 eps)."""
    z2 = state.z[1]
    return 8.0 * (eps * energy_split(state, eps).e2) < 1.0 and 2.0 * eps * z2 * z2 <= 1.0


def factor_flow(z0, w0, eps, sel, step=1e-3, duration=1.0, flow=integrate_regularized):
    """One factor's run of the regularized ``flow`` from (z0, w0) with the
    other factor at rest, where it stays exactly: the times, the factor's
    rows (z, w) and the energy drift."""
    k = 0 if sel is PLUS else 1
    z, w = [0.0, 0.0], [0.0, 0.0]
    z[k], w[k] = z0, w0
    traj, _ = flow(RegularizedState(z=z, w=w), eps, step, duration)
    assert not traj.states[:, [1 - k, 3 - k]].any()
    return Trajectory(traj.times, traj.states[:, [k, k + 2]], traj.energy_drift)


def test_fixed_point_stays_put():
    for flow in FLOWS:
        traj = factor_flow(0.0, 0.0, EPS, PLUS, flow=flow)
        assert np.all(traj.states == 0.0)
        assert traj.energy_drift == 0.0


def test_oscillator_energy_drift_default_scheme():
    zp = turning_point(EPS, 1.0, PLUS)
    traj = factor_flow(zp, 0.0, EPS, PLUS, duration=tau1(EPS, 1.0), flow=kernel_flow)
    assert traj.energy_drift < 1e-8
    # the closed form drifts by rounding only
    traj = factor_flow(zp, 0.0, EPS, PLUS, duration=tau1(EPS, 1.0))
    assert traj.energy_drift < 1e-14


def test_integrator_order_scaling():
    zp = turning_point(EPS, 1.0, PLUS)
    period = tau1(EPS, 1.0)

    def drift(h):
        return factor_flow(zp, 0.0, EPS, PLUS, h, period, kernel_flow).energy_drift

    ratio4 = drift(0.05) / drift(0.025)
    assert 11.0 < ratio4 < 22.0


def whole_steps(duration, step=1e-3):
    """_schedule's sample times, and the steps between them (n - 1 of step,
    then the last, which ends on duration) as one run each."""
    times = dynamics._schedule(duration, step)
    n = len(times) - 1
    return times, [(step, 1)] * (n - 1) + [(min(step, duration - (n - 1) * step), 1)]


def test_kepler_circular_orbit_closes():
    _, runs = whole_steps(2.0 * math.pi)
    rows = dynamics._planar_flow((1.0, 0.0), (0.0, 1.0), 0.0, runs)
    assert len(rows) == len(runs)
    assert np.linalg.norm(np.subtract(rows[-1], (1.0, 0.0, 0.0, 1.0))) < 1e-6


def test_collision_ray_raises():
    with pytest.raises(NumericsError, match="collision"):
        dynamics._planar_flow((0.05, 0.0), (-0.5, 0.0), EPS, [(1e-3, 2000)])


def test_soft_factor_near_separatrix():
    c = 0.99 / (8.0 * EPS)
    zp = turning_point(EPS, c, MINUS)
    traj = factor_flow(zp, 0.0, EPS, MINUS, duration=30.0, flow=kernel_flow)
    assert traj.energy_drift < 1e-6
    # the exact flow cannot escape
    traj = factor_flow(zp, 0.0, EPS, MINUS, duration=30.0)
    assert traj.energy_drift < 1e-6


def test_soft_factor_preconditions():
    # the torus action needs a soft start inside its well, below the separatrix
    for z, w in ((10.0, 0.0), (0.0, 3.0)):
        with pytest.raises(DomainError, match="bounded soft-factor orbit"):
            torus_act(0.5, 0.5, RegularizedState(z=(0.0, z), w=(0.0, w)), EPS)


@pytest.mark.parametrize("z, w, eps, message", [
    ((0.0, 4.0), (0.0, 0.0), 1.0 / 32.0, "soft oscillator requires 8*c*eps < 1"),
    ((0.0, 0.0), (0.0, 2.0), 1.0 / 16.0, "soft oscillator requires 8*c*eps < 1"),
    ((1e200, 0.0), (0.0, 0.0), EPS, "the factor energy e1 overflows the doubles"),
    ((0.0, 1e200), (0.0, 0.0), EPS, "the factor energy e2 overflows the doubles"),
], ids=["at_the_saddle", "on_the_separatrix", "e1_overflows", "e2_overflows"])
def test_torus_action_refuses_the_separatrix_and_an_energy_that_overflows(z, w, eps, message):
    # the first two soft factors sit at 8 eps e2 = 1 exactly, where the
    # escape time is inf and tau2 refuses the energy; the torus action
    # refused all four with one message that named no cause
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        torus_act(0.5, 0.5, RegularizedState(z=z, w=w), eps)


def test_duration_exceeding_budget(monkeypatch):
    # the step budget bounds the samples of a run, a soft factor outside its
    # well included
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 10)
    for z0, sel in ((0.1, PLUS), (3.3, MINUS)):
        with pytest.raises(DomainError, match="max_steps=10 "):
            factor_flow(z0, 0.0, EPS, sel, duration=1.0)


@settings(max_examples=300, deadline=None)
@given(step=st.floats(5e-324, 10.0), duration=st.floats(0.0, 1e308))
@example(step=5e-324, duration=1.0)  # the step count overflows to inf
@example(step=1e-3, duration=1e308)
@example(step=0.01, duration=2.0200000000000005)  # 202 steps of 0.01 end at 2.02
@example(step=1.0, duration=1e-300)  # one step, however short
def test_schedule_plans_or_raises_domain_error(step, duration):
    try:
        with mock.patch.object(dynamics, "_MAX_STEPS", 1000):
            times = dynamics._schedule(duration, step)
    except DomainError:
        assert duration / step - 1e-12 > 1000
        return
    n = len(times) - 1
    assert n <= 1000 and times[0] == 0.0 and np.all(np.diff(times) >= 0.0)
    assert times[-1] == duration  # n steps of step can round short of it
    # the last step, which the stepped oracle takes to end on duration
    assert n == 0 or 0.0 < min(step, duration - (n - 1) * step) <= step


def test_torus_action_takes_long_times():
    # no step budget: a million periods cost what a fraction of one does,
    # and the phase keeps all but the rounding of omega * tau against 4K
    state = zero_level_state(1.0, 0.9, -0.8)
    far = torus_act(1e6 + 0.37, 0.0, state, EPS)
    assert _state_distance(far, torus_act(0.37, 0.0, state, EPS)) < 1e-8


def test_measure_period_harmonic_limit():
    assert measure_period(EPS, 1e-6, PLUS) == pytest.approx(2.0 * math.pi, abs=1e-5)


@pytest.mark.parametrize("eps,c", [(0.01, 0.5), (0.05, 1.0), (0.06, 2.0)])
def test_measure_period_matches_formulas(eps, c):
    t1 = tau1(eps, c)
    assert abs(measure_period(eps, c, PLUS) - t1) <= 1e-6 * t1
    t2 = tau2(eps, c)
    assert abs(measure_period(eps, c, MINUS) - t2) <= 1e-6 * t2


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(1e-8, 0.06249), c=st.floats(1e-6, 2.0))
@example(eps=1e-8, c=1e-6)
@example(eps=1e-8, c=2.0)
@example(eps=0.06249, c=1e-6)
@example(eps=0.06249, c=2.0)  # the soft factor 1.6e-4 below its separatrix
def test_measure_period_matches_formulas_everywhere(eps, c):
    for sel, tau in ((PLUS, tau1), (MINUS, tau2)):
        want = tau(eps, c)
        assert abs(measure_period(eps, c, sel) - want) <= 1e-12 * want


def _period_mp(eps, c, sel):
    """The Jacobi period 4K(m)/omega of a factor of energy c, at 50 digits
    from the exact doubles eps and c."""
    with mp.workdps(50):
        eps, c = mp.mpf(eps), mp.mpf(c)
        a2 = 4 * c / (1 + mp.sqrt(1 + (8 if sel is PLUS else -8) * eps * c))
        omega2 = 1 + 2 * eps * a2 if sel is PLUS else 1 - eps * a2
        return 4 * mp.ellipk(eps * a2 / omega2) / mp.sqrt(omega2)


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(1e-300, 0.0625, exclude_max=True), c=st.floats(5e-324, 2.0),
       sel=st.sampled_from([PLUS, MINUS]))
@example(eps=1e-300, c=1e-320, sel=MINUS)
@example(eps=0.05, c=5e-324, sel=PLUS)
@example(eps=0.0624, c=0.999 / (8.0 * 0.0624), sel=MINUS)  # 1 - 8 eps c = 1e-3
@example(eps=0.0625 * (1.0 - 1e-13), c=2.0, sel=MINUS)
@example(eps=0.06249999999999999, c=2.0, sel=MINUS)  # one rounding from the separatrix
def test_measure_period_matches_mpmath(eps, c, sel):
    # within rounding of the Jacobi period at 1 - 8 eps c >= 1e-3; nearer the
    # separatrix the soft factor gets the separatrix allowance
    near = sel is MINUS and 1.0 - 8.0 * eps * c < 1e-3
    want = _period_mp(eps, c, sel)
    tol = 1e-15 + (_separatrix_allowance(eps, c) if near else 0.0)
    assert abs(measure_period(eps, c, sel) / want - 1) <= tol


# the fourth-order error of the stepped oracle's period at step 1e-3: at most
# 2.6e-13 relative (the stiff factor at c = 2 near eps = 1/16)
_STEPPED_PERIOD_ERROR = 5e-13


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(1e-8, 0.0625, exclude_max=True), c=st.floats(1e-6, 2.0))
@example(eps=0.0624, c=1.9)
@example(eps=0.0625 * (1.0 - 1e-13), c=2.0)
@example(eps=0.06249999999999999, c=2.0)
def test_quarter_period_matches_the_stepped_half_orbit(eps, c):
    # the closed-form period against the stepped oracle's, four quarters of
    # the stepped orbit or two halves, to that oracle's error; near the
    # separatrix the period amplifies rounding in the energy, so the soft
    # factor gets the separatrix allowance
    for sel in (PLUS, MINUS):
        period = measure_period(eps, c, sel)
        sep = _separatrix_allowance(eps, c) if sel is MINUS else 0.0
        for stepped in (ref_measure_quarter_period, ref_measure_half_period):
            try:
                want = stepped(eps, c, sel, 1e-3)
            except NumericsError as exc:
                if "separatrix" not in str(exc):
                    raise
                # the step's energy swings about 3.5e-14 relative: an orbit
                # closer than that to the separatrix is lifted over it
                assert sel is MINUS and 1.0 - 8.0 * eps * c < 1e-13
                continue
            assert abs(period - want) <= (_STEPPED_PERIOD_ERROR + sep) * want


def test_flow_equivalence_plans_its_substeps_in_one_array(monkeypatch):
    seen = []
    kernel = dynamics._planar_flow

    def counted(q, p, eps, runs):
        seen.append(list(runs))
        return kernel(q, p, eps, seen[-1])

    monkeypatch.setattr(dynamics, "_planar_flow", counted)
    state = zero_level_state(1.0, 0.9, -0.8)
    flow_equivalence(state, EPS, s_duration=1.0)
    # one run of Python numbers (substep length, count) per regularized step,
    # whose substeps add up to that step's physical time
    (runs,) = seen
    dts = np.diff(integrate_regularized(state, EPS, duration=1.0)[1])
    assert all(type(h) is float and type(count) is int for h, count in runs)
    assert [count for _, count in runs] == np.ceil(dts / 1e-3).tolist()
    np.testing.assert_allclose([h * count for h, count in runs], dts, rtol=1e-15, atol=0.0)


def test_flow_equivalence_gets_one_row_per_regularized_step(monkeypatch):
    seen = []
    kernel = dynamics._planar_flow

    def counted(q, p, eps, runs):
        runs = list(runs)
        rows = kernel(q, p, eps, runs)
        seen.append((len(runs), sum(count for _, count in runs), len(rows)))
        return rows

    monkeypatch.setattr(dynamics, "_planar_flow", counted)
    # a state inside the soft well, and a soft factor outside it, whose
    # regularized flow goes through the inversion z -> 1/z
    cases = [(zero_level_state(1.0, 0.9, -0.8), 1.0), (zero_level_state(0.5, 0.0, 4.0), 0.2)]
    assert [inside_the_soft_well(state, EPS) for state, _ in cases] == [True, False]
    for state, duration in cases:
        flow_equivalence(state, EPS, s_duration=duration)
    # |z|^2 exceeds 1 along these orbits, so some regularized steps take two
    # raw substeps or more; the kernel still returns one row per regularized step
    steps = [math.ceil(duration / 1e-3) for _, duration in cases]
    assert [(runs, rows) for runs, _, rows in seen] == [(n, n) for n in steps]
    assert all(substeps > n for (_, substeps, _), n in zip(seen, steps))


def test_regularized_flow_conserves_energy():
    state = zero_level_state(1.0, 0.9, -0.8)
    for flow in FLOWS:
        traj, phys = flow(state, EPS, duration=5.0)
        assert traj.energy_drift < 1e-10
        assert np.all(np.diff(traj.times) > 0.0)
        assert np.all(np.diff(phys) > 0.0)  # physical time accumulates monotonically


def test_collision_orbits_are_periodic():
    # the two degenerate slices are genuine periodic orbits of the full flow
    for flow in FLOWS:
        z1 = turning_point(EPS, 2.0, PLUS)
        state = RegularizedState(z=(z1, 0.0), w=(0.0, 0.0))
        traj, _ = flow(state, EPS, duration=tau1(EPS, 2.0))
        assert np.linalg.norm(traj.states[-1] - traj.states[0]) < 1e-6

        z2 = turning_point(EPS, 2.0, MINUS)
        state = RegularizedState(z=(0.0, z2), w=(0.0, 0.0))
        traj, _ = flow(state, EPS, duration=tau2(EPS, 2.0))
        assert np.linalg.norm(traj.states[-1] - traj.states[0]) < 1e-6


def _state_distance(a, b):
    return math.hypot(*(a.z - b.z), *(a.w - b.w))


def test_torus_action_identity_and_periods():
    state = zero_level_state(turning_point(EPS, 1.2, PLUS), 0.0, 0.6)
    out = torus_act(0.0, 0.0, state, EPS)
    assert _state_distance(out, state) == 0.0
    assert _state_distance(torus_act(1.0, 0.0, state, EPS), state) < 1e-13
    assert _state_distance(torus_act(0.0, 1.0, state, EPS), state) < 1e-13
    assert _state_distance(torus_act(1.0, 1.0, state, EPS), state) < 1e-13


def test_torus_action_preserves_factor_energies():
    state = zero_level_state(1.0, 0.9, -0.8)
    before = energy_split(state, EPS)
    out = torus_act(0.37, 0.61, state, EPS)
    after = energy_split(out, EPS)
    assert abs(after.e1 - before.e1) < 1e-10
    assert abs(after.e2 - before.e2) < 1e-10
    # the first-factor flow must not touch the second factor at all
    out1 = torus_act(0.37, 0.0, state, EPS)
    assert out1.z[1] == state.z[1] and out1.w[1] == state.w[1]


def test_torus_action_composition():
    state = zero_level_state(0.3, -1.2, 1.5)
    a = (0.4, 0.1)
    b = (0.35, 0.55)
    combined = torus_act(*a, torus_act(*b, state, EPS), EPS)
    direct = torus_act((a[0] + b[0]) % 1.0, (a[1] + b[1]) % 1.0, state, EPS)
    assert _state_distance(combined, direct) < 1e-13


def test_torus_action_without_a_field_is_the_harmonic_rotation():
    # torus_act refused eps = 0, which every other flow takes; there both
    # factors are z'' = -z of period 2 pi, and time t turns (z, w) by 2 pi t
    rng = np.random.default_rng(50)
    for _ in range(200):
        z, w = rng.uniform(-1.0, 1.0, (2, 2))
        t = rng.uniform(0.0, 3.0, 2)
        out = torus_act(*t, RegularizedState(z=z, w=w), 0.0)
        cos, sin = np.cos(2.0 * np.pi * t), np.sin(2.0 * np.pi * t)
        assert np.max(np.abs(out.z - (z * cos + w * sin))) <= 1e-14
        assert np.max(np.abs(out.w - (w * cos - z * sin))) <= 1e-14


def test_closed_form_flows_run_one_agm_per_factor(monkeypatch):
    # one AGM per factor, and one descent of its levels (_jacobi) per move: the
    # start's Landen sum is formed with the plan, not again by every move; every
    # AGM pass in the package counts, so the torus action reads each period off
    # its own flow's table rather than running the period kernel's AGMs too
    calls, descents, moves = [], [0], []
    agm, jacobi, factor_flow = dynamics._agm, dynamics._jacobi, dynamics._factor_flow

    def counted(m, cm=None):
        calls.append(np.ndim(m))
        return agm(m, cm)

    def counted_jacobi(*args):
        descents[0] += 1
        return jacobi(*args)

    def counted_factor_flow(*args):
        escape, period, move = factor_flow(*args)

        def counted_move(times):
            before = descents[0]
            result = move(times)
            moves.append(descents[0] - before)
            return result

        return escape, period, counted_move

    monkeypatch.setattr(dynamics, "_agm", counted)
    monkeypatch.setattr(elliptic, "_agm", counted)
    monkeypatch.setattr(dynamics, "_jacobi", counted_jacobi)
    monkeypatch.setattr(dynamics, "_factor_flow", counted_factor_flow)
    state = zero_level_state(1.0, 0.9, -0.8)
    torus_act(0.37, 0.61, state, EPS)
    assert (calls, moves) == ([0, 0], [1, 1])
    calls.clear()
    moves.clear()
    integrate_regularized(state, EPS, duration=5.0)
    assert (calls, moves) == ([0, 0], [1, 1])
    # a soft factor outside its well, below (1/z inside its own well) and
    # above the separatrix energy (z through tan(am(u)/2))
    for z2, w2 in ((4.0, -0.5), (3.3, -1.0)):
        calls.clear()
        moves.clear()
        integrate_regularized(RegularizedState(z=(0.5, z2), w=(0.2, w2)), EPS, duration=0.5)
        assert (calls, moves) == ([0, 0], [1, 1])
    for sel in (PLUS, MINUS):  # the period from one AGM, on one Python float
        calls.clear()
        measure_period(EPS, 1.0, sel)
        assert calls == [0]


def test_flow_equivalence_kepler():
    # zero field: both flows are explicit Kepler/oscillator motions
    state = RegularizedState(z=(math.sqrt(2.0), 0.0), w=(0.0, math.sqrt(2.0)))
    for equivalence in (flow_equivalence, ref_flow_equivalence):
        assert equivalence(state, 0.0, 1e-3, 5.0) < 1e-6


def test_flow_equivalence_bounded_states():
    for args in ((1.0, 0.9, -0.8), (0.3, -1.2, 1.5)):
        state = zero_level_state(*args)
        for equivalence in (flow_equivalence, ref_flow_equivalence):
            assert equivalence(state, EPS, 1e-3, 3.0) < 1e-5


def test_flow_equivalence_level_set_error():
    state = RegularizedState(z=(1.0, 0.0), w=(0.0, 0.0))  # E = -1.475
    with pytest.raises(DomainError, match="off the zero level set"):
        flow_equivalence(state, EPS, s_duration=1.0)


def test_flow_equivalence_plans_the_raw_flow_within_the_budget(monkeypatch):
    # a zero-level state escaping past the soft saddle reaches t(s) = 1.0e5
    # by s = 1.647, just short of its escape at s* = 1.6471912770405519:
    # 1.0e8 raw substeps at the default step, a plan refused before the raw
    # flow takes its first step
    def kernel(*args):
        raise AssertionError("the raw flow ran")

    monkeypatch.setattr(dynamics, "_planar_flow", kernel)
    state = RegularizedState(z=(0.5, 4.0), w=(0.0, 0.739509972887452))
    assert not inside_the_soft_well(state, EPS)
    with pytest.raises(DomainError, match=r"^the raw flow to t = 104560 at step 0.001 needs "
                                          r"more than max_steps=10000000 steps$"):
        flow_equivalence(state, EPS, s_duration=1.647)
    # an overflowing t(s) plans inf or NaN substeps, which the budget refuses too
    state = zero_level_state(1.0, 0.9, -0.8)
    traj, _ = integrate_regularized(state, EPS, duration=2e-3)
    for phys in ([0.0, 1.0, math.inf], [0.0, math.nan, math.nan]):
        monkeypatch.setattr(dynamics, "integrate_regularized",
                            lambda *args, phys=phys: (traj, np.array(phys)))
        with pytest.raises(DomainError, match="max_steps=10000000"):
            flow_equivalence(state, EPS, s_duration=2e-3)


def test_integrator_step_validation():
    # both entry points that take a step check it
    state = zero_level_state(1.0, 0.9, -0.8)
    for run in (lambda h: integrate_regularized(state, EPS, h),
                lambda h: flow_equivalence(state, EPS, h)):
        for step in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(DomainError, match="integrator step must be positive and finite"):
                run(step)
        for step in ("fast", None, [1e-3, 2e-3]):  # float() rejects each
            with pytest.raises(DomainError, match="integrator step must be a real number"):
                run(step)


def test_numpy_scalar_step_runs_as_a_python_float(monkeypatch):
    # the stepping loop runs on Python floats: a numpy step or field strength
    # would make it run on numpy scalars, whose overflow warns instead of
    # reaching the finiteness check
    seen = []
    kernel = dynamics._planar_flow

    def typed(q, p, eps, runs):
        runs = list(runs)
        seen.append({type(eps)} | {type(h) for h, _ in runs})
        return kernel(q, p, eps, runs)

    monkeypatch.setattr(dynamics, "_planar_flow", typed)
    state = zero_level_state(1.0, 0.9, -0.8)
    deviation = flow_equivalence(state, np.float64(EPS), np.float64(1e-2), 0.5)
    assert deviation == flow_equivalence(state, EPS, 1e-2, 0.5)
    assert seen == [{float}, {float}]


# --- reference: the per-step loops that the scalar kernel replaced ----------
#
# Each step ran on numpy scalars or 2-vectors through a force closure, and
# every per-step diagnostic was taken inside the loop.  The coefficients
# come from Yoshida's triple jump (Phys. Lett. A 150, 1990), kicks
# (w1, w0, w1) with w1 = 1/(2 - 2^(1/3)) and w0 = -2^(1/3) w1, and the
# drifts are half the sum of the kicks beside them.

_CBRT2 = 2.0 ** (1.0 / 3.0)
_REF_W1, _REF_W0 = 1.0 / (2.0 - _CBRT2), -_CBRT2 / (2.0 - _CBRT2)
REF_COEFFS = (
    (0.5 * _REF_W1, 0.5 * (_REF_W0 + _REF_W1), 0.5 * (_REF_W0 + _REF_W1), 0.5 * _REF_W1),
    (_REF_W1, _REF_W0, _REF_W1),
)


def _ref_step_pair(q, p, h, force, coeffs):
    cs, ds = coeffs
    for c, d in zip(cs, ds):
        q = q + c * h * p
        p = p + d * h * force(q)
    return q + cs[-1] * h * p, p


def _ref_planar_force(eps):
    field = np.array([eps, 0.0])

    def force(q):
        r = np.hypot(q[0], q[1])
        if r < COLLISION_CUTOFF:
            raise NumericsError("collision cutoff")
        return -q / r**3 - field

    return force


def _ref_checked_drift(q, dq):
    len2 = dq[0] * dq[0] + dq[1] * dq[1]
    if len2 > 0.0:
        t = min(max(-(q[0] * dq[0] + q[1] * dq[1]) / len2, 0.0), 1.0)
        r_min = np.hypot(q[0] + t * dq[0], q[1] + t * dq[1])
    else:
        r_min = np.hypot(q[0], q[1])
    if r_min < COLLISION_CUTOFF:
        raise NumericsError("collision along a drift")
    return q + dq


def _ref_planar_step(q, p, h, force, coeffs):
    cs, ds = coeffs
    for c, d in zip(cs, ds):
        q = _ref_checked_drift(q, c * h * p)
        p = p + d * h * force(q)
    return _ref_checked_drift(q, cs[-1] * h * p), p


def _ref_oscillator_force(eps, sel):
    two_eps = 2.0 * eps
    if sel is PLUS:
        return lambda z: -z - two_eps * z * z * z
    return lambda z: -z + two_eps * z * z * z


def _ref_regularized_force(eps):
    two_eps = 2.0 * eps
    return lambda z: np.array([-z[0] - two_eps * z[0] ** 3, -z[1] + two_eps * z[1] ** 3])


def ref_integrate_planar(state, eps, step, duration):
    n = math.ceil(duration / step - 1e-12)
    force, coeffs, h = _ref_planar_force(eps), REF_COEFFS, step
    energy = lambda q, p: 0.5 * (p[0] * p[0] + p[1] * p[1]) - 1.0 / np.hypot(q[0], q[1]) + eps * q[0]
    q, p = state.q.copy(), state.p.copy()
    times, states = np.empty(n + 1), np.empty((n + 1, 4))
    times[0], states[0] = 0.0, (*q, *p)
    e0, drift = energy(q, p), 0.0
    for i in range(1, n + 1):
        q, p = _ref_planar_step(q, p, min(h, duration - (i - 1) * h), force, coeffs)
        times[i], states[i] = min(i * h, duration), (*q, *p)
        drift = max(drift, abs(energy(q, p) - e0))
    return times, states, drift


def ref_integrate_oscillator(z0, w0, eps, sel, step, duration):
    n = math.ceil(duration / step - 1e-12)
    force, coeffs, h = _ref_oscillator_force(eps, sel), REF_COEFFS, step
    sign = 1.0 if sel is PLUS else -1.0
    energy = lambda z, w: 0.5 * w * w + 0.5 * z * z + sign * 0.5 * eps * z**4
    z, w = float(z0), float(w0)
    times, states = np.empty(n + 1), np.empty((n + 1, 2))
    times[0], states[0] = 0.0, (z, w)
    e0, drift = energy(z, w), 0.0
    for i in range(1, n + 1):
        z, w = _ref_step_pair(z, w, min(h, duration - (i - 1) * h), force, coeffs)
        times[i], states[i] = min(i * h, duration), (z, w)
        drift = max(drift, abs(energy(z, w) - e0))
    return times, states, drift


def ref_integrate_regularized(state, eps, step, duration):
    n = math.ceil(duration / step - 1e-12)
    force, coeffs, h = _ref_regularized_force(eps), REF_COEFFS, step
    z, w = state.z.copy(), state.w.copy()
    times, states, phys = np.empty(n + 1), np.empty((n + 1, 4)), np.empty(n + 1)
    times[0], states[0], phys[0] = 0.0, (*z, *w), 0.0
    e0, drift = regularized_energy(state, eps), 0.0
    r2 = lambda zz: zz[0] * zz[0] + zz[1] * zz[1]
    for i in range(1, n + 1):
        hh = min(h, duration - (i - 1) * h)
        r_a = r2(z)
        z, w = _ref_step_pair(z, w, 0.5 * hh, force, coeffs)
        r_m = r2(z)
        z, w = _ref_step_pair(z, w, 0.5 * hh, force, coeffs)
        r_b = r2(z)
        times[i], states[i] = min(i * h, duration), (*z, *w)
        phys[i] = phys[i - 1] + hh / 6.0 * (r_a + 4.0 * r_m + r_b)
        drift = max(drift, abs(regularized_energy(RegularizedState(z, w), eps) - e0))
    return times, states, drift, phys


def _ref_section_time(eps, c, sel, step, crossed, solve):
    """Time from (z_max, 0) to the first step (z, w) -> (z1, w1) that
    ``crossed`` accepts, plus the time into that step that ``solve`` finds
    from the step's map t -> S_t(z, w), its start and its length."""
    force, coeffs, h = _ref_oscillator_force(eps, sel), REF_COEFFS, step
    z, w, t = turning_point(eps, c, sel), 0.0, 0.0
    saddle = 1.0 / math.sqrt(2.0 * eps) if sel is MINUS else math.inf
    for _ in range(dynamics._MAX_STEPS):
        z1, w1 = _ref_step_pair(z, w, h, force, coeffs)
        if abs(z1) > saddle:
            raise NumericsError("period run crossed the separatrix")
        if crossed(z, w, z1, w1):
            moved = lambda s: _ref_step_pair(z, w, s, force, coeffs)
            return t + solve(moved, z, w, h)
        z, w, t = z1, w1, t + h
    raise NumericsError("no return")


def _ref_bisect_w(sign):
    """The time in [0, h] where sign * w turns from positive, bisected until
    no float lies inside the bracket."""
    def solve(moved, z, w, h):
        lo, hi = 0.0, h
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if sign * moved(mid)[1] > 0.0 else (lo, mid)
        return mid
    return solve


def _ref_newton_z(moved, z, w, h):
    """The time in [0, h] where z reaches 0: Newton's method with w as the
    slope, bisecting where an iterate leaves the bracket, until rounding."""
    lo, hi, t, zt, wt = 0.0, h, 0.0, z, w
    while zt != 0.0:
        nxt = t - zt / wt if wt < 0.0 else hi
        if nxt == t:
            break
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        t = nxt
        zt, wt = moved(t)
        lo, hi = (t, hi) if zt > 0.0 else (lo, t)
    return t


def ref_measure_period(eps, c, sel, step):
    """The stepped return to the starting turning point."""
    return _ref_section_time(eps, c, sel, step,
                             lambda z, w, z1, w1: w > 0.0 >= w1 and z1 > 0.0, _ref_bisect_w(1.0))


def ref_measure_half_period(eps, c, sel, step):
    """Twice the time to the opposite turning point."""
    return 2.0 * _ref_section_time(eps, c, sel, step,
                                   lambda z, w, z1, w1: w < 0.0 <= w1 and z1 < 0.0,
                                   _ref_bisect_w(-1.0))


def ref_measure_quarter_period(eps, c, sel, step):
    """Four times the time to the first crossing of z = 0."""
    return 4.0 * _ref_section_time(eps, c, sel, step, lambda z, w, z1, w1: z1 < 0.0,
                                   _ref_newton_z)


def _ref_flow_factor(z, w, duration, force, coeffs, h):
    n_full, rem = divmod(duration, h)
    for _ in range(int(n_full)):
        z, w = _ref_step_pair(z, w, h, force, coeffs)
    if rem > 1e-15 * max(1.0, duration):
        z, w = _ref_step_pair(z, w, rem, force, coeffs)
    return z, w


def ref_torus_act(t1, t2, state, eps, step):
    split, coeffs, h = energy_split(state, eps), REF_COEFFS, step
    z1, w1 = _ref_flow_factor(state.z[0], state.w[0], t1 * tau1(eps, split.e1),
                              _ref_oscillator_force(eps, PLUS), coeffs, h)
    z2, w2 = _ref_flow_factor(state.z[1], state.w[1], t2 * tau2(eps, split.e2),
                              _ref_oscillator_force(eps, MINUS), coeffs, h)
    return RegularizedState(z=(z1, z2), w=(w1, w2))


def ref_flow_equivalence(state, eps, step, s_duration):
    """The raw flow stepped against the package's regularized one (closed
    form where the state has one) and t(s)."""
    traj, phys = integrate_regularized(state, eps, step, s_duration)
    states = traj.states
    planar = lc_lift(state)
    q, p = planar.q.copy(), planar.p.copy()
    force, coeffs, h = _ref_planar_force(eps), REF_COEFFS, step
    max_dev = 0.0
    for i in range(1, len(phys)):
        dt = phys[i] - phys[i - 1]
        n_sub = max(1, math.ceil(dt / h))
        for _ in range(n_sub):
            q, p = _ref_planar_step(q, p, dt / n_sub, force, coeffs)
        lifted = lc_lift(RegularizedState(states[i, :2], states[i, 2:]))
        max_dev = max(max_dev, math.hypot(*(lifted.q - q), *(lifted.p - p)))
    return max_dev


REF_CASES = [1e-8, 1e-3, 0.05, 0.0624]
# the kernel's shared cube z*z*z replaces the vector force's z**3, and
# math.hypot may differ from np.hypot in the last bit
REF_TOL = dict(rtol=1e-13, atol=1e-13)
REF_DURATION = 2.0005  # ends on a remainder step at either step size below


@pytest.mark.parametrize("eps", REF_CASES)
def test_oscillator_kernel_matches_reference_exactly(eps):
    step = 1e-2
    for z0, w0, sel in ((1.2, 0.3, PLUS), (0.5, 0.4, MINUS)):
        k = 2.0 * eps if sel is PLUS else -2.0 * eps
        times, runs = whole_steps(REF_DURATION, step)
        zs, ws = [z0], [w0]
        for h, count in runs:
            (z,), (w,) = _oscillate(zs[-1], ws[-1], k, h, count)
            zs.append(z)
            ws.append(w)
        e = _factor_energy(np.array(zs), np.array(ws), 0.5 * k)
        ref_times, states, drift = ref_integrate_oscillator(z0, w0, eps, sel, step,
                                                            REF_DURATION)
        assert np.array_equal(times, ref_times)
        assert np.array_equal(np.column_stack((zs, ws)), states)
        assert np.max(np.abs(e - e[0])) == drift
    # the reflected quarter orbit times the stepped return to within its
    # closure, and the closed-form period both to the stepped error
    for sel in (PLUS, MINUS):
        quarter = ref_measure_quarter_period(eps, 1.0, sel, 1e-3)
        full = ref_measure_period(eps, 1.0, sel, 1e-3)
        assert abs(quarter - full) <= 1e-12 * full
        assert abs(measure_period(eps, 1.0, sel) - full) <= _STEPPED_PERIOD_ERROR * full


@pytest.mark.parametrize("eps", REF_CASES)
def test_regularized_and_planar_flows_match_reference(eps):
    step = 1e-2
    # just outside the soft factor's well: the stepped oracle follows the
    # reference loop, and the closed form follows it to its fourth-order error
    outside = RegularizedState(z=(1.0, 1.05 / math.sqrt(2.0 * eps)), w=(0.5, -1.0))
    assert not inside_the_soft_well(outside, eps)
    traj, phys = kernel_flow(outside, eps, step, REF_DURATION)
    times, states, drift, ref_phys = ref_integrate_regularized(outside, eps, step, REF_DURATION)
    assert np.array_equal(traj.times, times)
    np.testing.assert_allclose(traj.states, states, **REF_TOL)
    np.testing.assert_allclose(phys, ref_phys, **REF_TOL)
    # the drift is a difference of energies of order e2 (1.2e7 at eps = 1e-8),
    # each rounded at that scale
    scale = abs(regularized_energy(outside, eps))
    np.testing.assert_allclose(traj.energy_drift, drift, rtol=0.0, atol=REF_TOL["atol"] * scale)
    traj, phys = integrate_regularized(outside, eps, step, REF_DURATION)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.states - states) / np.maximum(1.0, np.abs(states))) <= 1e-8
    assert np.max(np.abs(phys - ref_phys) / np.maximum(1.0, ref_phys)) <= 1e-9

    planar = PlanarState(q=(1.0, 0.2), p=(0.1, 0.9))
    _, runs = whole_steps(REF_DURATION, step)
    rows = dynamics._planar_flow(planar.q, planar.p, eps, runs)
    _, states, _ = ref_integrate_planar(planar, eps, step, REF_DURATION)
    np.testing.assert_allclose(rows, states[1:], **REF_TOL)

    state = zero_level_state(1.0, 0.9, -0.8, eps)
    np.testing.assert_allclose(
        flow_equivalence(state, eps, step, REF_DURATION),
        ref_flow_equivalence(state, eps, step, REF_DURATION),
        **REF_TOL,
    )


# --- exact oscillator flows (Jacobi elliptic functions, DLMF 22.13) ---------


def exact_stiff(a, t, eps=EPS):
    """z'' = -z - 2 eps z^3 from (a, 0): z = a cn(omega t | m)."""
    omega = math.sqrt(1.0 + 2.0 * eps * a * a)
    sn, cn, dn, _ = ellipj(omega * np.asarray(t), eps * a * a / omega**2)
    return a * cn, -a * omega * sn * dn


def exact_soft(a, t, eps=EPS):
    """z'' = -z + 2 eps z^3 from (0, a omega): z = a sn(omega t | m)."""
    omega = math.sqrt(1.0 - eps * a * a)
    sn, cn, dn, _ = ellipj(omega * np.asarray(t), eps * a * a / omega**2)
    return a * sn, a * omega * cn * dn


def _oscillator_error(a, sel, step, flow=integrate_regularized):
    exact = exact_stiff if sel is PLUS else exact_soft
    z0, w0 = (x[()] for x in exact(a, 0.0))
    traj = factor_flow(z0, w0, EPS, sel, step, 5.0, flow)
    z, w = exact(a, traj.times)
    return max(np.max(np.abs(traj.states[:, 0] - z)), np.max(np.abs(traj.states[:, 1] - w)))


@pytest.mark.parametrize("sel", [PLUS, MINUS])
@pytest.mark.parametrize("a", [0.5, 1.5])
def test_oscillator_matches_exact_flow(a, sel):
    assert _oscillator_error(a, sel, 1e-3, kernel_flow) < 1e-11
    assert _oscillator_error(a, sel, 1e-3) < 1e-13


@pytest.mark.parametrize("sel", [PLUS, MINUS])
def test_yoshida_error_order_against_exact_flow(sel):
    ratio = _oscillator_error(1.5, sel, 0.02, kernel_flow) / (
        _oscillator_error(1.5, sel, 0.01, kernel_flow)
    )
    assert 14.0 <= ratio <= 18.0


def _exact_state(eps, c1, s1, c2, s2):
    """Both factors at energies c1, c2, times s1, s2 after their turning
    resp. crossing point; a factor at c = 0 rests at the origin."""
    z1, w1 = exact_stiff(turning_point(eps, c1, PLUS), s1, eps) if c1 else (0.0, 0.0)
    z2, w2 = exact_soft(turning_point(eps, c2, MINUS), s2, eps) if c2 else (0.0, 0.0)
    return np.array([z1, z2]), np.array([w1, w2])


@settings(max_examples=150, deadline=None)
@given(
    eps=st.floats(1e-8, 0.0625, exclude_max=True),
    c1=st.floats(0.0, 2.0),
    c2=st.floats(0.0, 2.0),
    s=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    t=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
)
@example(eps=1e-8, c1=2.0, c2=0.0, s=(0.0, 0.0), t=(0.37, 0.61))
@example(eps=0.0624999, c1=0.0, c2=2.0, s=(0.0, 3.0), t=(0.37, 0.61))
def test_torus_action_matches_exact_flows(eps, c1, c2, s, t):
    z, w = _exact_state(eps, c1, s[0], c2, s[1])
    state = RegularizedState(z=z, w=w)
    split = energy_split(state, eps)
    out = torus_act(*t, state, eps)
    moved = (s[0] + t[0] * tau1(eps, split.e1), s[1] + t[1] * tau2(eps, split.e2))
    z, w = _exact_state(eps, c1, moved[0], c2, moved[1])
    # near the separatrix the soft period grows like log 1/(1 - 8 eps c2), so
    # the last bit of the state's energy moves its phase by ~1e-15/(1 - 8 eps c2)
    tol = 1e-13 + 1e-14 / (1.0 - 8.0 * eps * c2)
    assert np.max(np.abs(np.concatenate((out.z - z, out.w - w)))) <= tol


@pytest.mark.parametrize("eps", [1e-8, 1e-3, 0.05, 0.0624])
@pytest.mark.parametrize("rest", [None, 0, 1], ids=["both_move", "stiff_at_rest", "soft_at_rest"])
def test_torus_action_matches_integrated_reference(eps, rest):
    z, w = [1.0, -0.8], [0.9, 1.2]
    if rest is not None:
        z[rest] = w[rest] = 0.0
    state = RegularizedState(z=z, w=w)
    out = torus_act(0.37, 0.61, state, eps)
    ref = ref_torus_act(0.37, 0.61, state, eps, 1e-3)
    assert np.max(np.abs(np.concatenate((out.z - ref.z, out.w - ref.w)))) <= 5e-12


@pytest.mark.parametrize("eps", [1e-3, 0.03, 0.05, 0.0624])
def test_half_turn_of_both_factors_is_the_deck_map(eps):
    # acting by (1/2, 1/2) moves each factor half its period, which takes
    # (z, w) to (-z, -w): the Levi-Civita deck map, a torus element
    rng = np.random.default_rng(2)
    for z, w in rng.uniform(-1.0, 1.0, (200, 2, 2)):
        out = torus_act(0.5, 0.5, RegularizedState(z=z, w=w), eps)
        assert np.max(np.abs(np.concatenate((out.z + z, out.w + w)))) <= 1e-14


def test_torus_action_steps_no_integrator(monkeypatch):
    calls = []
    kernel = dynamics._planar_flow

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_planar_flow", counted)
    state = zero_level_state(1.0, 0.9, -0.8)
    torus_act(0.37, 0.61, torus_act(1.0, 1.0, state, EPS), EPS)
    assert calls == []


def test_torus_action_takes_time_literally():
    a = 1.3
    state = zero_level_state(a, 0.0, 0.6)
    c1 = energy_split(state, EPS).e1
    out = torus_act(0.37, 0.0, state, EPS)
    z, w = exact_stiff(a, 0.37 * tau1(EPS, c1))
    assert abs(out.z[0] - z) < 1e-10 and abs(out.w[0] - w) < 1e-10
    assert out.z[1] == state.z[1] and out.w[1] == state.w[1]


# --- the regularized flow in closed form ------------------------------------


def _mp_levels(z, w, eps, sign):
    """(a^2, omega, m, u_0) of the exact flow through (z, w) of the stiff
    (sign 1) or soft (sign -1) factor, in mpmath's working precision, or
    None for a factor at rest."""
    z, w, eps = mp.mpf(z), mp.mpf(w), mp.mpf(eps)
    e = w * w / 2 + z * z / 2 + sign * eps * z**4 / 2
    if e == 0:
        return None
    a2 = 4 * e / (1 + mp.sqrt(1 + sign * 8 * eps * e))
    omega = mp.sqrt(1 + 2 * eps * a2 if sign > 0 else 1 - eps * a2)
    m = eps * a2 / omega**2
    r = z / mp.sqrt(a2)
    if sign > 0:
        phi0 = mp.atan2(-w / (mp.sqrt(a2) * omega * mp.sqrt(1 - m + m * r * r)), r)
    else:
        phi0 = mp.atan2(r, w / (mp.sqrt(a2) * omega * mp.sqrt(1 - m * r * r)))
    return a2, omega, m, mp.ellipf(phi0, m)


def _mp_orbit(z, w, eps, sign, times):
    """Rows (z, w) of the exact flow from (z, w) at ``times``: stiff a cn,
    soft a sn (DLMF 22.13) from mpmath's Jacobi functions at 50 digits."""
    rows = []
    with mp.workdps(50):
        a2, omega, m, u0 = _mp_levels(z, w, eps, sign)
        a = mp.sqrt(a2)
        for t in times:
            sn, cn, dn = (mp.ellipfun(f, u0 + omega * mp.mpf(t), m=m) for f in ("sn", "cn", "dn"))
            stiff, soft = (a * cn, -a * omega * sn * dn), (a * sn, a * omega * cn * dn)
            rows.append(stiff if sign > 0 else soft)
    return np.array(rows, dtype=float)


def _mp_time(state, eps, duration):
    """int_0^duration |z|^2 ds along the exact flow from ``state``: mpmath's
    Gauss-Legendre quadrature of a^2 cn^2 (stiff) and a^2 sn^2 (soft) in
    u = u_0 + omega s, each over panels about 2 long, at 20 digits."""
    total = 0.0
    with mp.workdps(20):
        for z, w, sign in zip(state.z, state.w, (1, -1)):
            levels = _mp_levels(z, w, eps, sign)
            if levels is None:
                continue
            a2, omega, m, u0 = levels
            u1 = u0 + omega * duration
            panels = mp.linspace(u0, u1, int(mp.ceil((u1 - u0) / 2)) + 1)
            fn = "cn" if sign > 0 else "sn"
            integral = mp.quad(lambda u: mp.ellipfun(fn, u, m=m) ** 2, panels,
                               method="gauss-legendre")
            total += float(a2 * integral / omega)
    return total


_CLOSED_FORM_EXAMPLES = [
    dict(eps=0.05, c1=0.0, c2=1.5, s=(0.0, 1.0), duration=3.0),  # stiff factor at rest
    dict(eps=0.05, c1=1.2, c2=0.0, s=(2.0, 0.0), duration=3.0),  # soft factor at rest
    dict(eps=1e-8, c1=0.5, c2=0.5, s=(0.3, -0.7), duration=2.0),  # m about 1e-8 in both
    dict(eps=0.0624999, c1=0.1, c2=2.0, s=(0.0, 3.0), duration=5.0),  # soft near the separatrix
    dict(eps=0.03, c1=1.0, c2=1.0, s=(-4.0, 6.0), duration=30.0),  # several periods
]


def _closed_form_cases(max_examples):
    """Zero-level-free states from the exact flows (a factor at c = 0 rests),
    eps in [1e-12, 1/16), run for a regularized duration in [0.5, 10]."""
    def wrap(test):
        for case in _CLOSED_FORM_EXAMPLES:
            test = example(**case)(test)
        return settings(max_examples=max_examples, deadline=None)(given(
            eps=st.floats(1e-12, 0.0625, exclude_max=True),
            c1=st.floats(0.0, 2.0),
            c2=st.floats(0.0, 2.0),
            s=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
            duration=st.floats(0.5, 10.0),
        )(test))
    return wrap


def _separatrix_allowance(eps, c2):
    """As for the torus action: near the separatrix the last bit of a state's
    energy moves the soft phase by ~1e-15/(1 - 8 eps c2)."""
    return 1e-14 / (1.0 - 8.0 * eps * c2)


@_closed_form_cases(max_examples=60)
def test_exact_regularized_flow_matches_jacobi_and_kernel(eps, c1, c2, s, duration):
    z, w = _exact_state(eps, c1, s[0], c2, s[1])
    state = RegularizedState(z=z, w=w)
    traj, phys = integrate_regularized(state, eps, duration=duration)
    z1, w1 = exact_stiff(turning_point(eps, c1, PLUS), s[0] + traj.times, eps) if c1 else (0.0, 0.0)
    z2, w2 = exact_soft(turning_point(eps, c2, MINUS), s[1] + traj.times, eps) if c2 else (0.0, 0.0)
    want = np.column_stack(np.broadcast_arrays(z1, z2, w1, w2))
    sep = _separatrix_allowance(eps, c2)
    assert np.max(np.abs(traj.states - want)) <= 1e-13 + sep
    ref, ref_phys = kernel_flow(state, eps, duration=duration)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-11 + sep
    assert np.max(np.abs(phys - ref_phys)) <= 1e-10 + sep


@_closed_form_cases(max_examples=15)
def test_exact_time_matches_mpmath_quadrature(eps, c1, c2, s, duration):
    z, w = _exact_state(eps, c1, s[0], c2, s[1])
    state = RegularizedState(z=z, w=w)
    _, phys = integrate_regularized(state, eps, duration=duration)
    want = _mp_time(state, eps, duration)
    assert abs(phys[-1] - want) <= (1e-13 + _separatrix_allowance(eps, c2)) * want


def test_default_spec_steps_no_kernel(monkeypatch, capsys):
    # the one stepping loop runs once per raw flow of flow_equivalence, and
    # for nothing else
    calls = []
    kernel = dynamics._planar_flow

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(dynamics, "_planar_flow", counted)
    state = zero_level_state(1.0, 0.9, -0.8)
    factor_flow(1.2, 0.3, EPS, PLUS, duration=2.0)
    factor_flow(0.5, 0.4, EPS, MINUS, duration=2.0)
    integrate_regularized(state, EPS, duration=2.0)
    for sel in (PLUS, MINUS):
        measure_period(EPS, 1.0, sel)
    init = ",".join(f"{v:.17g}" for v in (state.z[0], state.w[0], state.z[1], state.w[1]))
    argv = ["flow", "--eps", "0.05", f"--init={init}", "--duration", "1", "--out", os.devnull]
    assert main(argv) == 0
    assert calls == []
    flow_equivalence(state, EPS, s_duration=1.0)
    assert main([*argv, "--check-lc"]) == 0
    assert calls == [1, 1]
    capsys.readouterr()


def test_soft_factor_outside_its_well_follows_the_stepped_oracle():
    # beyond the saddle 1/sqrt(2 eps) = 3.16 and above the separatrix energy
    # (8 eps e2 = 1.19), the soft factor's tan half-angle form
    state = RegularizedState(z=(1.0, 3.3), w=(0.5, -1.0))
    traj, phys = integrate_regularized(state, EPS, duration=0.5)
    ref, ref_phys = kernel_flow(state, EPS, step=1e-4, duration=0.5)
    assert np.max(np.abs(traj.states - ref.states[::10])) <= 1e-12
    assert np.max(np.abs(phys - ref_phys[::10])) <= 1e-12


# a soft factor outside its well, one per case of _factor_flow: (z2, w2, eps)
# with their 8 eps e2 and escape times s*
_OUTSIDE_THE_WELL = {
    "beyond_the_saddle": (4.0, -0.5, EPS),  # 8 eps e2 = 0.69, s* = 2.1535
    "zero_energy": (8.0, 0.0, 1.0 / 64.0),  # e2 = 0 exactly, s* = pi/2
    "negative_energy": (10.0, 0.0, EPS),  # 8 eps e2 = -80, s* = 0.6032
    "above_the_separatrix": (3.3, -1.0, EPS),  # 8 eps e2 = 1.19, s* = 6.0698
    "on_the_separatrix": (1.0, math.sqrt(EPS) * (1.0 - 10.0), EPS),  # 8 eps e2 = 1.0 exactly
}


def test_regularized_flow_steps_nothing(monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("the splitting kernel ran")

    monkeypatch.setattr(dynamics, "_planar_flow", kernel)
    traj, _ = integrate_regularized(zero_level_state(1.0, 0.9, -0.8), EPS, duration=0.5)
    assert np.isfinite(traj.states).all()
    for z, w, eps in _OUTSIDE_THE_WELL.values():
        state = RegularizedState(z=(0.5, z), w=(0.2, w))
        assert not inside_the_soft_well(state, eps)
        traj, phys = integrate_regularized(state, eps, duration=0.5)
        assert np.isfinite(traj.states).all() and np.all(np.diff(phys) > 0.0)
    assert [8.0 * (eps * energy_split(RegularizedState(z=(0.0, z), w=(0.0, w)), eps).e2)
            for z, w, eps in _OUTSIDE_THE_WELL.values()] == [0.69, 0.0, -80.0, 1.192079, 1.0]


def _escape_time(state, eps):
    """The escape time s* that integrate_regularized names when it refuses a run."""
    with pytest.raises(DomainError, match="escapes to infinity") as info:
        integrate_regularized(state, eps, 1e9, 1e9)
    return float(re.search(r"s\* = (\S+),", str(info.value)).group(1))


def _mp_escape_time(z, w, eps):
    """s* = int dz/w along the soft orbit from (z, w) out to infinity, by
    mpmath's quadrature at 30 digits, through the outer turning point
    sqrt(beta), where w^2 vanishes, if the orbit heads inwards to one."""
    with mp.workdps(30):
        z, w, eps = mp.mpf(z), mp.mpf(w), mp.mpf(eps)
        two_e = w * w + z * z - eps * z**4

        def speed(zeta):
            # 1/w, but 0 where a node rounds onto a turning point, whose weight is nil
            w2 = two_e - zeta * zeta + eps * zeta**4
            return 1 / mp.sqrt(w2) if w2 else w2

        def out(start):
            """The integral from start to infinity, split at 0, at the saddles
            +-1/sqrt(2 eps), where w is least near the separatrix, and at +-1/sqrt(eps)."""
            scales = (1 / mp.sqrt(eps), 1 / mp.sqrt(2 * eps))
            cuts = [cut for cut in (-scales[0], -scales[1], 0, *scales[::-1]) if cut > start]
            return mp.quad(speed, [start, *cuts, mp.inf])

        ahead = z if w > 0 else -z  # the position along the direction of motion
        disc = 1 - 4 * eps * two_e
        if disc < 0 or ahead > 0:
            total = out(ahead)
        else:
            turn = mp.sqrt((1 + mp.sqrt(disc)) / (2 * eps))
            total = out(min(turn, -ahead))
            if turn < -ahead:  # the way in to the turning point
                total += mp.quad(speed, [turn, -ahead])
        # nodes within rounding of a turning point can see a negative w^2
        return float(mp.re(total))


def test_escape_times_match_mpmath_quadrature():
    for z, w, eps in _OUTSIDE_THE_WELL.values():
        state = RegularizedState(z=(0.0, z), w=(0.0, w))
        if z == 1.0:  # on the separatrix, heading for the saddle: it never escapes
            assert integrate_regularized(state, eps, 1e6, 1e6)[0].states[-1, 1] == \
                pytest.approx(-math.sqrt(10.0), rel=1e-15, abs=0)
            continue
        want = _mp_escape_time(z, w, eps)
        assert abs(_escape_time(state, eps) - want) <= 1e-15 * want


@settings(max_examples=30, deadline=None)
@given(
    eps=st.floats(1e-6, 0.0625, exclude_max=True),
    kind=st.sampled_from(["below", "nonpositive", "above"]),
    x=st.floats(0.0, 1.0),
    u=st.floats(0.0, 0.4),
    sign=st.sampled_from([-1.0, 1.0]),
    flip=st.sampled_from([-1.0, 1.0]),
)
@example(eps=0.05, kind="below", x=0.5, u=0.0, sign=-1.0, flip=1.0)  # from a turning point
@example(eps=1e-6, kind="above", x=1.0, u=0.4, sign=1.0, flip=-1.0)
@example(eps=0.0625 * (1.0 - 1e-15), kind="nonpositive", x=0.0, u=0.4, sign=-1.0, flip=1.0)
def test_soft_factor_outside_its_well_matches_the_stepped_oracle(eps, kind, x, u, sign, flip):
    # 8 eps e2 in [1e-3, 0.999] or in [-8, 0] with z at 1 to 1.4 times the
    # outer turning point sqrt(beta), or in [1.001, 9] above the separatrix
    # energy with |z| <= 2/sqrt(2 eps); at that distance from the separatrix
    # the quadrature pins s* to rounding
    two_e = {"below": 1e-3 + 0.998 * x, "nonpositive": -8.0 * x, "above": 1.001 + 8.0 * x}[kind]
    two_e /= 4.0 * eps
    if kind == "above":
        z = flip * u * 5.0 / math.sqrt(2.0 * eps)
    else:
        z = flip * (1.0 + u) * math.sqrt((1.0 + math.sqrt(1.0 - 4.0 * eps * two_e)) / (2.0 * eps))
    w = sign * math.sqrt(max(0.0, two_e - z * z + eps * z**4))
    state = RegularizedState(z=(0.0, z), w=(0.0, w))
    assert not inside_the_soft_well(state, eps)
    s_star = _escape_time(state, eps)
    want = _mp_escape_time(z, w, eps)
    assert abs(s_star - want) <= 1e-12 * want
    # a duration at s* is refused too
    with pytest.raises(DomainError, match=re.escape(f"s* = {s_star!r},")):
        integrate_regularized(state, eps, s_star, s_star)
    duration = min(1.0, 0.9 * s_star)
    traj, phys = integrate_regularized(state, eps, 1e-4, duration)
    ref, ref_phys = kernel_flow(state, eps, 1e-4, duration)
    assert np.max(np.abs(traj.states - ref.states) / np.maximum(1.0, np.abs(ref.states))) <= 1e-8
    assert np.max(np.abs(phys - ref_phys) / np.maximum(1.0, ref_phys)) <= 1e-8


def test_flow_equivalence_follows_an_electron_escaping_along_the_field():
    # a zero-level state (E = -4.4e-16) whose soft factor lies beyond the
    # saddle: the unbounded component of the Hill region, against the raw flow
    state = RegularizedState(z=(0.5, 4.0), w=(0.0, 0.739509972887452))
    assert abs(regularized_energy(state, EPS)) <= 1e-15
    assert flow_equivalence(state, EPS, s_duration=1.5) <= 1e-10


def test_far_field_pretest_leaves_close_passes_to_the_projection():
    # the first drift runs from q1 = 0.3 to about -0.38 at q2 = 2e-4: both
    # ends lie at least 0.3 from the origin, so only the projection sees it
    with pytest.raises(NumericsError, match="passed within 2.000e-04"):
        dynamics._planar_flow((0.3, 2e-4), (-1000.0, 0.0), 0.05, [(1e-3, 10)])


def _one_planar_step(q1):
    """One Yoshida step of 1e-15 by the planar kernel from (q1, 0) at rest:
    all three kicks act at q1 to within 1e-12 relative."""
    return dynamics._planar_flow((q1, 0.0), (0.0, 0.0), EPS, [(1e-15, 1)])


def test_drift_into_the_cutoff_raises_the_exact_message():
    # the first drift (0.5 W1 h p) ends at q1 = 5.0001e-4 on its way to the origin
    h = (0.0105 - 5.0001e-4) / (0.5 * dynamics._W1)
    with pytest.raises(NumericsError) as info:
        dynamics._planar_flow((0.0105, 0.0), (-1.0, 0.0), EPS, [(h, 1)])
    assert str(info.value) == "trajectory passed within 5.000e-04 of the collision point"


@pytest.mark.parametrize("gap", [2e-13, 1e-9])
def test_a_start_just_outside_the_cutoff_steps_and_is_kicked_inward(gap):
    # the drifts of a step from rest end where they start, outside the
    # cutoff, and the kicks there take r^3 from |q|^2 with no test of their own
    (row,) = _one_planar_step(COLLISION_CUTOFF * (1.0 + gap))
    assert row[2] < 0.0 and row[1] == row[3] == 0.0


@settings(max_examples=300, deadline=None)
@given(r=st.floats(COLLISION_CUTOFF * (1.0 + 1e-9), 0.05), theta=st.floats(-math.pi, math.pi),
       speed=st.floats(0.1, 100.0), phi=st.floats(-math.pi, math.pi),
       h=st.floats(1e-5, 1e-2), count=st.integers(1, 5), eps=st.floats(0.0, 0.0625))
@example(r=0.01, theta=0.0, speed=100.0, phi=math.pi, h=1e-2, count=1, eps=0.05)  # through 0
@example(r=0.05, theta=0.0, speed=0.1, phi=0.5 * math.pi, h=1e-5, count=5, eps=0.05)
def test_the_drift_test_alone_decides_collisions(r, theta, speed, phi, h, count, eps):
    # each kick acts at the end of a drift just tested, so the raw flow, which
    # tests only its drifts, raises exactly where the reference step, which
    # tests its kicks too, does, and elsewhere agrees with it to rounding;
    # the start keeps clear of the cutoff, where math.hypot and np.hypot may
    # round |q| to opposite sides of it
    q0 = (r * math.cos(theta), r * math.sin(theta))
    p0 = (speed * math.cos(phi), speed * math.sin(phi))
    q, p, force = np.array(q0), np.array(p0), _ref_planar_force(eps)
    try:
        for _ in range(count):
            q, p = _ref_planar_step(q, p, h, force, REF_COEFFS)
    except NumericsError:
        with pytest.raises(NumericsError, match="trajectory passed within"):
            dynamics._planar_flow(q0, p0, eps, [(h, count)])
        return
    ((q1, q2, p1, p2),) = dynamics._planar_flow(q0, p0, eps, [(h, count)])
    assert math.hypot(q1 - q[0], q2 - q[1]) <= 1e-10 * math.hypot(*q)
    assert math.hypot(p1 - p[0], p2 - p[1]) <= 1e-10 * math.hypot(*p)


@settings(max_examples=300, deadline=None)
@given(r=st.floats(COLLISION_CUTOFF * (1.0 + 1e-9), 0.05), theta=st.floats(-math.pi, math.pi),
       speed=st.floats(0.1, 100.0), phi=st.floats(-math.pi, math.pi),
       runs=st.lists(st.tuples(st.floats(1e-5, 1e-2), st.integers(1, 3)), min_size=2,
                     max_size=4, unique_by=lambda run: run[0]),
       eps=st.floats(0.0, 0.0625))
@example(r=0.01, theta=0.0, speed=100.0, phi=math.pi, runs=[(1e-5, 1), (1e-2, 1)], eps=0.05)
@example(r=0.05, theta=0.0, speed=0.1, phi=0.5 * math.pi, runs=[(1e-2, 3), (1e-5, 2)],
         eps=0.05)
def test_merged_drifts_decide_collisions_across_runs(r, theta, speed, phi, runs, eps):
    # the raw flow merges each step's closing half-drift with the next step's
    # opening one, across a change of step length too, and the row takes the
    # closing half without committing it: it raises exactly where the reference
    # step, which drifts and tests each half apart, does, and elsewhere agrees
    # with it row by row to rounding
    q0 = (r * math.cos(theta), r * math.sin(theta))
    p0 = (speed * math.cos(phi), speed * math.sin(phi))
    q, p, force, rows = np.array(q0), np.array(p0), _ref_planar_force(eps), []
    try:
        for h, count in runs:
            for _ in range(count):
                q, p = _ref_planar_step(q, p, h, force, REF_COEFFS)
            rows.append((q, p))
    except NumericsError:
        with pytest.raises(NumericsError, match="trajectory passed within"):
            dynamics._planar_flow(q0, p0, eps, runs)
        return
    got = dynamics._planar_flow(q0, p0, eps, runs)
    assert len(got) == len(rows)
    for (q1, q2, p1, p2), (q, p) in zip(got, rows):
        assert math.hypot(q1 - q[0], q2 - q[1]) <= 1e-10 * math.hypot(*q)
        assert math.hypot(p1 - p[0], p2 - p[1]) <= 1e-10 * math.hypot(*p)


def test_the_closing_half_drift_after_the_last_row_is_checked():
    # one step of 2e-3 at speed 1000 (2 in all) from q1 = 1.7: its drifts of
    # W1/2, (W0 + W1)/2 and (W0 + W1)/2 of the step end at q1 = 0.349, 0.700
    # and 1.051, and only the closing half (W1/2), which the row takes after
    # the loop, runs past the origin at q2 = 1e-4
    with pytest.raises(NumericsError, match=r"passed within 1\.0\d\de-04 "):
        dynamics._planar_flow((1.7, 1e-4), (-1000.0, 0.0), EPS, [(2e-3, 1)])
    # the same step from q1 = 2.3 ends 0.3 short of the origin, and does not raise
    ((q1, q2, p1, p2),) = dynamics._planar_flow((2.3, 1e-4), (-1000.0, 0.0), EPS, [(2e-3, 1)])
    assert abs(q1 - 0.3) <= 1e-5


# --- non-finite input and overflow ------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_states_are_rejected(bad):
    with pytest.raises(DomainError):
        RegularizedState(z=(bad, 0.0), w=(0.0, 0.0))
    with pytest.raises(DomainError):
        RegularizedState(z=(1.0, 0.0), w=(0.0, bad))
    with pytest.raises(DomainError):
        PlanarState(q=(1.0, bad), p=(0.0, 0.0))
    with pytest.raises(DomainError):
        PlanarState(q=(1.0, 0.0), p=(bad, 0.0))


def _exact_stiff_error(a, step):
    """Largest distance of the default (closed-form) run from (a, 0) to the exact flow."""
    traj = factor_flow(a, 0.0, EPS, PLUS, step, 1.0)
    z, w = exact_stiff(a, traj.times)
    return np.max(np.hypot(traj.states[:, 0] - z, traj.states[:, 1] - w)) / np.max(np.abs(w))


def test_stiff_overflow_from_large_amplitude_raises():
    # each step of 0.02 is two Yoshida steps of 0.01
    with pytest.raises(NumericsError):
        factor_flow(1e3, 0.0, EPS, PLUS, 0.02, 1.0, kernel_flow)
    # the exact flow has no step to blow up on
    assert _exact_stiff_error(1e3, 0.01) <= 1e-12


def test_stiff_overflow_from_coarse_step_raises(capsys):
    with pytest.raises(NumericsError):
        factor_flow(100.0, 0.0, EPS, PLUS, 0.1, 1.0, kernel_flow)
    # the flow steps nothing: beside the soft factor at 3.3, outside its well,
    # the stiff factor follows its exact flow, until the soft one escapes
    argv = ["flow", "--eps", "0.05", "--init=100,0,3.3,0", "--step", "0.1", "--out", os.devnull]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: the soft factor escapes to infinity at "
                                       "s* = 3.1839487182346717, within the duration 5.0\n")
    assert main([*argv, "--duration", "3"]) == 0
    assert _exact_stiff_error(100.0, 0.05) <= 1e-12


def test_torus_action_overflow_raises():
    # a large amplitude follows its exact flow ...
    state = RegularizedState(z=(30.0, 0.1), w=(0.0, 0.0))
    out = torus_act(0.37, 0.0, state, EPS)
    z, w = exact_stiff(30.0, 0.37 * tau1(EPS, energy_split(state, EPS).e1))
    assert math.hypot(out.z[0] - z, out.w[0] - w) <= 1e-12 * math.hypot(z, w)
    # ... and a factor energy that overflows is an input error, not a NaN
    with pytest.raises(DomainError):
        torus_act(0.3, 0.0, RegularizedState(z=(1e100, 0.1), w=(0.0, 0.0)), EPS)


def test_overflowing_energy_at_zero_field_is_refused_without_a_warning():
    # e1 overflows to inf, and the kernel argument's 0 * inf warned "invalid
    # value"; a factor energy that overflows is an input error, raised before
    # any work
    state = RegularizedState(z=(1e200, 0.0), w=(0.0, 0.0))
    with pytest.raises(DomainError, match="overflows the doubles"):
        integrate_regularized(state, 0.0, duration=0.01)


def test_overflowing_physical_time_is_refused_without_a_warning():
    # the states stay finite while t(s) = int |z|^2 ds overflows: the time is
    # checked with them, without numpy's overflow warning
    state = RegularizedState(z=(0.0, 0.0), w=(0.0, 1e150))
    with pytest.raises(NumericsError, match="the orbit overflowed"):
        integrate_regularized(state, 5e-324, 1e9, 1e9)
    _, phys = integrate_regularized(state, 5e-324, 1e9, 1e-9)  # short of the overflow
    assert np.isfinite(phys).all()


@pytest.mark.parametrize("z, eps, name", [((1e200, 0.0), 0.0, "e1"), ((0.0, 1e200), EPS, "e2")],
                         ids=["stiff_at_zero_field", "soft"])
def test_a_factor_energy_that_overflows_is_named(z, eps, name):
    # e1 = inf and e2 = -inf were reported as an overflowing kernel argument
    state = RegularizedState(z=z, w=(0.0, 0.0))
    with pytest.raises(DomainError, match=f"^the factor energy {name} overflows the doubles$"):
        integrate_regularized(state, eps, duration=0.01)


def test_an_escape_within_the_duration_is_refused_before_any_sample(monkeypatch):
    # the soft factor beyond its saddle escapes at s* = 2.15: a duration of
    # 9999 formed 10^7 samples of both factors before the refusal
    def schedule(*args):
        raise AssertionError("the sample times were formed")

    monkeypatch.setattr(dynamics, "_schedule", schedule)
    state = RegularizedState(z=(0.0, 4.0), w=(0.0, -0.5))
    message = ("the soft factor escapes to infinity at s* = 2.1534684864989653, "
               "within the duration 9999.0")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        integrate_regularized(state, EPS, 1e-3, 9999.0)


# factor states whose energy overflowed a form of the period kernel's argument
# (8 e eps at eps = 1e-310) or of the quartic (z^4 at eps = 1e-300)
_FAR_FACTORS = [
    pytest.param(0.0, 7e153, 1e-310, MINUS, id="soft_w7e153_eps1e-310"),
    pytest.param(1e80, 0.0, 1e-300, MINUS, id="soft_z1e80_eps1e-300"),
    pytest.param(1e100, 0.0, 1e-300, PLUS, id="stiff_z1e100_eps1e-300"),
]


def _assert_on_mp_orbit(states, times, z, w, eps, sel):
    """(z, w) rows within 1e-12 of the orbit's scale of mpmath's exact flow."""
    want = _mp_orbit(z, w, eps, 1 if sel is PLUS else -1, times)
    assert np.isfinite(states).all()
    assert np.max(np.abs(states - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("z, w, eps, sel", _FAR_FACTORS)
def test_far_factor_orbits_follow_the_exact_flow(z, w, eps, sel):
    # each raised NumericsError; warnings are errors in this suite
    traj = factor_flow(z, w, eps, sel)
    _assert_on_mp_orbit(traj.states[::100], traj.times[::100], z, w, eps, sel)
    # the same factor (column k) beside a unit soft or stiff factor of the regularized flow
    k = 0 if sel is PLUS else 1
    zz, ww = [0.0, 0.0], [1.0, 1.0]
    zz[k], ww[k] = z, w
    traj, phys = integrate_regularized(RegularizedState(z=zz, w=ww), eps)
    assert np.isfinite(phys).all()
    _assert_on_mp_orbit(traj.states[::100, [k, k + 2]], traj.times[::100], z, w, eps, sel)
    other = traj.states[::100, [1 - k, 3 - k]]
    _assert_on_mp_orbit(other, traj.times[::100], 0.0, 1.0, eps, PLUS if k else MINUS)


def _assert_full_turn_at_subnormal_field(w2):
    """torus_act(1, 1) at eps = 1e-310 brings (0, 0; 1, w2) back to within
    1e-12 of each factor's scale."""
    state = RegularizedState(z=(0.0, 0.0), w=(1.0, w2))
    out = torus_act(1.0, 1.0, state, 1e-310)
    with mp.workdps(50):
        amplitude = float(mp.sqrt(_mp_levels(0.0, w2, 1e-310, -1)[0]))
    assert abs(out.z[1] - state.z[1]) <= 1e-12 * amplitude
    assert abs(out.w[1] - state.w[1]) <= 1e-12 * abs(state.w[1])
    assert math.hypot(out.z[0] - state.z[0], out.w[0] - state.w[0]) <= 1e-12


def test_torus_action_at_subnormal_field_strength():
    # torus_act refused the soft factor as unbounded: 8 e eps overflowed
    _assert_full_turn_at_subnormal_field(7e153)


def test_torus_action_does_not_form_the_time_integral():
    # int z^2 dt over a soft turn exceeds the double range here: torus_act
    # formed it, with an overflow warning (an error in this suite), and
    # discarded it
    _assert_full_turn_at_subnormal_field(1e154)


def test_soft_energy_near_the_double_range_stays_finite():
    # 4e/(1 + root) overflowed at e = 5e307 (math domain error once 8 e eps did not)
    traj = factor_flow(0.0, 1e154, 1e-310, MINUS)
    assert np.isfinite(traj.states).all() and math.isfinite(traj.energy_drift)
    traj, phys = integrate_regularized(RegularizedState(z=(0.0, 0.0), w=(1.0, 1e154)), 1e-310)
    assert np.isfinite(traj.states).all() and np.isfinite(phys).all()


@pytest.mark.parametrize("call", [
    lambda: integrate_regularized(RegularizedState(z=(0.0, 0.0), w=(1.8e154, 0.0)), 0.0),
    lambda: measure_period(0.0, 9e307, PLUS),
    lambda: measure_period(5e-324, 1.7e308, MINUS),
    lambda: torus_act(1.0, 1.0, RegularizedState(z=(0.0, 0.0), w=(1.8e154, 0.0)), 5e-324),
], ids=["integrate_regularized", "measure_period_stiff", "measure_period_soft", "torus_act"])
def test_a_squared_amplitude_that_overflows_raises_domain_error(call):
    # a^2 = 4e/(1 + root) overflows for e above about 8.99e307, where
    # omega^2 = 1 +- eps a^2 read 0 inf = NaN or -inf: a bare ValueError
    with pytest.raises(DomainError, match="squared amplitude at factor energy .* overflows"):
        call()


@pytest.mark.parametrize("eps", [1e308, 1.7e308])
def test_a_stiff_factor_follows_its_exact_flow_where_two_eps_overflows(eps):
    # omega^2 = 1 + 2 eps a^2 formed 2 eps, which overflows above about
    # 8.99e307, and read inf: integrate_regularized warned "invalid value
    # encountered in multiply" and torus_act "invalid value encountered in
    # fmod"; the period is about 1e-76, so no double resolves the phase at
    # these times, but every state lies on the orbit of energy 1/8
    state = RegularizedState(z=(0.0, 0.0), w=(0.5, 1e-300))
    traj, phys = integrate_regularized(state, eps, 0.01, 0.05)
    assert np.isfinite(phys).all()
    out = torus_act(0.3, 0.7, state, eps)
    with mp.workdps(50):
        energies = [float(mp.mpf(w) ** 2 / 2 + mp.mpf(z) ** 2 / 2 + mp.mpf(eps) * mp.mpf(z) ** 4 / 2)
                    for z, w in [*traj.states[:, [0, 2]].tolist(), (out.z[0], out.w[0])]]
    assert max(abs(e - 0.125) for e in energies) <= 1e-14


@pytest.mark.parametrize("z2", [1e-160, 1e-156])
def test_a_soft_factor_inside_its_well_where_two_eps_overflows(z2):
    # the saddle 1/sqrt(2 eps) read 0 at eps = 1e308, so a soft factor inside
    # its well took an escape form: from 1e-160 z2 read 1.00125e-154 at
    # s = 0.05, and from 1e-156 the run raised a bare "math domain error";
    # energy_split's eps z^4/2, 1e-4 of e2 at 1e-156, underflowed with z^4
    # and left the orbit 5e-5 of z2 off (7.7e-13 with it kept); at 1e-160
    # the energy z2^2/2 = 5e-321 is subnormal, and the orbit is 5.6e-6 off
    traj, _ = integrate_regularized(RegularizedState(z=(0.0, z2), w=(0.0, 0.0)), 1e308, 0.01, 0.05)
    want = _mp_orbit(z2, 0.0, 1e308, -1, traj.times)
    tol = {1e-160: 1e-5, 1e-156: 1e-12}[z2]
    assert np.max(np.abs(traj.states[:, [1, 3]] - want)) <= tol * z2


def test_a_soft_factor_far_beyond_its_saddle_with_a_large_inverted_field():
    # the inverted factor 1/z has the field 2|e2| = 1.66e308, and its
    # omega^2 = 1 + 2 eps a^2 read inf: the run was refused as escaping at
    # s* = 0.0; over so short a run w' = -z + 2 eps z^3 and t' = z^2 stay put
    z, s = 2.4e77, 2e-160
    traj, phys = integrate_regularized(RegularizedState(z=(0.0, z), w=(0.0, 0.0)), EPS, 1e-160, s)
    assert traj.states[-1, 1] == z
    assert traj.states[-1, 3] == pytest.approx(2.0 * EPS * z**3 * s, rel=1e-15, abs=0)
    # int y^2 ds of the inverted factor is subnormal, about 3.5e-315
    assert phys[-1] == pytest.approx(z * z * s, rel=1e-9, abs=0)


def test_an_inverted_field_that_overflows_is_named():
    # 2|e2| overflowed into the inverted factor's field, and the error blamed
    # the kernel argument 8*c*eps, which is a finite -3.9e307 here
    state = RegularizedState(z=(0.0, 2.5e77), w=(0.0, 0.0))
    with pytest.raises(DomainError, match=r"^the inverted soft factor's field 2\|e2\| overflows "
                                          r"the doubles$"):
        integrate_regularized(state, EPS, 1e-160, 2e-160)


def test_planar_flow_far_out_feels_only_the_field():
    # |q|^3 overflows there: the Coulomb term vanishes instead of raising
    ((q1, q2, p1, p2),) = dynamics._planar_flow((1e103, 0.0), (0.0, 0.0), EPS, [(0.1, 10)])
    assert (q1, q2, p2) == (1e103, 0.0, 0.0)
    assert p1 == pytest.approx(-EPS, rel=1e-14, abs=0)


def test_coarse_step_energy_escape_is_reported():
    # 1e-3 below the soft separatrix a step of 0.5 keeps the stepped oracle's
    # |z| short of the saddle over more than a period, but a recorded state's
    # energy passes the separatrix energy, and the half-orbit run, which
    # checks only |z| against the saddle, reads 15.76 (tau2 is 15.65); the
    # closed form has no step to be coarse, and it refuses the separatrix
    # energy itself
    c, sep = 0.999 / (8.0 * EPS), 1.0 / (8.0 * EPS)
    force, (z, w) = _ref_oscillator_force(EPS, MINUS), (turning_point(EPS, c, MINUS), 0.0)
    energies = []
    for _ in range(40):
        z, w = _ref_step_pair(z, w, 0.5, force, REF_COEFFS)
        assert abs(z) < 1.0 / math.sqrt(2.0 * EPS)
        energies.append(0.5 * w * w + 0.5 * z * z - 0.5 * EPS * z**4)
    assert max(energies) > sep
    assert ref_measure_half_period(EPS, c, MINUS, 0.5) == pytest.approx(15.76, abs=5e-3)
    assert tau2(EPS, c) == pytest.approx(15.65, abs=5e-3)
    assert abs(measure_period(EPS, c, MINUS) - tau2(EPS, c)) <= 1e-12 * tau2(EPS, c)
    with pytest.raises(DomainError, match="separatrix energy"):
        measure_period(EPS, sep, MINUS)


def test_coarse_step_separatrix_escape_is_reported():
    # a coarse step of 1.0 lifts the stepped oracle's orbit over the saddle;
    # the closed form returns tau2
    c = 0.999 / (8.0 * EPS)
    with pytest.raises(NumericsError, match="separatrix"):
        ref_measure_period(EPS, c, MINUS, 1.0)
    assert abs(measure_period(EPS, c, MINUS) - tau2(EPS, c)) <= 1e-12 * tau2(EPS, c)
