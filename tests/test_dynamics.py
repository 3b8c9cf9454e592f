import math

import numpy as np
import pytest
from scipy.special import ellipj

from starktoric.dynamics import (
    _COEFFS,
    COLLISION_CUTOFF,
    IntegratorSpec,
    Scheme,
    flow_equivalence,
    integrate_oscillator,
    integrate_planar,
    integrate_regularized,
    measure_period,
    torus_act,
)
from starktoric.errors import (
    CollisionApproach,
    DomainError,
    LevelSetError,
    NoReturnError,
    NumericsError,
    SeparatrixEscape,
)
from starktoric.levi_civita import RegularizedState, energy_split, lc_lift, regularized_energy
from starktoric.periods import OscillatorSelector, tau1, tau2, turning_point
from starktoric.stark_model import PlanarState

PLUS, MINUS = OscillatorSelector.PLUS, OscillatorSelector.MINUS
EPS = 0.05


def zero_level_state(z1, w1, z2, eps=EPS):
    """Bounded state on the zero level set: w2 balances the energy budget."""
    e1 = 0.5 * w1 * w1 + 0.5 * z1 * z1 + 0.5 * eps * z1**4
    w2 = math.sqrt(2.0 * (2.0 - e1) - z2 * z2 + eps * z2**4)
    return RegularizedState(z=(z1, z2), w=(w1, w2))


def test_fixed_point_stays_put():
    traj = integrate_oscillator(0.0, 0.0, EPS, PLUS, IntegratorSpec(), 1.0)
    assert np.all(traj.states == 0.0)
    assert traj.energy_drift == 0.0


def test_oscillator_energy_drift_default_scheme():
    zp = turning_point(EPS, 1.0, PLUS)
    traj = integrate_oscillator(zp, 0.0, EPS, PLUS, IntegratorSpec(), tau1(EPS, 1.0))
    assert traj.energy_drift < 1e-8


def test_integrator_order_scaling():
    zp = turning_point(EPS, 1.0, PLUS)
    period = tau1(EPS, 1.0)

    def drift(scheme, h):
        spec = IntegratorSpec(step=h, scheme=scheme)
        return integrate_oscillator(zp, 0.0, EPS, PLUS, spec, period).energy_drift

    ratio2 = drift(Scheme.LEAPFROG2, 0.01) / drift(Scheme.LEAPFROG2, 0.005)
    assert 3.0 < ratio2 < 5.0
    ratio4 = drift(Scheme.YOSHIDA4, 0.05) / drift(Scheme.YOSHIDA4, 0.025)
    assert 11.0 < ratio4 < 22.0


def test_planar_energy_drift_leapfrog():
    spec = IntegratorSpec(step=1e-3, scheme=Scheme.LEAPFROG2)
    s = PlanarState(q=(1.0, 0.0), p=(0.0, 1.0))
    traj = integrate_planar(s, 0.0, spec, 100.0)
    assert traj.energy_drift < 1e-6


def test_kepler_circular_orbit_closes():
    s = PlanarState(q=(1.0, 0.0), p=(0.0, 1.0))
    traj = integrate_planar(s, 0.0, IntegratorSpec(), 2.0 * math.pi)
    assert np.linalg.norm(traj.states[-1] - traj.states[0]) < 1e-6


def test_collision_ray_raises():
    s = PlanarState(q=(0.05, 0.0), p=(-0.5, 0.0))
    with pytest.raises(CollisionApproach):
        integrate_planar(s, EPS, IntegratorSpec(), 2.0)


def test_soft_factor_near_separatrix():
    c = 0.99 / (8.0 * EPS)
    zp = turning_point(EPS, c, MINUS)
    try:
        traj = integrate_oscillator(zp, 0.0, EPS, MINUS, IntegratorSpec(), 30.0)
    except SeparatrixEscape:
        return  # acceptable outcome: the escape is reported, never silent
    assert traj.energy_drift < 1e-6


def test_soft_factor_preconditions():
    with pytest.raises(DomainError):
        integrate_oscillator(10.0, 0.0, EPS, MINUS, IntegratorSpec(), 1.0)
    with pytest.raises(DomainError):
        integrate_oscillator(0.0, 3.0, EPS, MINUS, IntegratorSpec(), 1.0)


def test_duration_exceeding_budget():
    with pytest.raises(DomainError):
        integrate_oscillator(0.1, 0.0, EPS, PLUS, IntegratorSpec(max_steps=10), 1.0)


def test_measure_period_harmonic_limit():
    assert measure_period(EPS, 1e-6, PLUS) == pytest.approx(2.0 * math.pi, abs=1e-5)


@pytest.mark.parametrize("eps,c", [(0.01, 0.5), (0.05, 1.0), (0.06, 2.0)])
def test_measure_period_matches_formulas(eps, c):
    t1 = tau1(eps, c)
    assert abs(measure_period(eps, c, PLUS) - t1) <= 1e-6 * t1
    t2 = tau2(eps, c)
    assert abs(measure_period(eps, c, MINUS) - t2) <= 1e-6 * t2


def test_measure_period_no_return():
    with pytest.raises(NoReturnError):
        measure_period(EPS, 1.0, PLUS, IntegratorSpec(max_steps=50))


def test_regularized_flow_conserves_energy():
    state = zero_level_state(1.0, 0.9, -0.8)
    traj, phys = integrate_regularized(state, EPS, IntegratorSpec(), 5.0)
    assert traj.energy_drift < 1e-10
    assert np.all(np.diff(traj.times) > 0.0)
    assert np.all(np.diff(phys) > 0.0)  # physical time accumulates monotonically


def test_collision_orbits_are_periodic():
    # the two degenerate slices are genuine periodic orbits of the full flow
    z1 = turning_point(EPS, 2.0, PLUS)
    state = RegularizedState(z=(z1, 0.0), w=(0.0, 0.0))
    traj, _ = integrate_regularized(state, EPS, IntegratorSpec(), tau1(EPS, 2.0))
    assert np.linalg.norm(traj.states[-1] - traj.states[0]) < 1e-6

    z2 = turning_point(EPS, 2.0, MINUS)
    state = RegularizedState(z=(0.0, z2), w=(0.0, 0.0))
    traj, _ = integrate_regularized(state, EPS, IntegratorSpec(), tau2(EPS, 2.0))
    assert np.linalg.norm(traj.states[-1] - traj.states[0]) < 1e-6


def _state_distance(a, b):
    return math.hypot(*(a.z - b.z), *(a.w - b.w))


def test_torus_action_identity_and_periods():
    state = zero_level_state(turning_point(EPS, 1.2, PLUS), 0.0, 0.6)
    out = torus_act(0.0, 0.0, state, EPS)
    assert _state_distance(out, state) == 0.0
    assert _state_distance(torus_act(1.0, 0.0, state, EPS), state) < 1e-6
    assert _state_distance(torus_act(0.0, 1.0, state, EPS), state) < 1e-6
    assert _state_distance(torus_act(1.0, 1.0, state, EPS), state) < 1e-6


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
    assert _state_distance(combined, direct) < 2e-6


def test_flow_equivalence_kepler():
    # zero field: both flows are explicit Kepler/oscillator motions
    state = RegularizedState(z=(math.sqrt(2.0), 0.0), w=(0.0, math.sqrt(2.0)))
    assert flow_equivalence(state, 0.0, IntegratorSpec(), 5.0) < 1e-6


def test_flow_equivalence_bounded_states():
    for args in ((1.0, 0.9, -0.8), (0.3, -1.2, 1.5)):
        state = zero_level_state(*args)
        assert flow_equivalence(state, EPS, IntegratorSpec(), 3.0) < 1e-5


def test_flow_equivalence_level_set_error():
    state = RegularizedState(z=(1.0, 0.0), w=(0.0, 0.0))  # E = -1.475
    with pytest.raises(LevelSetError):
        flow_equivalence(state, EPS, IntegratorSpec(), 1.0)


def test_integrator_spec_validation():
    with pytest.raises(DomainError):
        IntegratorSpec(step=0.0)
    with pytest.raises(DomainError):
        IntegratorSpec(max_steps=0)


# --- reference: the per-step loops that the scalar kernel replaced ----------
#
# Each step ran on numpy scalars or 2-vectors through a force closure, and
# every per-step diagnostic was taken inside the loop.


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
            raise CollisionApproach("collision cutoff")
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
        raise CollisionApproach("collision along a drift")
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


def ref_integrate_planar(state, eps, spec, duration):
    n = math.ceil(duration / spec.step - 1e-12)
    force, coeffs, h = _ref_planar_force(eps), _COEFFS[spec.scheme], spec.step
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


def ref_integrate_oscillator(z0, w0, eps, sel, spec, duration):
    n = math.ceil(duration / spec.step - 1e-12)
    force, coeffs, h = _ref_oscillator_force(eps, sel), _COEFFS[spec.scheme], spec.step
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


def ref_integrate_regularized(state, eps, spec, duration):
    n = math.ceil(duration / spec.step - 1e-12)
    force, coeffs, h = _ref_regularized_force(eps), _COEFFS[spec.scheme], spec.step
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


def ref_measure_period(eps, c, sel, spec):
    force, coeffs, h = _ref_oscillator_force(eps, sel), _COEFFS[spec.scheme], spec.step
    z, w, t = turning_point(eps, c, sel), 0.0, 0.0
    saddle = 1.0 / math.sqrt(2.0 * eps) if sel is MINUS else math.inf
    for _ in range(spec.max_steps):
        z1, w1 = _ref_step_pair(z, w, h, force, coeffs)
        if abs(z1) > saddle:
            raise SeparatrixEscape("period run crossed the separatrix")
        if w > 0.0 and w1 <= 0.0 and z1 > 0.0:
            lo, hi = 0.0, h
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                _, wm = _ref_step_pair(z, w, mid, force, coeffs)
                lo, hi = (mid, hi) if wm > 0.0 else (lo, mid)
            return t + 0.5 * (lo + hi)
        z, w, t = z1, w1, t + h
    raise NoReturnError("no return")


def _ref_flow_factor(z, w, duration, force, coeffs, h):
    n_full, rem = divmod(duration, h)
    for _ in range(int(n_full)):
        z, w = _ref_step_pair(z, w, h, force, coeffs)
    if rem > 1e-15 * max(1.0, duration):
        z, w = _ref_step_pair(z, w, rem, force, coeffs)
    return z, w


def ref_torus_act(t1, t2, state, eps, spec):
    split, coeffs, h = energy_split(state, eps), _COEFFS[spec.scheme], spec.step
    z1, w1 = _ref_flow_factor(state.z[0], state.w[0], t1 * tau1(eps, split.e1),
                              _ref_oscillator_force(eps, PLUS), coeffs, h)
    z2, w2 = _ref_flow_factor(state.z[1], state.w[1], t2 * tau2(eps, split.e2),
                              _ref_oscillator_force(eps, MINUS), coeffs, h)
    return RegularizedState(z=(z1, z2), w=(w1, w2))


def ref_flow_equivalence(state, eps, spec, s_duration):
    _, states, _, phys = ref_integrate_regularized(state, eps, spec, s_duration)
    planar = lc_lift(state)
    q, p = planar.q.copy(), planar.p.copy()
    force, coeffs, h = _ref_planar_force(eps), _COEFFS[spec.scheme], spec.step
    max_dev = 0.0
    for i in range(1, len(phys)):
        dt = phys[i] - phys[i - 1]
        n_sub = max(1, math.ceil(dt / h))
        for _ in range(n_sub):
            q, p = _ref_planar_step(q, p, dt / n_sub, force, coeffs)
        lifted = lc_lift(RegularizedState(states[i, :2], states[i, 2:]))
        max_dev = max(max_dev, math.hypot(*(lifted.q - q), *(lifted.p - p)))
    return max_dev


REF_CASES = [(eps, scheme) for eps in (1e-8, 1e-3, 0.05, 0.0624) for scheme in Scheme]
# the kernel's shared cube z*z*z replaces the vector force's z**3, and
# math.hypot may differ from np.hypot in the last bit
REF_TOL = dict(rtol=1e-13, atol=1e-13)
REF_DURATION = 2.0005  # ends on a remainder step at either step size below


@pytest.mark.parametrize("eps,scheme", REF_CASES)
def test_oscillator_kernel_matches_reference_exactly(eps, scheme):
    spec = IntegratorSpec(step=1e-2, scheme=scheme)
    for z0, w0, sel in ((1.2, 0.3, PLUS), (0.5, 0.4, MINUS)):
        traj = integrate_oscillator(z0, w0, eps, sel, spec, REF_DURATION)
        times, states, drift = ref_integrate_oscillator(z0, w0, eps, sel, spec, REF_DURATION)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert traj.energy_drift == drift
    spec = IntegratorSpec(step=1e-3, scheme=scheme)  # several search stretches
    for sel in (PLUS, MINUS):
        assert measure_period(eps, 1.0, sel, spec) == ref_measure_period(eps, 1.0, sel, spec)
    state = zero_level_state(1.0, 0.9, -0.8, eps)
    out = torus_act(0.37, 0.61, state, eps, spec)
    ref = ref_torus_act(0.37, 0.61, state, eps, spec)
    assert np.array_equal(out.z, ref.z) and np.array_equal(out.w, ref.w)


@pytest.mark.parametrize("eps,scheme", REF_CASES)
def test_regularized_and_planar_flows_match_reference(eps, scheme):
    spec = IntegratorSpec(step=1e-2, scheme=scheme)
    state = zero_level_state(1.0, 0.9, -0.8, eps)
    traj, phys = integrate_regularized(state, eps, spec, REF_DURATION)
    times, states, drift, ref_phys = ref_integrate_regularized(state, eps, spec, REF_DURATION)
    assert np.array_equal(traj.times, times)
    np.testing.assert_allclose(traj.states, states, **REF_TOL)
    np.testing.assert_allclose(phys, ref_phys, **REF_TOL)
    np.testing.assert_allclose(traj.energy_drift, drift, **REF_TOL)

    planar = PlanarState(q=(1.0, 0.2), p=(0.1, 0.9))
    traj = integrate_planar(planar, eps, spec, REF_DURATION)
    times, states, drift = ref_integrate_planar(planar, eps, spec, REF_DURATION)
    assert np.array_equal(traj.times, times)
    np.testing.assert_allclose(traj.states, states, **REF_TOL)
    np.testing.assert_allclose(traj.energy_drift, drift, **REF_TOL)

    np.testing.assert_allclose(
        flow_equivalence(state, eps, spec, REF_DURATION),
        ref_flow_equivalence(state, eps, spec, REF_DURATION),
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


def _oscillator_error(a, sel, spec):
    exact = exact_stiff if sel is PLUS else exact_soft
    z0, w0 = (x[()] for x in exact(a, 0.0))
    traj = integrate_oscillator(z0, w0, EPS, sel, spec, 5.0)
    z, w = exact(a, traj.times)
    return max(np.max(np.abs(traj.states[:, 0] - z)), np.max(np.abs(traj.states[:, 1] - w)))


@pytest.mark.parametrize("sel", [PLUS, MINUS])
@pytest.mark.parametrize("a", [0.5, 1.5])
def test_oscillator_matches_exact_flow(a, sel):
    assert _oscillator_error(a, sel, IntegratorSpec()) < 1e-11


@pytest.mark.parametrize("sel", [PLUS, MINUS])
def test_yoshida_error_order_against_exact_flow(sel):
    ratio = _oscillator_error(1.5, sel, IntegratorSpec(step=0.02)) / _oscillator_error(
        1.5, sel, IntegratorSpec(step=0.01)
    )
    assert 14.0 <= ratio <= 18.0


def test_torus_action_takes_time_literally():
    a = 1.3
    state = zero_level_state(a, 0.0, 0.6)
    c1 = energy_split(state, EPS).e1
    out = torus_act(0.37, 0.0, state, EPS)
    z, w = exact_stiff(a, 0.37 * tau1(EPS, c1))
    assert abs(out.z[0] - z) < 1e-10 and abs(out.w[0] - w) < 1e-10
    assert out.z[1] == state.z[1] and out.w[1] == state.w[1]


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
    for sel in (PLUS, MINUS):
        with pytest.raises(DomainError):
            integrate_oscillator(bad, 0.0, EPS, sel)
        with pytest.raises(DomainError):
            integrate_oscillator(0.1, bad, EPS, sel)


def test_stiff_overflow_from_large_amplitude_raises():
    with pytest.raises(NumericsError):
        integrate_oscillator(1e3, 0.0, EPS, PLUS, IntegratorSpec(step=0.01), 1.0)


def test_stiff_overflow_from_coarse_step_raises():
    with pytest.raises(NumericsError):
        integrate_oscillator(100.0, 0.0, EPS, PLUS, IntegratorSpec(step=0.05), 1.0)


def test_torus_action_overflow_raises():
    state = RegularizedState(z=(30.0, 0.1), w=(0.0, 0.0))
    with pytest.raises(NumericsError):
        torus_act(1.0, 0.0, state, EPS, IntegratorSpec(step=0.2))


def test_planar_flow_far_out_feels_only_the_field():
    # |q|^3 overflows there: the Coulomb term vanishes instead of raising
    s = PlanarState(q=(1e103, 0.0), p=(0.0, 0.0))
    traj = integrate_planar(s, EPS, IntegratorSpec(step=0.1), 1.0)
    q1, q2, p1, p2 = traj.states[-1]
    assert (q1, q2, p2) == (1e103, 0.0, 0.0)
    assert p1 == pytest.approx(-EPS, rel=1e-14)


def test_coarse_step_separatrix_escape_is_reported():
    c = 0.999 / (8.0 * EPS)
    spec = IntegratorSpec(step=1.5, scheme=Scheme.LEAPFROG2)
    with pytest.raises(SeparatrixEscape):
        integrate_oscillator(0.0, math.sqrt(2.0 * c), EPS, MINUS, spec, 30.0)
    with pytest.raises(SeparatrixEscape):
        measure_period(EPS, c, MINUS, spec)
    with pytest.raises(SeparatrixEscape):
        ref_measure_period(EPS, c, MINUS, spec)
