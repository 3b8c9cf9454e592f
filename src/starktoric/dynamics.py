"""Symplectic integration of the Stark flows.

All Hamiltonians here are separable (kinetic |p|^2/2 plus a position-only
potential), so splitting integrators apply: second-order leapfrog and the
fourth-order Yoshida composition of it (coefficients from Yoshida 1990 /
the triple-jump construction).

Two stepping loops on Python floats do all the integration:

* one kernel for an oscillator factor z'' = -z - k z^3 (stiff k = 2 eps,
  soft k = -2 eps), which needs no cutoff: that is the point of the
  regularization.  The separated oscillators, the regularized energy flow
  (each factor stepped on its own at half steps), the section-return
  period measurement and the torus action all run on it;
* the raw planar loop, with a collision cutoff at |q| = 1e-3 checked along
  every drift segment, since the field -q/|q|^3 - (eps, 0) is singular at
  the origin.

The loops only record the state after each step.  The per-step diagnostics
are array operations on those records after the loop: the energy drift,
the sample times, the physical time t(s) = int |z|^2 ds (Simpson's rule on
the half steps) and flow_equivalence's lift and deviation.  An unstable
step overflows silently, so each run checks its records once for finiteness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollisionApproach,
    DomainError,
    LevelSetError,
    NoReturnError,
    NumericsError,
    SeparatrixEscape,
)
from .levi_civita import RegularizedState, _lift, energy_split, regularized_energy
from .periods import OscillatorSelector, check_selector, tau1, tau2, turning_point
from .stark_model import PlanarState, check_field_strength

__all__ = [
    "Scheme",
    "IntegratorSpec",
    "Trajectory",
    "COLLISION_CUTOFF",
    "integrate_planar",
    "integrate_oscillator",
    "integrate_regularized",
    "measure_period",
    "torus_act",
    "flow_equivalence",
]

COLLISION_CUTOFF = 1e-3


class Scheme(enum.Enum):
    LEAPFROG2 = "leapfrog2"
    YOSHIDA4 = "yoshida4"


_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = -(2.0 ** (1.0 / 3.0)) / (2.0 - 2.0 ** (1.0 / 3.0))

# drift coefficients (len kicks + 1) and kick coefficients per scheme
_COEFFS = {
    Scheme.LEAPFROG2: ((0.5, 0.5), (1.0,)),
    Scheme.YOSHIDA4: (
        (0.5 * _W1, 0.5 * (_W0 + _W1), 0.5 * (_W0 + _W1), 0.5 * _W1),
        (_W1, _W0, _W1),
    ),
}

# steps per stretch of measure_period's search for the section crossing
_CHUNK = 1024


@dataclass(frozen=True)
class IntegratorSpec:
    """Fixed-step integrator configuration (step in the flow's own time)."""

    step: float = 1e-3
    scheme: Scheme = Scheme.YOSHIDA4
    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise DomainError("integrator step must be positive and finite")
        if self.max_steps < 1:
            raise DomainError("max_steps must be at least 1")


DEFAULT_INTEGRATOR = IntegratorSpec()


@dataclass
class Trajectory:
    """Sampled orbit: times, states (one row per time), max energy deviation."""

    times: np.ndarray
    states: np.ndarray
    energy_drift: float


def _stages(scheme: Scheme, h: float):
    """Drift and kick coefficients of one step of length h."""
    cs, ds = _COEFFS[scheme]
    return [c * h for c in cs], [d * h for d in ds]


def _schedule(duration: float, spec: IntegratorSpec, parts: int = 1):
    """Plan a fixed-step run: sample times, the last step, and the stage runs.

    Every step is spec.step long except the last, which ends on duration.
    Each step is taken as ``parts`` equal substeps; a run is a pair
    ((drifts, kicks), count).
    """
    if not (duration >= 0.0 and np.isfinite(duration)):
        raise DomainError("duration must be nonnegative and finite")
    h = spec.step
    n = math.ceil(duration / h - 1e-12)
    if n > spec.max_steps:
        raise DomainError(
            f"duration {duration} needs {n} steps, above max_steps={spec.max_steps}"
        )
    times = np.minimum(np.arange(n + 1) * h, duration)
    last = min(h, duration - (n - 1) * h)
    runs = [(_stages(spec.scheme, h / parts), parts * (n - 1)),
            (_stages(spec.scheme, last / parts), parts)] if n else []
    return times, last, runs


def _oscillate(z: float, w: float, k: float, runs, bound: float = math.inf):
    """Split-step the oscillator factor z'' = -z - k z^3 from (z, w).

    Returns the states after every step as two lists of floats.  It stops
    after the first step whose |z| exceeds ``bound`` (the soft factor's
    saddle), which is then the last one recorded.
    """
    zs, ws = [], []
    z_out, w_out = zs.append, ws.append
    for (cs, ds), count in runs:
        kicks = tuple(zip(cs, ds))
        c_end = cs[-1]
        for _ in range(count):
            for c, d in kicks:
                z += c * w
                w += d * (-z - k * z * z * z)
            z += c_end * w
            z_out(z)
            w_out(w)
            if abs(z) > bound:
                return zs, ws
    return zs, ws


def _planar_flow(q, p, eps: float, runs) -> list:
    """Split-step the raw Stark flow from (q, p); rows (q1, q2, p1, p2) after every step.

    Each drift segment is checked for a pass within the collision cutoff:
    the numerical path is piecewise straight, and a fast passage can hop
    across the singularity between force evaluations.
    """
    hypot = math.hypot
    (q1, q2), (p1, p2) = map(float, q), map(float, p)
    rows = []
    for (cs, ds), count in runs:
        stages = (*zip(cs, ds), (cs[-1], None))
        for _ in range(count):
            for c, d in stages:
                dq1, dq2 = c * p1, c * p2
                len2 = dq1 * dq1 + dq2 * dq2
                if len2 > 0.0:
                    t = -(q1 * dq1 + q2 * dq2) / len2
                    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
                    r_min = hypot(q1 + t * dq1, q2 + t * dq2)
                else:
                    r_min = hypot(q1, q2)
                if r_min < COLLISION_CUTOFF:
                    raise CollisionApproach(
                        f"trajectory passed within {r_min:.3e} of the collision point"
                    )
                q1 += dq1
                q2 += dq2
                if d is None:
                    break
                r = hypot(q1, q2)
                if r < COLLISION_CUTOFF:
                    raise CollisionApproach(
                        f"|q| = {r:.3e} fell below the collision cutoff {COLLISION_CUTOFF}"
                    )
                # pow rounds the cube once; Python's ** raises OverflowError where
                # it leaves double range, so far out the product (inf) stands in
                r3 = r**3 if r < 1e100 else r * r * r
                p1 += d * (-q1 / r3 - eps)
                p2 += d * (-q2 / r3)
            rows.append((q1, q2, p1, p2))
    return rows


def _factor_energy(z, w, k: float):
    """Energy w^2/2 + z^2/2 + k z^4/4 of the factor z'' = -z - k z^3.

    np.float_power evaluates C pow per element, as Python's float ** does;
    the SIMD loop behind np.power may round z^4 differently.
    """
    return 0.5 * w * w + 0.5 * z * z + 0.25 * k * np.float_power(z, 4)


def _finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericsError("the orbit overflowed: a recorded value is not finite")


def _trajectory(times: np.ndarray, states: np.ndarray, energy) -> Trajectory:
    """Check a finished run once and take its energy drift from the records.

    ``energy`` maps the state columns to energies; NaN and an energy that
    overflows propagate through the drift into the check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = energy(*states.T)
        drift = np.max(np.abs(e - e[0]))
    _finite(states, drift)
    return Trajectory(times, states, float(drift))


def _factor(eps: float, sel: OscillatorSelector):
    """Stiffness k and |z| bound (the saddle, or inf) of a separated factor."""
    if check_selector(sel) is OscillatorSelector.PLUS:
        return 2.0 * eps, math.inf
    return -2.0 * eps, (1.0 / math.sqrt(2.0 * eps) if eps > 0 else math.inf)


# --- public integrators -----------------------------------------------------


def integrate_planar(
    state: PlanarState,
    eps: float,
    spec: IntegratorSpec = DEFAULT_INTEGRATOR,
    duration: float = 1.0,
) -> Trajectory:
    """Integrate the raw Stark flow; raises CollisionApproach near the origin."""
    eps = check_field_strength(eps)
    times, _, runs = _schedule(duration, spec)
    states = np.array([(*state.q, *state.p), *_planar_flow(state.q, state.p, eps, runs)])
    energy = lambda q1, q2, p1, p2: 0.5 * (p1 * p1 + p2 * p2) + (-1.0 / np.hypot(q1, q2) + eps * q1)
    return _trajectory(times, states, energy)


def integrate_oscillator(
    z0: float,
    w0: float,
    eps: float,
    sel: OscillatorSelector,
    spec: IntegratorSpec = DEFAULT_INTEGRATOR,
    duration: float = 1.0,
) -> Trajectory:
    """Integrate one separated factor; the soft factor must stay in its well."""
    eps = check_field_strength(eps)
    times, _, runs = _schedule(duration, spec)
    z0, w0 = float(z0), float(w0)
    if not (math.isfinite(z0) and math.isfinite(w0)):
        raise DomainError("oscillator start must be finite")
    k, saddle = _factor(eps, sel)
    if abs(z0) > saddle:
        raise DomainError("soft-oscillator start lies outside the bounded well")
    if saddle < math.inf and _factor_energy(z0, w0, k) >= 1.0 / (8.0 * eps):
        raise DomainError("soft-oscillator energy at or above the separatrix")

    zs, ws = _oscillate(z0, w0, k, runs, saddle)
    if zs and abs(zs[-1]) > saddle:
        raise SeparatrixEscape(
            "soft-oscillator trajectory crossed the separatrix (step too coarse)"
        )
    states = np.column_stack(([z0, *zs], [w0, *ws]))
    return _trajectory(times, states, lambda z, w: _factor_energy(z, w, k))


def integrate_regularized(
    state: RegularizedState,
    eps: float,
    spec: IntegratorSpec = DEFAULT_INTEGRATOR,
    duration: float = 1.0,
) -> tuple[Trajectory, np.ndarray]:
    """Integrate the regularized energy flow in its own time s.

    Returns the trajectory (states are rows (z1, z2, w1, w2)) and the
    accumulated physical time t(s) = int |z|^2 ds at each sample, computed
    by Simpson's rule on half-steps so the time change carries the same
    fourth-order accuracy as the default scheme.
    """
    eps = check_field_strength(eps)
    times, last, runs = _schedule(duration, spec, parts=2)
    (z1, z2), (w1, w2) = state.z.tolist(), state.w.tolist()
    z1s, w1s = _oscillate(z1, w1, 2.0 * eps, runs)
    z2s, w2s = _oscillate(z2, w2, -2.0 * eps, runs)
    half = np.array([[z1, *z1s], [z2, *z2s], [w1, *w1s], [w2, *w2s]])
    energy = lambda z1, z2, w1, w2: (
        _factor_energy(z1, w1, 2.0 * eps) + _factor_energy(z2, w2, -2.0 * eps) - 2.0
    )
    traj = _trajectory(times, np.ascontiguousarray(half[:, ::2].T), energy)

    r2 = half[0] * half[0] + half[1] * half[1]
    hh = np.full(len(times) - 1, spec.step)
    hh[-1:] = last
    # cumsum adds in order, as a running sum does
    phys = np.cumsum(hh / 6.0 * (r2[:-1:2] + 4.0 * r2[1::2] + r2[2::2]))
    return traj, np.concatenate(([0.0], phys))


# --- section return, torus action, flow equivalence -------------------------


def measure_period(
    eps: float,
    c: float,
    sel: OscillatorSelector,
    spec: IntegratorSpec = DEFAULT_INTEGRATOR,
) -> float:
    """Flow-based period: start at the turning point and time the return.

    The orbit leaves (z_max, 0) with w turning negative, crosses w = 0
    upward at the opposite turning point, and completes the period on the
    next downward crossing with z > 0; that crossing time is refined by
    bisection to 1e-10.
    """
    eps = check_field_strength(eps)
    k, saddle = _factor(eps, sel)
    stages = _stages(spec.scheme, spec.step)
    z, w, done = float(turning_point(eps, c, sel)), 0.0, 0
    while done < spec.max_steps:
        count = min(_CHUNK, spec.max_steps - done)
        zs, ws = (np.array(v) for v in _oscillate(z, w, k, [(stages, count)], saddle))
        _finite(zs, ws)
        escaped = abs(zs[-1]) > saddle  # then the last step, the one that escaped
        w_before = np.concatenate(([w], ws[:-1]))
        crossed = (w_before > 0.0) & (ws <= 0.0) & (zs > 0.0)
        hit = np.flatnonzero(crossed[: len(zs) - escaped])
        if hit.size:
            j = int(hit[0])
            z, w = (z, w) if j == 0 else (float(zs[j - 1]), float(ws[j - 1]))
            lo, hi = 0.0, spec.step
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                _, (wm,) = _oscillate(z, w, k, [(_stages(spec.scheme, mid), 1)])
                lo, hi = (mid, hi) if wm > 0.0 else (lo, mid)
            # the time before the crossing step, added step by step in order;
            # it spans at least one step, since w starts at 0
            t = np.full(done + j, spec.step).cumsum()[-1]
            return float(t + 0.5 * (lo + hi))
        if escaped:
            raise SeparatrixEscape("period run crossed the separatrix")
        z, w, done = float(zs[-1]), float(ws[-1]), done + count
    raise NoReturnError("orbit did not return to the section within max_steps")


def _flow_factor(z, w, duration, k, spec):
    """Flow a single oscillator factor for a nonnegative time."""
    n_full, rem = divmod(duration, spec.step)
    runs = [(_stages(spec.scheme, spec.step), int(n_full))]
    if rem > 1e-15 * max(1.0, duration):
        runs.append((_stages(spec.scheme, rem), 1))
    zs, ws = _oscillate(z, w, k, runs)
    return (zs[-1], ws[-1]) if zs else (z, w)


def torus_act(
    t1: float,
    t2: float,
    state: RegularizedState,
    eps: float,
    spec: IntegratorSpec = DEFAULT_INTEGRATOR,
) -> RegularizedState:
    """Act by (t1, t2): flow each factor for that fraction of its own period.

    Times are taken literally (t = 1 flows one full period numerically
    rather than collapsing to the identity), so periodicity is a genuine
    check of the integration.
    """
    eps = check_field_strength(eps, positive=True)
    for t in (t1, t2):
        if not np.isfinite(t) or t < 0.0:
            raise DomainError("torus action times must be finite and nonnegative")
    split = energy_split(state, eps)
    if split.e2 >= 1.0 / (8.0 * eps) or abs(state.z[1]) > 1.0 / math.sqrt(2.0 * eps):
        raise DomainError("state is not on a bounded soft-factor orbit")
    (z1, z2), (w1, w2) = state.z.tolist(), state.w.tolist()
    z1, w1 = _flow_factor(z1, w1, t1 * tau1(eps, split.e1), 2.0 * eps, spec)
    z2, w2 = _flow_factor(z2, w2, t2 * tau2(eps, split.e2), -2.0 * eps, spec)
    _finite(np.array([z1, z2, w1, w2]))
    return RegularizedState(z=(z1, z2), w=(w1, w2))


def flow_equivalence(
    state: RegularizedState,
    eps: float,
    spec: IntegratorSpec = DEFAULT_INTEGRATOR,
    s_duration: float = 5.0,
) -> float:
    """Certify that the regularized flow reproduces the raw one.

    Integrates the regularized flow from a zero-level state, converts
    elapsed regularized time to physical time through t(s) = int |z|^2 ds,
    integrates the raw flow from the lifted start to each physical
    checkpoint, and returns the largest phase-space distance between the
    lifted regularized state and the raw state.
    """
    eps = check_field_strength(eps)
    e = regularized_energy(state, eps)
    if abs(e) > 1e-9:
        raise LevelSetError(f"state is off the zero level set: E = {e:.3e}")
    traj, phys = integrate_regularized(state, eps, spec, s_duration)
    lifted = np.column_stack(_lift(*traj.states.T))

    # the raw flow takes ceil(dt / step) equal substeps per regularized step
    dts = np.diff(phys)
    subs = np.maximum(1, np.ceil(dts / spec.step)).astype(int)
    runs = [(_stages(spec.scheme, dt / m), m) for dt, m in zip(dts.tolist(), subs.tolist())]
    rows = _planar_flow(lifted[0, :2], lifted[0, 2:], eps, runs)
    raw = np.array(rows).reshape(-1, 4)[np.cumsum(subs) - 1]
    deviation = np.sqrt(np.sum((lifted[1:] - raw) ** 2, axis=1))
    _finite(deviation)
    return float(np.max(deviation, initial=0.0))
