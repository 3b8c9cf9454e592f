"""The Stark flows: exact where they have a closed form, split-stepped elsewhere.

The regularization separates the Levi-Civita energy flow into two
anharmonic oscillators z'' = -z - k z^3 (stiff k = 2 eps, soft k = -2 eps),
and their flows are Jacobi elliptic functions (DLMF 22.13).  Where a state has
them (valid kernel arguments, a soft factor inside its well), the regularized
energy flow and the torus action evaluate them at the sample times, from one
AGM table per factor; t(s) = int |z|^2 ds, the physical time, comes in closed
form from the same levels, through Landen's incomplete E (A&S 17.6).

All Hamiltonians here are separable (kinetic |p|^2/2 plus a position-only
potential), so a splitting integrator applies where nothing closed is at
hand: Yoshida's fourth-order composition of leapfrog (Yoshida 1990, the
triple jump), the one stepped scheme.  Two stepping loops on Python floats
do that integration, each on runs of (step length, count):

* one kernel for an oscillator factor, which needs no cutoff: that is the
  point of the regularization.  The period measurement runs on it (it
  times the stepped flow on purpose, as a check of the period formulas).
  It steps a quarter orbit, from a turning point to the first crossing of
  z = 0, and takes four times that time: the step is reversed by
  (z, w) -> (z, -w) and by (z, w) -> (-z, w), so the other three quarters
  are images of the first.  No step runs past the crossing, which is
  solved on its step to rounding, and a soft run checks its stepped
  energy against the separatrix energy, since it no longer reaches the
  saddle.  It steps the regularized flow of a state with no closed form
  too.  The kernel's body is the unrolled three-kick Yoshida step;
* the raw planar loop, with a collision cutoff at |q| = 1e-3 checked along
  every drift segment, since the field -q/|q|^3 - (eps, 0) is singular at
  the origin.  A segment that starts farther from the origin than the
  cutoff plus its own length cannot reach it, so the exact projection
  runs only near the origin.  Its body is unrolled like the oscillator's,
  and it records one state per regularized step of flow_equivalence, its
  one caller.

The loops only record the states their callers read.  The per-step
diagnostics are array operations on those records after the loop: the
energy drift, the sample times, the stepped physical time (Simpson's rule
on the half steps) and flow_equivalence's lift and deviation.  An unstable step
overflows silently, so each run checks its records once for finiteness.
The step (a Python float: the loops run slower on numpy's) spaces a closed
form's samples and is the Yoshida step length elsewhere; no run takes more
than _MAX_STEPS steps, samples or raw substeps.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .elliptic import _agm, _ellip_f, _jacobi
from .errors import (
    CollisionApproach,
    DomainError,
    LevelSetError,
    NoReturnError,
    NumericsError,
    SeparatrixEscape,
)
from .levi_civita import (RegularizedState, _factor_energy, _lift, _total_energy, energy_split,
                          regularized_energy)
from .periods import OscillatorSelector, _kernel_arg, check_selector, tau1, tau2, turning_point
from .stark_model import check_field_strength, check_finite

__all__ = [
    "Trajectory",
    "COLLISION_CUTOFF",
    "integrate_regularized",
    "measure_period",
    "torus_act",
    "flow_equivalence",
]

COLLISION_CUTOFF = 1e-3
_PLUS, _MINUS = OscillatorSelector.PLUS, OscillatorSelector.MINUS


# Yoshida's triple jump per unit step: kicks W1, W0, W1, each drift half its two kicks
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = -(2.0 ** (1.0 / 3.0)) / (2.0 - 2.0 ** (1.0 / 3.0))
_DRIFT_OUT = 0.5 * _W1
_DRIFT_IN = 0.5 * (_W0 + _W1)

# a drift from q by dq stays out of the cutoff when |q|^2 > _FAR (cutoff^2 + |dq|^2),
# which implies |q| > cutoff + |dq|; the margin leaves rounding on the exact test's side
_CUT2 = COLLISION_CUTOFF * COLLISION_CUTOFF
_FAR = 2.0 * (1.0 + 1e-12)

# steps per stretch of measure_period's search for the crossing of z = 0, and
# the states per separatrix-energy check of a soft run
_CHUNK = 1024
_MAX_STEPS = 10_000_000  # steps, samples or raw substeps per run (module docstring)


class Trajectory(NamedTuple):
    """Sampled orbit: times, states (one row per time), max energy deviation."""

    times: np.ndarray
    states: np.ndarray
    energy_drift: float


def _schedule(duration: float, h: float):
    """Plan a fixed-step run: sample times, the last step, and the half-step runs.

    Every step is h long except the last, which ends on duration.
    Each step is taken as two half steps; a run is (half-step length, count).
    """
    duration = check_finite(duration, "duration", positive=False)
    steps = duration / h - 1e-12  # inf for a tiny step: compared before ceil, which raises
    if steps > _MAX_STEPS:
        raise DomainError(f"duration {duration} at step {h} needs more than "
                          f"max_steps={_MAX_STEPS} steps")
    n = math.ceil(steps)
    times = np.minimum(np.arange(n + 1) * h, duration)
    last = min(h, duration - (n - 1) * h)
    runs = [(h / 2, 2 * (n - 1)), (last / 2, 2)] if n else []
    return times, last, runs


def _oscillate(z: float, w: float, k: float, runs, bound: float = math.inf,
               z_stop: float = -math.inf):
    """Split-step the oscillator factor z'' = -z - k z^3 from (z, w).

    ``runs`` holds pairs (step length h, count): count Yoshida steps of h
    each.  Returns the states after every step as two lists of floats.  It
    stops after the first step whose |z| exceeds ``bound`` (the soft
    factor's saddle) or whose z falls below ``z_stop``, which is then the
    last one recorded; no value, not even -inf or NaN, falls below the
    default.
    """
    zs, ws = [], []
    z_out, w_out = zs.append, ws.append
    for h, count in runs:
        c0, c1, d0, d1 = _DRIFT_OUT * h, _DRIFT_IN * h, _W1 * h, _W0 * h
        for _ in range(count):
            z += c0 * w
            w += d0 * (-z - k * z * z * z)
            z += c1 * w
            w += d1 * (-z - k * z * z * z)
            z += c1 * w
            w += d0 * (-z - k * z * z * z)
            z += c0 * w
            z_out(z)
            w_out(w)
            if abs(z) > bound or z < z_stop:
                return zs, ws
    return zs, ws


def _planar_flow(q, p, eps: float, runs) -> list:
    """Split-step the raw Stark flow from (q, p); one row (q1, q2, p1, p2) per run.

    A fast passage can hop across the singularity between kicks, so each
    drift segment is checked for a pass within the cutoff.  |q|^2, formed
    once per position, feeds the next drift's far-field bound (_FAR; the
    rest go to _check_drift) and the kick's r^3 = r^2 sqrt(r^2), except
    within 1e-12 of the cutoff or near overflow, where _cube's exact test
    decides.  ``runs`` holds pairs (step length h, count), as for _oscillate.
    """
    sqrt, far, cut2, near, huge = math.sqrt, _FAR, _CUT2, _CUT2 * (1.0 + 1e-12), 1e200
    (q1, q2), (p1, p2) = map(float, q), map(float, p)
    r2 = q1 * q1 + q2 * q2
    rows = []
    for h, count in runs:
        c0, c1, d0, d1 = _DRIFT_OUT * h, _DRIFT_IN * h, _W1 * h, _W0 * h
        for _ in range(count):
            dq1, dq2 = c0 * p1, c0 * p2
            if not r2 > far * (cut2 + dq1 * dq1 + dq2 * dq2):
                _check_drift(q1, q2, dq1, dq2)
            q1, q2 = q1 + dq1, q2 + dq2
            r2 = q1 * q1 + q2 * q2
            r3 = r2 * sqrt(r2) if near < r2 < huge else _cube(q1, q2)
            p1, p2 = p1 + d0 * (-q1 / r3 - eps), p2 + d0 * (-q2 / r3)
            dq1, dq2 = c1 * p1, c1 * p2
            if not r2 > far * (cut2 + dq1 * dq1 + dq2 * dq2):
                _check_drift(q1, q2, dq1, dq2)
            q1, q2 = q1 + dq1, q2 + dq2
            r2 = q1 * q1 + q2 * q2
            r3 = r2 * sqrt(r2) if near < r2 < huge else _cube(q1, q2)
            p1, p2 = p1 + d1 * (-q1 / r3 - eps), p2 + d1 * (-q2 / r3)
            dq1, dq2 = c1 * p1, c1 * p2
            if not r2 > far * (cut2 + dq1 * dq1 + dq2 * dq2):
                _check_drift(q1, q2, dq1, dq2)
            q1, q2 = q1 + dq1, q2 + dq2
            r2 = q1 * q1 + q2 * q2
            r3 = r2 * sqrt(r2) if near < r2 < huge else _cube(q1, q2)
            p1, p2 = p1 + d0 * (-q1 / r3 - eps), p2 + d0 * (-q2 / r3)
            dq1, dq2 = c0 * p1, c0 * p2
            if not r2 > far * (cut2 + dq1 * dq1 + dq2 * dq2):
                _check_drift(q1, q2, dq1, dq2)
            q1, q2 = q1 + dq1, q2 + dq2
            r2 = q1 * q1 + q2 * q2
        rows.append((q1, q2, p1, p2))
    return rows


def _check_drift(q1: float, q2: float, dq1: float, dq2: float) -> None:
    """Raise CollisionApproach if the segment from q to q + dq passes within the cutoff."""
    len2 = dq1 * dq1 + dq2 * dq2
    if len2 > 0.0:
        t = -(q1 * dq1 + q2 * dq2) / len2
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
        r_min = math.hypot(q1 + t * dq1, q2 + t * dq2)
    else:
        r_min = math.hypot(q1, q2)
    if r_min < COLLISION_CUTOFF:
        raise CollisionApproach(f"trajectory passed within {r_min:.3e} of the collision point")


def _cube(q1: float, q2: float) -> float:
    """|q|^3 with the exact collision test; raises CollisionApproach below the cutoff."""
    r = math.hypot(q1, q2)
    if r < COLLISION_CUTOFF:
        raise CollisionApproach(f"|q| = {r:.3e} fell below the collision cutoff {COLLISION_CUTOFF}")
    # pow rounds the cube once; Python's ** raises OverflowError where it
    # leaves double range, so far out the product (inf) stands in
    return r**3 if r < 1e100 else r * r * r


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
    if check_selector(sel) is _PLUS:
        return 2.0 * eps, math.inf
    return -2.0 * eps, (1.0 / math.sqrt(2.0 * eps) if eps > 0 else math.inf)


def _closed(z: float, e: float, eps: float, sel: OscillatorSelector) -> bool:
    """Whether _exact_flow covers a factor at z of energy e: a finite kernel
    argument, and a soft start inside its well below the separatrix."""
    try:
        _kernel_arg(eps, e, sel)
    except DomainError:
        return False
    return abs(z) <= _factor(eps, sel)[1]


def _split(state: RegularizedState, eps: float):
    """The factor energies of a state (inf where they overflow), and whether
    both factors have a closed-form flow."""
    split = energy_split(state, eps)
    z1, z2 = state.z.tolist()
    return split, _closed(z1, split.e1, eps, _PLUS) and _closed(z2, split.e2, eps, _MINUS)


def _exact_flow(z: float, w: float, times, e: float, eps: float, sel: OscillatorSelector):
    """Move a factor of energy e along its exact flow (DLMF 22.13) to each of
    ``times``; returns z, w there and the factors (a^2/omega, int cn^2
    resp. sn^2 du from u_0 to u) of int_0^t z^2 dt, whose product only a
    caller that reads the time forms: it can overflow where the states
    stay finite.

    Stiff z = a cn(u | m), soft z = a sn(u | m), with m = eps a^2/omega^2 and
    u = u_0 + omega t, u_0 = F(phi0 | m) from the start's amplitude phi0.  By
    Landen's incomplete E (A&S 17.6), int_0^U sn^2 du = (U - E(am U | m))/m
    = U (1/2 + m Q) - sum_{n>=1} d_n sin phi_n, with d_n = c_n/m and Q from
    elliptic._agm, so nothing cancels as m -> 0, and int cn^2 = U - int sn^2;
    int_0^t z^2 dt is a^2/omega times that of cn^2 resp. sn^2 from u_0 to u.
    At time 0 the start comes back exactly, and a factor at rest stays there.
    """
    times = np.asarray(times, dtype=float)
    if e == 0.0:
        return np.full_like(times, z), np.full_like(times, w), (0.0, np.zeros_like(times))
    stiff = sel is _PLUS
    root = math.sqrt(1.0 - _kernel_arg(eps, e, sel))
    a2 = e / (0.25 + 0.25 * root)  # 4e/(1 + root), without overflowing 4e
    omega2 = 1.0 + 2.0 * eps * a2 if stiff else 1.0 - eps * a2
    m = eps * a2 / omega2
    a, omega = math.sqrt(a2), math.sqrt(omega2)
    r = z / a
    if stiff:
        phi0 = math.atan2(-w / (a * omega * math.sqrt(1.0 - m + m * r * r)), r)
    else:
        phi0 = math.atan2(r, w / (a * omega * math.sqrt(1.0 - m * r * r)))
    # the soft factor passes 1 - m exactly, near the separatrix too
    table, d, q = _agm(m, None if stiff else root / omega2)
    u0 = _ellip_f(phi0, table)
    sn, cn, dn, landen = _jacobi(u0 + omega * times, m, table, d)
    du, landen = omega * times, landen - _jacobi(u0, m, table, d)[3]
    if stiff:
        z_t, w_t, sq = a * cn, -a * omega * sn * dn, du * (0.5 - m * q) + landen
    else:
        z_t, w_t, sq = a * sn, a * omega * cn * dn, du * (0.5 + m * q) - landen
    moved = times != 0.0
    return np.where(moved, z_t, z), np.where(moved, w_t, w), (a2 / omega, sq)


# --- public integrators -----------------------------------------------------


def integrate_regularized(
    state: RegularizedState,
    eps: float,
    step: float = 1e-3,
    duration: float = 1.0,
) -> tuple[Trajectory, np.ndarray]:
    """Integrate the regularized energy flow in its own time s.

    Returns the trajectory (states are rows (z1, z2, w1, w2)) sampled every
    ``step`` and the accumulated physical time t(s) = int |z|^2 ds at each
    sample: in closed form where the state has one (_split), else by Yoshida
    steps of ``step`` and Simpson's rule on their half steps (fourth order).
    """
    step = check_finite(step, "integrator step")
    eps = check_field_strength(eps)
    times, last, runs = _schedule(duration, step)
    (z1, z2), (w1, w2) = state.z.tolist(), state.w.tolist()
    energy = partial(_total_energy, eps)
    split, closed = _split(state, eps)
    if closed:
        z1s, w1s, (k1, sq1) = _exact_flow(z1, w1, times, split.e1, eps, _PLUS)
        z2s, w2s, (k2, sq2) = _exact_flow(z2, w2, times, split.e2, eps, _MINUS)
        traj = _trajectory(times, np.column_stack((z1s, z2s, w1s, w2s)), energy)
        return traj, k1 * sq1 + k2 * sq2

    z1s, w1s = _oscillate(z1, w1, 2.0 * eps, runs)
    z2s, w2s = _oscillate(z2, w2, -2.0 * eps, runs)
    half = np.array([[z1, *z1s], [z2, *z2s], [w1, *w1s], [w2, *w2s]])
    traj = _trajectory(times, np.ascontiguousarray(half[:, ::2].T), energy)

    r2 = half[0] * half[0] + half[1] * half[1]
    hh = np.full(len(times) - 1, step)
    hh[-1:] = last
    # cumsum adds in order, as a running sum does
    phys = np.cumsum(hh / 6.0 * (r2[:-1:2] + 4.0 * r2[1::2] + r2[2::2]))
    return traj, np.concatenate(([0.0], phys))


# --- section return, torus action, flow equivalence -------------------------


def measure_period(
    eps: float,
    c: float,
    sel: OscillatorSelector,
    step: float = 1e-3,
) -> float:
    """Flow-based period: start at a turning point and time a quarter orbit.

    The orbit leaves (z_max, 0) with w turning negative, and the time to
    its first crossing of z = 0 is multiplied by four.  The step is
    palindromic, so R1: (z, w) -> (z, -w) reverses it (R1 S R1 = S^-1), and
    N: (z, w) -> (-z, -w) commutes with it exactly in floating point
    (negation is exact and the force is odd); R2 = N R1: (z, w) -> (-z, w)
    reverses it too.  An orbit that leaves Fix(R1) = {w = 0} reaches
    Fix(R2) = {z = 0} after a quarter of its period, and the other three
    quarters are its images under R1, R2 and N.  The crossing is solved on
    its step to rounding (_crossing), so the period carries the stepped
    flow's error and no search resolution.  The run steps in stretches of
    at most _CHUNK steps, each stopped at its first step with z < 0: only
    a stretch's last step can cross.  A soft run no longer reaches the
    saddle, so besides the kernel's |z| bound it checks the stepped energy
    of every recorded state against the separatrix energy: an orbit that a
    coarse step lifted over the separatrix raises SeparatrixEscape.
    """
    step = check_finite(step, "integrator step")
    eps = check_field_strength(eps)
    k, saddle = _factor(eps, sel)
    z, w, done = float(turning_point(eps, c, sel)), 0.0, 0
    while done < _MAX_STEPS:
        count = min(_CHUNK, _MAX_STEPS - done)
        zs, ws = _oscillate(z, w, k, [(step, count)], saddle, 0.0)
        # the state before the stretch's last step, and after it; a step that
        # overflows leaves every later one non-finite too
        (z0, w0), (z, w) = (z, w) if len(zs) == 1 else (zs[-2], ws[-2]), (zs[-1], ws[-1])
        _finite((z, w))
        if abs(z) > saddle:
            raise SeparatrixEscape("period run crossed the separatrix")
        if sel is _MINUS:
            e = _factor_energy(np.array(zs, float), np.array(ws, float), k)
            try:
                _kernel_arg(eps, e, sel)
            except DomainError as exc:
                raise SeparatrixEscape("period run reached the separatrix energy") from exc
        done += len(zs)
        if z < 0.0:
            # the whole steps and the crossing's partial one, added in order
            hh = np.full(done, step)
            hh[-1] = _crossing(z0, w0, k, step)
            return 4.0 * float(hh.cumsum()[-1])
    raise NoReturnError("orbit did not return to the section within max_steps")


def _crossing(z: float, w: float, k: float, h: float) -> float:
    """The length t in [0, h] of the step from (z, w), z >= 0, that ends on z = 0.

    Newton's method on z(t) with the stepped w as its slope, kept inside
    the bracket [lo, hi] on which z changes sign: an iterate outside it is
    replaced by the midpoint.  It stops at rounding: when z is 0, when a
    Newton iterate repeats the last one, or when no float lies inside the
    bracket.
    """
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
        (zt,), (wt,) = _oscillate(z, w, k, [(t, 1)])
        lo, hi = (t, hi) if zt > 0.0 else (lo, t)
    return t


def torus_act(t1: float, t2: float, state: RegularizedState, eps: float) -> RegularizedState:
    """Act by (t1, t2): move each factor along its exact flow for t * tau.

    Times are taken literally: tau1/tau2 come from the period kernel phi,
    so t = 1 returns the state only as far as they agree with the Jacobi
    period 4K/omega (an AGM on another parameter).
    """
    eps = check_field_strength(eps, positive=True)
    t1, t2 = (check_finite(t, "torus action time", positive=False) for t in (t1, t2))
    split, closed = _split(state, eps)
    if not closed:
        raise DomainError(
            "torus action needs finite factor energies and a bounded soft-factor orbit"
        )
    (z1, z2), (w1, w2) = state.z.tolist(), state.w.tolist()
    z1, w1, _ = _exact_flow(z1, w1, t1 * tau1(eps, split.e1), split.e1, eps, _PLUS)
    z2, w2, _ = _exact_flow(z2, w2, t2 * tau2(eps, split.e2), split.e2, eps, _MINUS)
    _finite(np.array([z1, z2, w1, w2]))
    return RegularizedState(z=(z1, z2), w=(w1, w2))


def flow_equivalence(
    state: RegularizedState,
    eps: float,
    step: float = 1e-3,
    s_duration: float = 5.0,
) -> float:
    """Certify that the regularized flow reproduces the raw one.

    Runs the regularized flow from a zero-level state (integrate_regularized:
    closed form where the state has one), converts elapsed regularized time
    to physical time through t(s) = int |z|^2 ds, steps the raw flow with
    Yoshida's coefficients from the lifted start to each physical
    checkpoint, and returns the largest phase-space distance between the
    lifted regularized state and the raw state.
    """
    step = check_finite(step, "integrator step")
    eps = check_field_strength(eps)
    e = regularized_energy(state, eps)
    if abs(e) > 1e-9:
        raise LevelSetError(f"state is off the zero level set: E = {e:.3e}")
    traj, phys = integrate_regularized(state, eps, step, s_duration)
    lifted = np.column_stack(_lift(*traj.states.T))

    # ceil(dt / step) equal raw substeps per regularized step, at most _MAX_STEPS in all
    dts = np.diff(phys)
    subs = np.maximum(1.0, np.ceil(dts / step))
    if not subs.sum() <= _MAX_STEPS:
        raise DomainError(f"the raw flow to t = {phys[-1]:.6g} at step {step} needs "
                          f"more than max_steps={_MAX_STEPS} steps")
    raw = np.array(_planar_flow(lifted[0, :2], lifted[0, 2:], eps, zip(
        (dts / subs).tolist(), subs.astype(int).tolist()))).reshape(-1, 4)
    deviation = np.sqrt(np.sum((lifted[1:] - raw) ** 2, axis=1))
    _finite(deviation)
    return float(np.max(deviation, initial=0.0))
