"""The Stark flows: the regularized one in closed form, the raw one split-stepped.

The regularization separates the Levi-Civita energy flow into two
anharmonic oscillators z'' = -z - k z^3 (stiff k = 2 eps, soft k = -2 eps),
and their flows are Jacobi elliptic functions (DLMF 22.13).  The regularized
energy flow and the torus action evaluate them at the sample times, from one
AGM table per factor that also gives its period, and t(s) = int |z|^2 ds, the
physical time, comes from the same levels through Landen's incomplete E (A&S
17.6).  Only _factor_flow tells a soft factor inside its well from one that
escapes to infinity at a finite s, and no closed form forms 2 eps, which
overflows past 8.99e307.

The period measurement reads a factor's period off that flow: four times its
first zero from a turning point, which is 4K(m)/omega.

Yoshida's fourth-order composition of leapfrog (Yoshida 1990, the triple
jump) steps only the raw planar flow of flow_equivalence, which has no closed
form, in one loop on Python floats: three kicks p - (g q + d (eps, 0)), each
with one division g = d/(|q|^2 sqrt(|q|^2)), and three drifts, a step's
closing half-drift merged with the next one's opening half.  A collision
cutoff at |q| = 1e-3 is checked along every drift, the last closing half too,
and only there (a kick acts at a drift's checked end), since the field
-q/|q|^3 - (eps, 0) is singular at the origin; a segment that starts farther
out than the cutoff plus its own length cannot reach it.

The loop records only the states its caller reads.  The diagnostics (the
energy drift, flow_equivalence's lift and deviation) are array operations on
a run's states, checked once for finiteness, since an overflow is silent.
The step (a Python float: the loop runs slower on numpy's) spaces the
regularized flow's samples and is the Yoshida step length of the raw flow;
no run takes more than _MAX_STEPS samples or raw substeps.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from .elliptic import _agm, _ellip_f, _jacobi
from .errors import DomainError, NumericsError
from .levi_civita import RegularizedState, _lift, _total_energy, energy_split, regularized_energy
from .periods import OscillatorSelector, _kernel_arg, turning_point
from .stark_model import check_finite, check_real

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

_MAX_STEPS = 10_000_000  # samples or raw substeps per run (module docstring)


class Trajectory(NamedTuple):
    """Sampled orbit: times, states (one row per time), max energy deviation."""

    times: np.ndarray
    states: np.ndarray
    energy_drift: float


def _steps(duration: float, h: float) -> tuple[float, int]:
    """duration as a float, and _schedule's n steps, at least one to a positive duration."""
    duration = check_finite(duration, "duration", positive=False)
    steps = duration / h - 1e-12  # inf for a tiny step: compared before ceil, which raises
    if steps > _MAX_STEPS:
        raise DomainError(f"duration {duration} at step {h} needs more than "
                          f"max_steps={_MAX_STEPS} steps")
    return duration, max(math.ceil(steps), int(duration > 0.0))


def _schedule(duration: float, h: float) -> np.ndarray:
    """Sample times every h from 0, the last one on duration."""
    duration, n = _steps(duration, h)
    times = np.arange(n + 1) * h
    times[-1] = duration  # n h can round short of it
    return times


def _planar_flow(q, p, eps: float, runs) -> list:
    """Split-step the raw Stark flow from (q, p); one row (q1, q2, p1, p2) per run.

    A fast passage can hop across the singularity between kicks, so each
    drift segment is checked for a pass within the cutoff, the one collision
    test: every kick acts at the end of a drift just checked.  A step's closing
    half-drift and the next step's opening one, across runs too, are one
    segment, their union; a row takes the closing half q + c0 p uncommitted,
    and the last is checked after the loop.  |q|^2, formed once per position,
    feeds the next drift's far-field bound (_FAR; the rest go to _check_drift)
    and the kick's g = d/(r^2 sqrt(r^2)), 0 far out.  ``runs``: (h, count >= 1).
    """
    sqrt, far, cut2 = math.sqrt, _FAR, _CUT2
    (q1, q2), (p1, p2) = map(float, q), map(float, p)
    r2 = q1 * q1 + q2 * q2
    rows, c0 = [], 0.0  # c0: the closing half-drift not yet taken
    for h, count in runs:
        c, c0, c1, d0, d1 = c0 + _DRIFT_OUT * h, _DRIFT_OUT * h, _DRIFT_IN * h, _W1 * h, _W0 * h
        f0, f1 = d0 * eps, d1 * eps
        for _ in range(count):
            dq1, dq2 = c * p1, c * p2
            if not r2 > far * (cut2 + dq1 * dq1 + dq2 * dq2):
                _check_drift(q1, q2, dq1, dq2)
            q1, q2 = q1 + dq1, q2 + dq2
            r2 = q1 * q1 + q2 * q2
            g = d0 / (r2 * sqrt(r2))
            p1, p2 = p1 - (g * q1 + f0), p2 - g * q2
            dq1, dq2 = c1 * p1, c1 * p2
            if not r2 > far * (cut2 + dq1 * dq1 + dq2 * dq2):
                _check_drift(q1, q2, dq1, dq2)
            q1, q2 = q1 + dq1, q2 + dq2
            r2 = q1 * q1 + q2 * q2
            g = d1 / (r2 * sqrt(r2))
            p1, p2 = p1 - (g * q1 + f1), p2 - g * q2
            dq1, dq2 = c1 * p1, c1 * p2
            if not r2 > far * (cut2 + dq1 * dq1 + dq2 * dq2):
                _check_drift(q1, q2, dq1, dq2)
            q1, q2 = q1 + dq1, q2 + dq2
            r2 = q1 * q1 + q2 * q2
            g = d0 / (r2 * sqrt(r2))
            p1, p2 = p1 - (g * q1 + f0), p2 - g * q2
            c = d0  # 2 c0: this step's closing half and the next one's opening half
        rows.append((q1 + c0 * p1, q2 + c0 * p2, p1, p2))
    dq1, dq2 = c0 * p1, c0 * p2  # the last row's closing half, none without a run
    if c0 and not r2 > far * (cut2 + dq1 * dq1 + dq2 * dq2):
        _check_drift(q1, q2, dq1, dq2)
    return rows


def _check_drift(q1: float, q2: float, dq1: float, dq2: float) -> None:
    """Raise NumericsError if the segment from q to q + dq passes within the cutoff."""
    len2 = dq1 * dq1 + dq2 * dq2
    if len2 > 0.0:
        t = -(q1 * dq1 + q2 * dq2) / len2
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
        r_min = math.hypot(q1 + t * dq1, q2 + t * dq2)
    else:
        r_min = math.hypot(q1, q2)
    if r_min < COLLISION_CUTOFF:
        raise NumericsError(f"trajectory passed within {r_min:.3e} of the collision point")


def _finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericsError("the orbit overflowed: a recorded value is not finite")


def _exact_flow(z: float, w: float, e: float, eps: float, sel: OscillatorSelector):
    """The first time after 0 at which a factor of energy e at (z, w) vanishes,
    its period 4K(m)/omega = 2 pi/(a_N omega) (2 pi at rest), and the map
    that moves it along its exact flow (DLMF 22.13) to ``times`` and returns
    z, w and int_0^t z^2 dt there, the last inf where it overflows.

    Stiff z = a cn(u | m), soft z = a sn(u | m), with m = eps a^2/omega^2 and
    u = u_0 + omega t, u_0 = F(phi0 | m) from the start's amplitude phi0.  By
    Landen's incomplete E (A&S 17.6), int_0^U sn^2 du = (U - E(am U | m))/m
    = U (1/2 + m Q) - sum_{n>=1} d_n sin phi_n, with d_n = c_n/m and Q from
    elliptic._agm, so nothing cancels as m -> 0, and int cn^2 = U - int sn^2;
    int_0^t z^2 dt is a^2/omega times that of cn^2 resp. sn^2 from u_0 to u.
    At time 0 the start comes back exactly, and a factor at rest stays there.
    An a^2 that overflows raises DomainError.
    """
    if e == 0.0:
        return math.inf, 2.0 * math.pi, lambda t: (np.full_like(t, z), np.full_like(t, w),
                                                   np.zeros_like(t))
    stiff = sel is _PLUS
    root = math.sqrt(1.0 - _kernel_arg(eps, e, sel))
    a2 = e / (0.25 + 0.25 * root)  # 4e/(1 + root), without overflowing 4e
    if a2 == math.inf:
        raise DomainError(f"the squared amplitude at factor energy {e!r} overflows the doubles")
    omega2 = 1.0 + 2.0 * (eps * a2) if stiff else 1.0 - eps * a2  # 2 eps can overflow
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
    landen0 = _jacobi(u0, m, table, d)[3]
    half, c = math.pi / table[-1][0], 0.5 if stiff else 0.0  # z vanishes at u = 2K (j + c)
    zero = (half * (math.floor(u0 / half - c) + 1.0 + c) - u0) / omega

    def move(times):
        times = np.asarray(times, dtype=float)
        sn, cn, dn, landen = _jacobi(u0 + omega * times, m, table, d)
        du, landen = omega * times, landen - landen0
        if stiff:
            z_t, w_t, sq = a * cn, -a * omega * sn * dn, du * (0.5 - m * q) + landen
        else:
            z_t, w_t, sq = a * sn, a * omega * cn * dn, du * (0.5 + m * q) - landen
        moved = times != 0.0
        with np.errstate(over="ignore"):
            return np.where(moved, z_t, z), np.where(moved, w_t, w), a2 / omega * sq

    return zero, 2.0 * half / omega, move


def _factor_flow(z: float, w: float, e: float, eps: float, sel: OscillatorSelector):
    """The escape time s* and the period (each inf if none) of a factor of
    energy e at (z, w), and the map that moves it along its exact flow, from
    every finite state, to the ascending ``times`` short of s* and returns z, w
    and int_0^s z^2 ds there, as _exact_flow's does, whose form takes the stiff
    factor and a soft one inside its well: x = 8 eps e below 1, |z| up to the saddle.

    A soft factor outside its well has w^2 = 2e - z^2 + eps z^4, x = 8 eps e,
    and escapes to infinity at a finite s*.  For x < 1, y = 1/z is a factor of
    field 2|e| and energy eps/2 inside its well, (y')^2 = eps - y^2 + 2e y^4;
    z escapes where y vanishes, and d/ds(w/z) = eps z^2 - 2e y^2 gives the
    time.  For x > 1, z = sigma sqrt(rho) tan(am(u)/2) with sigma = sign(w),
    rho = sqrt(2e/eps), u = u_0 + 2 sqrt(eps rho) s, m = (1 + 1/sqrt(x))/2
    (Byrd & Friedman 1971, 225.00), escaping at u = 2K; int du/(1 + cn) =
    sn dn/(1 + cn) + m int sn^2 du gives the time.  For x = 1, w = sigma
    sqrt(eps) (z^2 - rho) with rho = 1/(2 eps): z is a Moebius map of
    exp(-sqrt(2) s), escaping where its denominator vanishes, if it does.
    An energy, an x or an inverted field 2|e| that overflows raises DomainError.
    """
    if not math.isfinite(e):
        raise DomainError(f"the factor energy {'e1' if sel is _PLUS else 'e2'} overflows the doubles")
    x = -_kernel_arg(eps, e, _PLUS)  # 8 eps e, or DomainError where it overflows
    # the saddle 1/sqrt(2 eps), as 0.5/sqrt(eps/2) where 2 eps overflows
    if sel is _PLUS or x < 1.0 and (eps == 0.0 or abs(z) <= (
            1.0 / math.sqrt(2.0 * eps) if 2.0 * eps < math.inf else 0.5 / math.sqrt(0.5 * eps))):
        return math.inf, *_exact_flow(z, w, e, eps, sel)[1:]
    if x < 1.0:
        if 2.0 * abs(e) == math.inf:
            raise DomainError("the inverted soft factor's field 2|e2| overflows the doubles")
        y0, v0 = 1.0 / z, -w / z / z
        escape, _, move = _exact_flow(y0, v0, 0.5 * eps, 2.0 * abs(e), _MINUS if e > 0.0 else _PLUS)

        def outside(times):
            y, v, t = move(times)
            return 1.0 / y, -v / y / y, (v0 / y0 - v / y + 2.0 * e * t) / eps
    elif x > 1.0:
        rx, sigma = math.sqrt(x), math.copysign(1.0, w)
        rho, m, omega = 0.5 * rx / eps, 0.5 + 0.5 / rx, math.sqrt(2.0 * rx)
        table, d, q = _agm(m, (x - 1.0) / (2.0 * rx * (rx + 1.0)))  # 1 - m, exactly
        u0 = _ellip_f(2.0 * math.atan(sigma * z / math.sqrt(rho)), table)
        escape = (math.pi / table[-1][0] - u0) / omega
        sn0, cn0, dn0, landen0 = _jacobi(u0, m, table, d)

        def outside(times):
            du = omega * times
            sn, cn, dn, landen = _jacobi(u0 + du, m, table, d)
            tan, tan0 = sn / (1.0 + cn), sn0 / (1.0 + cn0)
            z_t, w_t = sigma * math.sqrt(rho) * tan, sigma * math.sqrt(8.0 * e) * dn / (1.0 + cn)
            sq = du * (0.5 * m + m * m * q) - m * (landen - landen0)  # m int sn^2 du
            return z_t, w_t, rho / omega * (2.0 * (tan * dn - tan0 * dn0) + 2.0 * sq - du)
    else:
        rho, r = 0.5 / eps, math.sqrt(0.5 / eps)
        sigma = math.copysign(1.0, w * (z * z - rho))
        a, b = (z + r, z - r) if sigma < 0.0 else (z - r, z + r)
        # a - b h vanishes at h = a/b in (0, 1) just where z heads out beyond a saddle
        escape = math.log(b / a) / math.sqrt(2.0) if sigma * z > r else math.inf

        def outside(times):
            h = np.exp(-math.sqrt(2.0) * times)
            z_t, w_t = -sigma * r * (a + b * h) / (a - b * h), w * 4.0 * rho * h / (a - b * h) ** 2
            return z_t, w_t, rho * times + sigma * (z_t - z) / math.sqrt(eps)

    def sample(times):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # z nears infinity
            z_t, w_t, t = outside(times)
        moved = times != 0.0
        return np.where(moved, z_t, z), np.where(moved, w_t, w), t

    return escape, math.inf, sample


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
    sample, both in closed form from every finite state (_factor_flow): the
    step only spaces the samples.  A soft factor that escapes to infinity
    within ``duration`` raises DomainError naming its escape time s* before
    any sample is formed.
    """
    step = check_finite(step, "integrator step")
    eps = check_finite(eps, "field strength", positive=False)
    duration = _steps(duration, step)[0]  # also the last sample time
    e1, e2 = energy_split(state, eps)  # DomainError unless a RegularizedState
    (z1, z2), (w1, w2) = state.z.tolist(), state.w.tolist()
    _, _, stiff = _factor_flow(z1, w1, e1, eps, _PLUS)
    escape, _, soft = _factor_flow(z2, w2, e2, eps, _MINUS)
    if not duration < escape:
        raise DomainError(f"the soft factor escapes to infinity at s* = {float(escape)!r}, "
                          f"within the duration {duration!r}")
    times = _schedule(duration, step)
    (z1s, w1s, t1), (z2s, w2s, t2) = stiff(times), soft(times)
    states = np.column_stack((z1s, z2s, w1s, w2s))
    # NaN and an energy or a time that overflows propagate into the check
    with np.errstate(over="ignore", invalid="ignore"):
        e = _total_energy(eps, *states.T)
        drift = np.max(np.abs(e - e[0]))
        phys = t1 + t2
    _finite(states, drift, phys)
    return Trajectory(times, states, float(drift)), phys


# --- period, torus action, flow equivalence ---------------------------------


def measure_period(eps: float, c: float, sel: OscillatorSelector) -> float:
    """Flow-based period: four times the first zero of the exact flow from a turning point.

    The factor of energy c leaves (z_max, 0) and first reaches z = 0 a
    quarter period later, at the time _exact_flow returns in closed form:
    K(m)/omega for both z = a cn(u) and z = a sn(u), so the period is the
    Jacobi 4K(m)/omega, an AGM on m = eps a^2/omega^2, another parameter than
    the kernel argument 8 eps c of tau1 and tau2.
    """
    eps = check_finite(eps, "field strength", positive=False)
    c = check_real(c, "slice energy")
    return 4.0 * _exact_flow(turning_point(eps, c, sel), 0.0, c, eps, sel)[0]


def torus_act(t1: float, t2: float, state: RegularizedState, eps: float) -> RegularizedState:
    """Act by (t1, t2): move each factor along its exact flow for t * tau.

    Both flows and both periods tau come from _factor_flow, each period from
    its own flow's AGM table: a soft factor that escapes, one on the
    separatrix (bounded, with no period) and an energy that overflows raise
    DomainError.  Times are taken literally, and t = 1 returns the state up
    to the rounding of the Jacobi descent.
    """
    eps = check_finite(eps, "field strength", positive=False)
    t1, t2 = (check_finite(t, "torus action time", positive=False) for t in (t1, t2))
    e1, e2 = energy_split(state, eps)
    (z1, z2), (w1, w2) = state.z.tolist(), state.w.tolist()
    _, tau1, stiff = _factor_flow(z1, w1, e1, eps, _PLUS)
    escape, tau2, soft = _factor_flow(z2, w2, e2, eps, _MINUS)
    if escape < math.inf:
        raise DomainError("torus action needs finite factor energies and a bounded soft-factor orbit")
    if tau2 == math.inf:
        raise DomainError("soft oscillator requires 8*c*eps < 1 (separatrix energy)")
    z1, w1, _ = stiff(t1 * tau1)
    z2, w2, _ = soft(t2 * tau2)
    _finite(np.array([z1, z2, w1, w2]))
    return RegularizedState(z=(z1, z2), w=(w1, w2))


def flow_equivalence(
    state: RegularizedState,
    eps: float,
    step: float = 1e-3,
    s_duration: float = 5.0,
) -> float:
    """Certify that the regularized flow reproduces the raw one.

    Runs the regularized flow from a zero-level state in closed form
    (integrate_regularized), converts elapsed regularized time to physical
    time through t(s) = int |z|^2 ds, steps the raw flow with Yoshida's
    coefficients from the lifted start to each physical checkpoint, and
    returns the largest phase-space distance between the lifted regularized
    state and the raw state.
    """
    step = check_finite(step, "integrator step")
    eps = check_finite(eps, "field strength", positive=False)
    e = regularized_energy(state, eps)
    if not abs(e) <= 1e-9:
        raise DomainError(f"state is off the zero level set: E = {e:.3e}")
    traj, phys = integrate_regularized(state, eps, step, s_duration)
    lifted = np.column_stack(_lift(*traj.states.T))

    # ceil(dt / step) equal raw substeps per regularized step, at most _MAX_STEPS in all
    dts = np.diff(phys)
    subs = np.maximum(1.0, np.ceil(dts / step))
    if not subs.sum() <= _MAX_STEPS:
        raise DomainError(f"the raw flow to t = {phys[-1]:.6g} at step {step} needs "
                          f"more than max_steps={_MAX_STEPS} steps")
    rows = _planar_flow(lifted[0, :2], lifted[0, 2:], eps, zip(
        (dts / subs).tolist(), subs.astype(int).tolist()))
    raw = np.fromiter(chain.from_iterable(rows), float, 4 * len(rows)).reshape(-1, 4)
    deviation = np.sqrt(np.sum((lifted[1:] - raw) ** 2, axis=1))
    _finite(deviation)
    return float(np.max(deviation, initial=0.0))
