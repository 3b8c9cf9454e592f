"""Oracles: quadrature of the elliptic kernel, independent of the AGM, and
the regularized flow stepped by the oscillator splitting kernel.

After z = sin(theta) the defining integrals lose their endpoint
singularity:

    K(m)   =     int_0^{pi/2} (1 - m sin^2 t)^(-1/2) dt,
    K'(m)  = 1/2 int_0^{pi/2} sin^2 t (1 - m sin^2 t)^(-3/2) dt,
    K''(m) = 3/4 int_0^{pi/2} sin^4 t (1 - m sin^2 t)^(-5/2) dt.

The integrands form 1 - m sin^2 t as cos^2 t + (1 - m) sin^2 t, a sum of
non-negative terms for every m < 1: near t = pi/2 as m -> 1 the direct
form would cancel to 1 - m and carry its rounding into every level of
the quadrature.

Each of those takes a float or an ndarray like the ``elliptic`` functions
and raises ``DomainError`` outside m < 1.
"""

import numpy as np

from starktoric import dynamics
from starktoric.elliptic import _checked, _ret
from starktoric.levi_civita import _total_energy
from starktoric.quadrature import integrate


def _theta_integral(m, p: int, coef: float):
    """coef * int_0^{pi/2} sin^{2p} t (1 - m sin^2 t)^{-(p + 1/2)} dt by quadrature."""
    arr, scalar = _checked(m)

    def single(mv: float) -> float:
        def integrand(theta):
            s2 = np.sin(theta) ** 2
            return coef * s2**p * (np.cos(theta) ** 2 + (1.0 - mv) * s2) ** -(p + 0.5)

        return integrate(integrand, 0.0, 0.5 * np.pi)

    out = np.array([single(v) for v in arr.ravel()])
    return _ret(out.reshape(arr.shape), scalar)


def ellip_k_oracle(m):
    """K(m) straight from the defining integral."""
    return _theta_integral(m, 0, 1.0)


def ellip_k_d1_oracle(m):
    """dK/dm straight from its defining integral."""
    return _theta_integral(m, 1, 0.5)


def ellip_k_d2_oracle(m):
    """d2K/dm2 straight from its defining integral."""
    return _theta_integral(m, 2, 0.75)


def _oscillate(z: float, w: float, k: float, h: float, count: int):
    """Split-step the oscillator factor z'' = -z - k z^3 from (z, w).

    Takes count Yoshida steps of h, with the package's splitting constants,
    and returns the states after every step as two lists of floats.
    """
    zs, ws = [], []
    z_out, w_out = zs.append, ws.append
    c0, c1 = dynamics._DRIFT_OUT * h, dynamics._DRIFT_IN * h
    d0, d1 = dynamics._W1 * h, dynamics._W0 * h
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
    return zs, ws


def _half_steps(z, w, k, step, last, n):
    """The splitting kernel's states at every half step from (z, w), the
    start included: n - 1 steps of step, then one of last."""
    zs, ws = [z], [w]
    for h, count in ((step / 2, 2 * (n - 1)), (last / 2, 2 if n else 0)):
        more = _oscillate(zs[-1], ws[-1], k, h, count)
        zs += more[0]
        ws += more[1]
    return zs, ws


def kernel_flow(state, eps, step=1e-3, duration=1.0):
    """The regularized flow stepped by the splitting kernel, the oracle that
    the closed form is checked against: two Yoshida steps of step / 2 move
    each sample (the last step ends on duration), and Simpson's rule on the
    half steps gives t(s)."""
    times = dynamics._schedule(duration, step)
    n = len(times) - 1
    last = min(step, duration - (n - 1) * step)
    (z1, z2), (w1, w2) = state.z.tolist(), state.w.tolist()
    z1s, w1s = _half_steps(z1, w1, 2.0 * eps, step, last, n)
    z2s, w2s = _half_steps(z2, w2, -2.0 * eps, step, last, n)
    half = np.array([z1s, z2s, w1s, w2s])
    states = np.ascontiguousarray(half[:, ::2].T)
    with np.errstate(over="ignore", invalid="ignore"):
        e = _total_energy(eps, *states.T)
        drift = np.max(np.abs(e - e[0]))
    dynamics._finite(states, drift)
    r2 = half[0] * half[0] + half[1] * half[1]
    hh = np.full(n, step)
    hh[-1:] = last
    phys = np.cumsum(hh / 6.0 * (r2[:-1:2] + 4.0 * r2[1::2] + r2[2::2]))
    return dynamics.Trajectory(times, states, float(drift)), np.concatenate(([0.0], phys))
