"""Complete elliptic integral of the first kind on (-inf, 1).

    K(m) = int_0^1 dz / sqrt((1 - z^2)(1 - m z^2)),      m < 1,

in the parameter convention m = k^2 (DLMF 19.1, A&S 17).  The primary
evaluation path is the arithmetic-geometric mean iteration, quadratically
convergent for m in [0, 1); negative parameters are pulled into [0, 1)
through the transformation

    K(m) = K(m / (m - 1)) / sqrt(1 - m),      m < 0,

so a single high-accuracy kernel serves the whole domain.  Adaptive
quadrature of the defining integrals (after the z = sin(theta)
substitution, which removes the endpoint singularity) is kept alongside
as an independent oracle, together with the first two derivatives

    K'(m)  = 1/2 int_0^1 z^2 / sqrt((1-z^2)(1-m z^2)^3) dz,
    K''(m) = 3/4 int_0^1 z^4 / sqrt((1-z^2)(1-m z^2)^5) dz,

and the logarithmic derivative K'/K.  All of these are positive, K is
strictly increasing, and ln K is strictly convex; ``interpolation_gap``
exposes the Cauchy-Schwarz bound K*K'' >= 3*K'^2 behind that convexity
as a testable quantity.

Every function accepts a float or an ndarray and returns the same kind.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .quadrature import integrate

__all__ = [
    "ellip_k",
    "ellip_e",
    "ellip_k_oracle",
    "ellip_k_d1",
    "ellip_k_d1_oracle",
    "ellip_k_d2",
    "log_k_d1",
    "log_k_d2",
    "interpolation_gap",
]

_AGM_RTOL = 1e-15
_AGM_MAX_ITER = 60
_D1_SERIES_CUTOFF = 1e-4


def _checked(m) -> tuple[np.ndarray, bool]:
    arr = np.asarray(m, dtype=float)
    if np.any(~(arr < 1.0)):
        raise DomainError("elliptic parameter must satisfy m < 1")
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _agm_k_s(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, s) by AGM for m in [0, 1): E = K (1 - s), and K - E = K s cancels nothing.

    Convergence is decided over the whole array for 0-d and 1-d input and
    per row of the last axis otherwise; a converged row is frozen, so every
    row of a batch comes out bit for bit as it would from its own call.
    """
    rows = m.reshape(1, -1) if m.ndim < 2 else m.reshape(-1, m.shape[-1])
    a = np.ones_like(rows)
    b = np.sqrt(1.0 - rows)
    s = 0.5 * rows  # running sum of 2^(n-1) c_n^2, seeded with c_0^2 = m
    done = np.zeros((len(rows), 1), dtype=bool)
    pw = 1.0
    for _ in range(_AGM_MAX_ITER):
        c = 0.5 * (a - b)
        s_next = s + pw * c * c
        pw *= 2.0
        a_next, b_next = 0.5 * (a + b), np.sqrt(a * b)
        if done.any():
            s_next = np.where(done, s, s_next)
            a_next = np.where(done, a, a_next)
            b_next = np.where(done, b, b_next)
        a, b, s = a_next, b_next, s_next
        done |= np.all(np.abs(a - b) <= _AGM_RTOL * a, axis=1, keepdims=True)
        if done.all():
            break
    return (np.pi / (2.0 * a)).reshape(m.shape), s.reshape(m.shape)


def _k_e(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    neg = m < 0.0
    mt = np.where(neg, m / (m - 1.0), m)
    k_t, s_t = _agm_k_s(mt)
    e_t = k_t * (1.0 - s_t)
    root = np.sqrt(np.where(neg, 1.0 - m, 1.0))
    return np.where(neg, k_t / root, k_t), np.where(neg, e_t * root, e_t)


def ellip_k(m):
    """Complete elliptic integral of the first kind, m < 1."""
    arr, scalar = _checked(m)
    return _ret(_k_e(arr)[0], scalar)


def ellip_e(m):
    """Complete elliptic integral of the second kind, m < 1."""
    arr, scalar = _checked(m)
    return _ret(_k_e(arr)[1], scalar)


def ellip_k_d1(m):
    """dK/dm, positive on (-inf, 1).

    Closed form (E(m) - (1-m) K(m)) / (2 m (1-m)); the removable
    singularity at m = 0 is bridged by the Maclaurin series of K'.
    """
    arr, scalar = _checked(m)
    k, e = _k_e(arr)
    small = np.abs(arr) < _D1_SERIES_CUTOFF
    num = np.where(small, 0.0, e - (1.0 - arr) * k)
    den = np.where(small, 1.0, 2.0 * arr * (1.0 - arr))
    closed = num / den
    series = (np.pi / 2.0) * (
        0.25 + arr * (9.0 / 32.0 + arr * (75.0 / 256.0 + arr * (1225.0 / 4096.0)))
    )
    return _ret(np.where(small, series, closed), scalar)


def _theta_integral(m, p: int, coef: float):
    """coef * int_0^{pi/2} sin^{2p} t (1 - m sin^2 t)^{-(p + 1/2)} dt by quadrature.

    After z = sin(t) this is the defining integral of K (p = 0, coef 1) and
    of its first (p = 1, coef 1/2) and second (p = 2, coef 3/4) derivatives.
    """
    arr, scalar = _checked(m)

    def single(mv: float) -> float:
        def integrand(theta):
            s2 = np.sin(theta) ** 2
            return coef * s2**p * (1.0 - mv * s2) ** -(p + 0.5)

        return integrate(integrand, 0.0, 0.5 * np.pi)

    out = np.array([single(v) for v in arr.ravel()])
    return _ret(out.reshape(arr.shape), scalar)


def ellip_k_d2(m):
    """d2K/dm2 by adaptive quadrature of its defining integral."""
    return _theta_integral(m, 2, 0.75)


def ellip_k_oracle(m):
    """K(m) straight from the defining integral (independent of the AGM)."""
    return _theta_integral(m, 0, 1.0)


def ellip_k_d1_oracle(m):
    """dK/dm straight from its defining integral."""
    return _theta_integral(m, 1, 0.5)


def log_k_d1(m):
    """(ln K)'(m) = K'(m)/K(m), positive and strictly increasing."""
    arr, scalar = _checked(m)
    k, _ = _k_e(arr)
    d1 = np.asarray(ellip_k_d1(arr))
    return _ret(d1 / k, scalar)


def log_k_d2(m):
    """(K'/K)'(m) = (K'' K - K'^2) / K^2, strictly positive (ln K convex)."""
    arr, scalar = _checked(m)
    k, _ = _k_e(arr)
    d1 = np.asarray(ellip_k_d1(arr))
    d2 = np.asarray(ellip_k_d2(arr))
    return _ret((d2 * k - d1 * d1) / (k * k), scalar)


def interpolation_gap(m):
    """K*K'' - 3*K'^2, nonnegative by the Cauchy-Schwarz inequality."""
    arr, scalar = _checked(m)
    k, _ = _k_e(arr)
    d1 = np.asarray(ellip_k_d1(arr))
    d2 = np.asarray(ellip_k_d2(arr))
    return _ret(k * d2 - 3.0 * d1 * d1, scalar)
