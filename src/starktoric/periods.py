"""Periods of the two separated quartic oscillators.

The stiff factor w^2/2 + z^2/2 + (eps/2) z^4 and the soft factor
w^2/2 + z^2/2 - (eps/2) z^4 (bounded branch) oscillate with periods that
reduce to complete elliptic integrals.  With s = sqrt(1 + 8 c eps) resp.
s = sqrt(1 - 8 c eps),

    tau1(c) = 2^{5/2} / sqrt(1 + s) * K((1 - s)/(1 + s)),
    tau2(c) = 2^{5/2} / sqrt(1 + s) * K((1 - s)/(1 + s)),

both instances of the single kernel

    phi(x) = K((1 - sqrt(1-x))/(1 + sqrt(1-x))) / sqrt(1 + sqrt(1-x)),

via tau1(c) = 2^{5/2} phi(-8 eps c) and tau2(c) = 2^{5/2} phi(8 eps c).
Both tend to 2*pi as c -> 0 (harmonic limit); tau1 decreases and tau2
increases in c, and tau2 diverges logarithmically at the separatrix
energy 1/(8 eps).  The logarithmic derivative of phi is strictly
increasing, which is what ultimately makes the moment-map profile
strictly convex.

``period_oracle`` evaluates the quarter-period time integral
4 * int_0^{z_max} dz / sqrt(2c - z^2 -+ eps z^4) by adaptive quadrature
after the substitution z = z_max sin(theta) and serves as an independent
check on the elliptic-integral route.

All computations use the cancellation-free forms
1 - sqrt(1-x) = x / (1 + sqrt(1-x)).
"""

from __future__ import annotations

import enum

import numpy as np

from .elliptic import ellip_k, log_k_d1
from .errors import DomainError
from .quadrature import integrate
from .stark_model import check_field_strength

__all__ = [
    "OscillatorSelector",
    "phi",
    "log_phi_d1",
    "turning_point",
    "tau1",
    "tau2",
    "period_oracle",
]

_PREF = 2.0 ** 2.5


class OscillatorSelector(enum.Enum):
    PLUS = "plus"  # stiff factor, +eps/2 z^4
    MINUS = "minus"  # soft factor, -eps/2 z^4, bounded branch


def check_selector(sel) -> OscillatorSelector:
    if not isinstance(sel, OscillatorSelector):
        raise DomainError(f"oscillator selector must be an OscillatorSelector, got {sel!r}")
    return sel


def _checked_x(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if np.any(~(arr < 1.0)):
        raise DomainError("argument must satisfy x < 1")
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def phi(x):
    """Common period kernel; tau1 and tau2 are 2^{5/2} phi(-+ 8 eps c)."""
    arr, scalar = _checked_x(x)
    root = np.sqrt(1.0 - arr)
    m = arr / (1.0 + root) ** 2
    return _ret(ellip_k(m) / np.sqrt(1.0 + root), scalar)


def log_phi_d1(x):
    """(ln phi)'(x), strictly positive and strictly increasing on (-inf, 1)."""
    arr, scalar = _checked_x(x)
    root = np.sqrt(1.0 - arr)
    m = arr / (1.0 + root) ** 2
    out = 1.0 / (4.0 * root * (1.0 + root)) + np.asarray(log_k_d1(m)) / (
        root * (1.0 + root) ** 2
    )
    return _ret(out, scalar)


def _check_c(c, minimum_excl: bool = False) -> np.ndarray:
    arr = np.asarray(c, dtype=float)
    bad = ~(arr > 0.0) if minimum_excl else ~(arr >= 0.0)
    if np.any(bad):
        kind = "positive" if minimum_excl else "nonnegative"
        raise DomainError(f"slice energy must be {kind}")
    return arr


def turning_point(eps: float, c, sel: OscillatorSelector):
    """Positive amplitude where the oscillator of energy c has zero velocity.

    Solves eps z^4 + z^2 = 2c for the stiff factor and
    -eps z^4 + z^2 = 2c (inner root, inside the saddle) for the soft one.
    """
    eps = check_field_strength(eps)
    arr = _check_c(c, minimum_excl=True)
    scalar = arr.ndim == 0
    if check_selector(sel) is OscillatorSelector.PLUS:
        s = np.sqrt(1.0 + 8.0 * arr * eps)
    else:
        u = 8.0 * arr * eps
        if np.any(u >= 1.0):
            raise DomainError("soft oscillator requires 8*c*eps < 1")
        s = np.sqrt(1.0 - u)
    return _ret(np.sqrt(4.0 * arr / (1.0 + s)), scalar)


def tau1(eps: float, c):
    """Period of the stiff oscillator at energy c >= 0; 2*pi at c = 0."""
    eps = check_field_strength(eps)
    arr = _check_c(c)
    scalar = arr.ndim == 0
    s = np.sqrt(1.0 + 8.0 * arr * eps)
    m = -8.0 * arr * eps / (1.0 + s) ** 2
    return _ret(_PREF / np.sqrt(1.0 + s) * ellip_k(m), scalar)


def tau2(eps: float, c):
    """Period of the bounded branch of the soft oscillator, 0 <= c < 1/(8 eps)."""
    eps = check_field_strength(eps)
    arr = _check_c(c)
    scalar = arr.ndim == 0
    u = 8.0 * arr * eps
    if np.any(u >= 1.0):
        raise DomainError(
            "soft oscillator bounded branch requires 8*c*eps < 1 (separatrix energy)"
        )
    s = np.sqrt(1.0 - u)
    m = u / (1.0 + s) ** 2
    return _ret(_PREF / np.sqrt(1.0 + s) * ellip_k(m), scalar)


def period_oracle(eps: float, c: float, sel: OscillatorSelector) -> float:
    """Quarter-period time integral, times four, by adaptive quadrature.

    After z = z_max sin(theta) the radicand factors exactly through the
    roots of the quartic, leaving the smooth positive integrand
    (beta +- alpha sin^2 theta)^(-1/2); the turning-point singularity and
    the amplitude prefactor cancel.
    """
    eps = check_field_strength(eps)
    c = float(c)
    if not c > 0.0:
        raise DomainError("period oracle requires a positive slice energy")
    u = 8.0 * c * eps
    if check_selector(sel) is OscillatorSelector.PLUS:
        s = np.sqrt(1.0 + u)
        alpha = 0.5 * u / (1.0 + s)  # (s - 1)/2 without cancellation
    else:
        if u >= 1.0:
            raise DomainError("soft oscillator requires 8*c*eps < 1")
        s = np.sqrt(1.0 - u)
        alpha = -0.5 * u / (1.0 + s)  # -(1 - s)/2
    beta = 0.5 * (1.0 + s)

    def integrand(theta):
        sin2 = np.sin(theta) ** 2
        return (beta + alpha * sin2) ** -0.5

    return 4.0 * integrate(integrand, 0.0, 0.5 * np.pi)
