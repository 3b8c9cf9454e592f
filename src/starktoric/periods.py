"""Periods of the two separated quartic oscillators.

The stiff factor w^2/2 + z^2/2 + (eps/2) z^4 and the soft factor
w^2/2 + z^2/2 - (eps/2) z^4 (bounded branch) oscillate with periods that
reduce to complete elliptic integrals of a single kernel,

    phi(x) = K((1 - sqrt(1-x))/(1 + sqrt(1-x))) / sqrt(1 + sqrt(1-x)),

as tau1(c) = 2^{5/2} phi(-8 eps c) and tau2(c) = 2^{5/2} phi(8 eps c).
Both tend to 2*pi as c -> 0 (harmonic limit); tau1 decreases and tau2
increases in c, and tau2 diverges logarithmically at the separatrix
energy 1/(8 eps).  The logarithmic derivative of phi is strictly
increasing, which is what ultimately makes the moment-map profile
strictly convex.  This module forms the argument x for every caller,
with the soft factor's separatrix test x < 1; the factor energies
themselves live in levi_civita.

``period_oracle`` evaluates the quarter-period time integral
4 * int_0^{z_max} dz / sqrt(2c - z^2 -+ eps z^4) by double-exponential
quadrature after the substitutions z = z_max sin(theta) and
tan(theta) = sinh(v), which leave an integrand that is smooth and finite
on the closed interval up to the separatrix, and serves as an independent
check on the elliptic-integral route.

All computations use the cancellation-free forms
1 - sqrt(1-x) = x / (1 + sqrt(1-x)).
"""

from __future__ import annotations

import enum
import math
import sys

import numpy as np

from .elliptic import _k_dlog, _ret
from .errors import DomainError
from .stark_model import check_finite, check_real, check_real_array

__all__ = [
    "OscillatorSelector",
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


def _tau_lphi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(2^{5/2} phi(x), (ln phi)'(x)) from one AGM, for an array x < 1;
    1 - m goes in as 2 root / (1 + root), free of the rounding of m.  The
    products root (1 + root) and (1 + root)^2, about -x, stay finite for
    every finite x, which covers each argument that _kernel_arg returns."""
    root = np.sqrt(1.0 - x)
    w = 1.0 + root
    k, dlog, _ = _k_dlog(x / (w * w), 2.0 * root / w)
    return _PREF / np.sqrt(w) * k, (0.25 + dlog / w) / (root * w)


def _check_c(c, minimum_excl: bool = False) -> np.ndarray:
    arr = check_real_array(c, "slice energy")
    ok = (arr > 0.0) if minimum_excl else (arr >= 0.0)
    if np.any(~(ok & (arr < np.inf))):
        kind = "positive" if minimum_excl else "nonnegative"
        raise DomainError(f"slice energy must be finite and {kind}")
    return arr


def _kernel_arg(eps: float, c, sel: OscillatorSelector):
    """x = -+8 (eps c) of the selected factor at slice energies c, the period
    kernel's argument; DomainError unless the soft x < 1 and the stiff x is finite."""
    # a finite c can overflow 8 (eps c) only where eps > 1/8, and an infinite
    # one meet 0 * inf only at eps = 0: only there need numpy's warnings be quiet
    if 0.0 < eps <= 0.125:
        u = 8.0 * (eps * np.asarray(c, dtype=float))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            u = 8.0 * (eps * np.asarray(c, dtype=float))
    if check_selector(sel) is OscillatorSelector.MINUS:
        if not (u < 1.0).all():
            raise DomainError("soft oscillator requires 8*c*eps < 1 (separatrix energy)")
        return u
    if not np.isfinite(u).all():
        raise DomainError("the period kernel's argument 8*c*eps overflows the doubles")
    return -u


def turning_point(eps: float, c, sel: OscillatorSelector):
    """Positive amplitude where the oscillator of energy c has zero velocity.

    Solves eps z^4 + z^2 = 2c for the stiff factor and
    -eps z^4 + z^2 = 2c (inner root, inside the saddle) for the soft one:
    z = 2 sqrt(c/(1 + s)), s = sqrt(1 - x).  Where c/(1 + s) is subnormal,
    z = sqrt(c/(1/4 + s/4)) rounds 4c/(1 + s) once, as 2 sqrt() cannot.
    """
    eps = check_finite(eps, "field strength", positive=False)
    arr = _check_c(c, minimum_excl=True)
    s = np.sqrt(1.0 - _kernel_arg(eps, arr, sel))
    q = arr / (1.0 + s)
    low = np.sqrt(np.minimum(arr, 1.0) / (0.25 + 0.25 * s))  # min: no overflow where unused
    return _ret(np.where(q < sys.float_info.min, low, 2.0 * np.sqrt(q)), arr.ndim == 0)


def _tau(eps: float, c, sel: OscillatorSelector):
    """Period 2^{5/2} phi(x) of the selected factor at energy c >= 0."""
    eps = check_finite(eps, "field strength", positive=False)
    arr = _check_c(c)
    return _ret(_tau_lphi(_kernel_arg(eps, arr, sel))[0], arr.ndim == 0)


def tau1(eps: float, c):
    """Period of the stiff oscillator at energy c >= 0; 2*pi at c = 0."""
    return _tau(eps, c, OscillatorSelector.PLUS)


def tau2(eps: float, c):
    """Period of the bounded branch of the soft oscillator, 0 <= c < 1/(8 eps)."""
    return _tau(eps, c, OscillatorSelector.MINUS)


def period_oracle(eps: float, c: float, sel: OscillatorSelector) -> float:
    """Quarter-period time integral, times four, by double-exponential quadrature.

    After z = z_max sin(theta) the radicand factors exactly through the
    roots of the quartic, leaving (beta cos^2 theta + s sin^2 theta)^(-1/2)
    with beta = (1 + s)/2 for both factors.  tan theta = sinh v turns this
    into beta^(-1/2) int_0^inf dv / sqrt(1 + r sinh^2 v), r = s/beta in
    (0, 2), smooth even as s -> 0 at the separatrix and never below
    pi/(2 sqrt(2)), so the rule's relative tolerance is the integral's.
    The integrand lies in (0, 1] on the closed interval [0, V], whose ends
    the rule's outermost nodes reach.  The tail past V is below
    2 e^(-V)/sqrt(r), under 1e-17 of the integral for the V taken.
    """
    # imported by its one caller in the package, so only the oracle loads it
    from .quadrature import integrate

    eps = check_finite(eps, "field strength", positive=False)
    c = float(_check_c(check_real(c, "slice energy"), minimum_excl=True))
    s = math.sqrt(1.0 - _kernel_arg(eps, c, sel))
    r = 2.0 * s / (1.0 + s)
    v_max = math.log(4e17 / math.pi * math.sqrt(max(1.0 / r, 1.0)))

    def integrand(v):
        return (1.0 + r * np.sinh(v) ** 2) ** -0.5

    return 4.0 * integrate(integrand, 0.0, v_max) / math.sqrt(0.5 * (1.0 + s))
