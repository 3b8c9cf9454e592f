"""Double-exponential quadrature on finite intervals: the package's independent oracle.

The trapezoidal rule after the tanh-sinh substitution (Takahashi & Mori,
Publ. RIMS 9, 1974; Trefethen & Weideman, SIAM Review 56, 2014): on
[-1, 1] the nodes are x = tanh(pi/2 sinh t) with weights
w = (pi/2) cosh t / cosh^2(pi/2 sinh t), for t on a grid of step h over
|t| <= _T, where the weights fall below 3e-17.  For an integrand
analytic near [a, b] the error falls like exp(-c/h), so halving h about
doubles the correct digits.  Each level halves h and adds only the new
nodes, in one call of the integrand on an array; integrands must act
elementwise.  The outermost nodes round onto a and b, so the integrand
must be finite on the closed interval.

This is the only module that knows the rule, and its constants are fixed.
No production path integrates numerically: the periods, actions and
elliptic integrals have closed forms, and ``integrate`` stands only
behind their oracles (``periods.period_oracle`` and the tests).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, NumericsError
from .stark_model import check_real

__all__ = ["integrate"]

_T = 3.3
_LEVELS = 12
_REL = 1e-13


def integrate(f: Callable, a: float, b: float) -> float:
    """Integrate a vectorized callable over [a, b].

    Stops at the first level k >= 3 (step 2^-k) whose estimate moved by at
    most 1e-13 times the same rule's integral of |f|, and raises
    NumericsError after the last level otherwise; a NaN never meets the
    test.  The rule does not refine around interior kinks or jumps.
    """
    a, b = check_real(a, "integration limit"), check_real(b, "integration limit")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration limits must be finite")
    if b < a:
        return -integrate(f, b, a)
    if a == b:
        return 0.0
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    total = magnitude = 0.0
    previous = math.nan
    for k in range(_LEVELS):
        h = 2.0**-k
        n = math.floor(_T / h)
        j = np.arange(-n, n + 1)
        t = h * (j if k == 0 else j[j % 2 == 1])
        u = 0.5 * np.pi * np.sinh(t)
        w = 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
        y = w * np.asarray(f(np.clip(mid + half * np.tanh(u), a, b)), dtype=float)
        total += np.sum(y)
        magnitude += np.sum(np.abs(y))
        estimate = h * half * total
        moved = abs(estimate - previous)
        if k >= 3 and moved <= _REL * h * half * magnitude:
            return float(estimate)
        previous = estimate
    raise NumericsError(f"quadrature estimate still moved by {moved:.3e} after {_LEVELS} levels")
