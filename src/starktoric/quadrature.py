"""Adaptive quadrature on finite intervals: the package's independent oracle.

Gauss-Kronrod-style scheme: every panel is estimated with an embedded
Gauss-Legendre pair (10 and 21 points), the difference serving as the
error estimate, and the panel with the largest estimate is bisected until
the summed estimate meets the tolerance.  Integrands must accept numpy
arrays of any shape and act elementwise: one call evaluates all nodes of
a panel.

This is the only module that knows the panel rule, and its tolerances
are fixed.  No production path integrates numerically: the periods,
actions and elliptic integrals have closed forms, and ``integrate``
stands only behind their oracles (``periods.period_oracle`` and the
tests).
"""

from __future__ import annotations

import heapq
from functools import cache
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceNotMet

__all__ = ["integrate"]

_LOW_ORDER = 10
_HIGH_ORDER = 21
_ABS_TOL = 1e-11
_REL_TOL = 1e-11
_MAX_REFINEMENTS = 30
_MAX_PANELS = 20_000


def _unmet(err, value):
    """Whether an error estimate misses max(_ABS_TOL, _REL_TOL * |value|).

    Written as two comparisons so it costs no numpy call on Python floats.
    """
    return (err > _ABS_TOL) & (err > _REL_TOL * abs(value))


@cache
def _rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of both Gauss rules, low order first, and their two weight sets.

    Built on first use: numpy.polynomial costs import time otherwise.
    """
    x_lo, w_lo = np.polynomial.legendre.leggauss(_LOW_ORDER)
    x_hi, w_hi = np.polynomial.legendre.leggauss(_HIGH_ORDER)
    return np.concatenate([x_lo, x_hi]), w_lo, w_hi


def _estimates(f: Callable, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss pair (value, error estimate) of every panel [a[i], b[i]].

    One integrand call on the (panels x nodes) array of all the nodes.
    """
    nodes, w_lo, w_hi = _rule()
    half = 0.5 * (b - a)
    y = np.asarray(f((0.5 * (a + b))[:, None] + half[:, None] * nodes), dtype=float)
    i_lo = half * np.vecdot(w_lo, y[:, :_LOW_ORDER])
    i_hi = half * np.vecdot(w_hi, y[:, _LOW_ORDER:])
    return i_hi, np.abs(i_hi - i_lo)


def integrate(f: Callable, a: float, b: float) -> float:
    """Integrate a vectorized callable over [a, b].

    Raises ToleranceNotMet when the refinement budget is exhausted before
    the combined error estimate drops below max(1e-11, 1e-11 * |I|).
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integration limits must be finite")
    if b < a:
        return -integrate(f, b, a)
    if a == b:
        return 0.0

    def estimate(pa, pb):
        value, err = _estimates(f, np.array([pa]), np.array([pb]))
        return float(value[0]), float(err[0])

    value, err = estimate(a, b)
    # heap entries: (-err, tiebreak, a, b, value, depth)
    heap = [(-err, 0, a, b, value, 0)]
    total = value
    total_err = err
    counter = 1
    while _unmet(total_err, total):
        neg_err, _, pa, pb, pval, depth = heapq.heappop(heap)
        if depth >= _MAX_REFINEMENTS:
            raise ToleranceNotMet(
                f"quadrature error {total_err:.3e} above tolerance after "
                f"{_MAX_REFINEMENTS} refinement levels"
            )
        if len(heap) >= _MAX_PANELS:
            raise ToleranceNotMet("quadrature panel budget exhausted")
        mid = 0.5 * (pa + pb)
        left_val, left_err = estimate(pa, mid)
        right_val, right_err = estimate(mid, pb)
        total += left_val + right_val - pval
        total_err += left_err + right_err + neg_err  # neg_err = -parent error
        heapq.heappush(heap, (-left_err, counter, pa, mid, left_val, depth + 1))
        heapq.heappush(heap, (-right_err, counter + 1, mid, pb, right_val, depth + 1))
        counter += 2
    return total

