"""Adaptive quadrature on finite intervals: the package's independent oracle.

Gauss-Kronrod-style scheme: every panel is estimated with an embedded
Gauss-Legendre pair (10 and 21 points), the difference serving as the
error estimate, and the panel with the largest estimate is bisected until
the summed estimate meets the tolerance.  Integrands must accept numpy
arrays of any shape and act elementwise: one call evaluates all nodes of
a panel.

This is the only module that knows the panel rule or takes a
``QuadratureSpec``.  No production path integrates numerically: the
periods and actions have closed forms, and ``integrate`` stands behind
their oracles (``periods.period_oracle``, the ``elliptic`` oracles and
the tests of the actions).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceNotMet

__all__ = ["QuadratureSpec", "DEFAULT_QUADRATURE", "integrate"]

_LOW_ORDER = 10
_HIGH_ORDER = 21
_MAX_PANELS = 20_000


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and refinement budget for adaptive integration."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_refinements: int = 30

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be strictly positive")
        if self.max_refinements < 1:
            raise DomainError("max_refinements must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def _unmet(spec: QuadratureSpec, err, value):
    """Whether an error estimate misses max(abs_tol, rel_tol * |value|).

    Written as two comparisons so it costs no numpy call on Python floats.
    """
    return (err > spec.abs_tol) & (err > spec.rel_tol * abs(value))


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


def integrate(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate a vectorized callable over [a, b] to the spec tolerances.

    Raises ToleranceNotMet when the refinement budget is exhausted before
    the combined error estimate drops below max(abs_tol, rel_tol * |I|).
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integration limits must be finite")
    if b < a:
        return -integrate(f, b, a, spec)
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
    while _unmet(spec, total_err, total):
        neg_err, _, pa, pb, pval, depth = heapq.heappop(heap)
        if depth >= spec.max_refinements:
            raise ToleranceNotMet(
                f"quadrature error {total_err:.3e} above tolerance after "
                f"{spec.max_refinements} refinement levels"
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

