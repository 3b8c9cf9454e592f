"""Levi-Civita regularization of the planar Stark problem.

The squaring map z -> z^2/2 on the configuration plane (complex notation;
this is exactly parabolic coordinates) lifts to the two-to-one
symplectomorphism

    L(z, w) = (z^2/2, w / conj(z)).

Multiplying the shifted pulled-back Hamiltonian by |z|^2 produces a
polynomial energy

    E(z, w) = e1(z1, w1) + e2(z2, w2) - 2,
    e1 = w1^2/2 + z1^2/2 + (eps/2) z1^4,
    e2 = w2^2/2 + z2^2/2 - (eps/2) z2^4,

smooth across z = 0: collisions are regularized, and the problem
separates into two independent quartic oscillators (e1 stiff, e2 soft
with saddles at z2 = +-1/sqrt(2 eps) of energy 1/(8 eps)).  On the zero
level set of E the two flows agree up to the time change ds = dt/|z|^2.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .stark_model import PlanarState, check_finite, check_pair, check_state

__all__ = [
    "RegularizedState",
    "EnergySplit",
    "lc_base",
    "lc_lift",
    "regularized_energy",
    "energy_split",
    "conformal_factor",
]


class RegularizedState:
    """Point (z, w) of the regularized phase space; z = 0 is allowed."""

    __slots__ = ("z", "w")

    def __init__(self, z, w) -> None:
        self.z = check_pair(z, "z")
        self.w = check_pair(w, "w")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(z={self.z!r}, w={self.w!r})"


class EnergySplit(NamedTuple):
    """Oscillator energies of the two separated factors."""

    e1: float
    e2: float


def lc_base(z) -> np.ndarray:
    """Configuration map z -> z^2/2, i.e. ((z1^2 - z2^2)/2, z1 z2)."""
    z1, z2 = check_pair(z, "z").tolist()  # Python floats overflow to inf without a warning
    return np.array([0.5 * (z1 * z1 - z2 * z2), z1 * z2])


def _lift(z1, z2, w1, w2):
    """(q1, q2, p1, p2) of the cotangent lift, elementwise over scalars or arrays."""
    r2 = z1 * z1 + z2 * z2
    if np.any(r2 == 0.0):
        raise DomainError("the fiber over z = 0 has no unregularized image")
    # w / conj(z) = (w * z) / |z|^2 written over real pairs
    return (
        0.5 * (z1 * z1 - z2 * z2),
        z1 * z2,
        (w1 * z1 - w2 * z2) / r2,
        (w1 * z2 + w2 * z1) / r2,
    )


def lc_lift(state: RegularizedState) -> PlanarState:
    """Cotangent lift (z, w) -> (z^2/2, w/conj(z)); undefined on the fiber z = 0."""
    q1, q2, p1, p2 = _lift(*check_state(state, RegularizedState).z.tolist(), *state.w.tolist())
    return PlanarState(q=(q1, q2), p=(p1, p2))


def _factor_energy(z, w, s):
    """Energy w^2/2 + z^2/2 + s z^4/2 of the factor z'' = -z - 2 s z^3, elementwise.

    s is +-eps itself, so every finite eps has a finite s.  np.float_power
    rounds z^4 by C pow, as Python's float ** does (np.power's SIMD loop may
    not).  Where z^4 is no normal double, the potential is z^2/2 (1 + s z^2): finite
    wherever the energy is, inf silently past it, and s z^4 kept where z^4 underflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z4 = np.float_power(z, 4)
        e = 0.5 * w * w + 0.5 * z * z + 0.5 * s * z4
        normal = (z4 >= 2.0**-1022) & (z4 < np.inf)  # the least normal double
        if normal.all():
            return e
        factored = 0.5 * w * w + 0.5 * z * (z * (1.0 + s * z * z))
        return np.where(normal, e, factored)


def _total_energy(eps: float, z1, z2, w1, w2):
    """E = e1 + e2 - 2 from the two factor energies, elementwise."""
    return _factor_energy(z1, w1, eps) + _factor_energy(z2, w2, -eps) - 2.0


def energy_split(state: RegularizedState, eps: float) -> EnergySplit:
    """Energies of the stiff (e1) and soft (e2) quartic oscillator factors."""
    s = np.array([1.0, -1.0]) * check_finite(eps, "field strength", positive=False)
    return EnergySplit(*_factor_energy(check_state(state, RegularizedState).z, state.w, s).tolist())


def regularized_energy(state: RegularizedState, eps: float) -> float:
    """E(z, w) = e1 + e2 - 2, defined on all of phase space.

    Away from z = 0 it equals |z|^2 * (H(L(z, w)) + 1/2), so its zero
    level set is the regularized energy -1/2 surface.  Factor energies that
    overflow with opposite signs have no sum: DomainError.
    """
    e = sum(energy_split(state, eps)) - 2.0
    if np.isnan(e):
        raise DomainError("the factor energies overflow the doubles with opposite signs")
    return e


def conformal_factor(state: RegularizedState) -> float:
    """|z|^2, the time-change factor between regularized and physical time."""
    z1, z2 = check_state(state, RegularizedState).z.tolist()
    return z1 * z1 + z2 * z2
