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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .stark_model import PlanarState, check_field_strength

__all__ = [
    "RegularizedState",
    "EnergySplit",
    "lc_base",
    "lc_lift",
    "regularized_energy",
    "energy_split",
    "conformal_factor",
]


@dataclass
class RegularizedState:
    """Point (z, w) of the regularized phase space; z = 0 is allowed."""

    z: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=float).reshape(2)
        self.w = np.asarray(self.w, dtype=float).reshape(2)
        if not (np.isfinite(self.z).all() and np.isfinite(self.w).all()):
            raise DomainError("regularized state must be finite")


@dataclass(frozen=True)
class EnergySplit:
    """Oscillator energies of the two separated factors."""

    e1: float
    e2: float

    @property
    def total(self) -> float:
        return self.e1 + self.e2 - 2.0


def lc_base(z) -> np.ndarray:
    """Configuration map z -> z^2/2, i.e. ((z1^2 - z2^2)/2, z1 z2)."""
    z = np.asarray(z, dtype=float).reshape(2)
    return np.array([0.5 * (z[0] * z[0] - z[1] * z[1]), z[0] * z[1]])


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
    q1, q2, p1, p2 = _lift(*state.z, *state.w)
    return PlanarState(q=(q1, q2), p=(p1, p2))


def energy_split(state: RegularizedState, eps: float) -> EnergySplit:
    """Energies of the stiff (e1) and soft (e2) quartic oscillator factors."""
    eps = check_field_strength(eps)
    z, w = state.z, state.w
    e1 = 0.5 * w[0] * w[0] + 0.5 * z[0] * z[0] + 0.5 * eps * z[0] ** 4
    e2 = 0.5 * w[1] * w[1] + 0.5 * z[1] * z[1] - 0.5 * eps * z[1] ** 4
    return EnergySplit(float(e1), float(e2))


def regularized_energy(state: RegularizedState, eps: float) -> float:
    """E(z, w) = e1 + e2 - 2, defined on all of phase space.

    Away from z = 0 it equals |z|^2 * (H(L(z, w)) + 1/2), so its zero
    level set is the regularized energy -1/2 surface.
    """
    return energy_split(state, eps).total


def conformal_factor(state: RegularizedState) -> float:
    """|z|^2, the time-change factor between regularized and physical time."""
    z = state.z
    return float(z[0] * z[0] + z[1] * z[1])
