"""Unregularized planar Stark problem.

An electron attracted by a proton at the origin inside a constant
electric field of strength eps pointing along the first axis:

    V(q) = -1/|q| + eps*q1,      H(q, p) = |p|^2/2 + V(q).

Energies are normalized to -1/2 (the general case is reached through the
rescaling symmetry ``rescale_state``).  The potential has a single saddle
at (-1/sqrt(eps), 0) with critical value -2*sqrt(eps); for
0 < eps < 1/16 the accessible region {V <= -1/2} splits into a bounded
oval around the origin and an unbounded tail behind the saddle.  In the
Levi-Civita coordinates q = z^2/2 one has |q| - q1 = z2^2, and the stiff
factor's potential is nonnegative, so an accessible point keeps the soft
factor's potential (z2^2 - eps z2^4)/2 at most 2.  That fails between its
two roots in z2^2, which splits the two parts.  Hence ``hill_classify``
and ``hill_grid`` decide membership by a closed form: an accessible point is
bounded iff |q| - q1 <= 8/(1 + sqrt(1 - 16 eps)), the inner root.  The flood
fill behind ``HillGrid.labels`` and ``hill_component_count`` stays as an
independent check of that split.  It is an in-package run-length labeller
(4-connectivity); SciPy's ``ndimage.label`` is its oracle in the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, RegimeError

__all__ = [
    "TORIC_LIMIT",
    "PlanarState",
    "HillClass",
    "HillGrid",
    "potential",
    "hamiltonian",
    "critical_point",
    "critical_value",
    "rescale_state",
    "hill_classify",
    "hill_grid",
    "hill_component_count",
]

TORIC_LIMIT = 1.0 / 16.0


def check_field_strength(eps: float, positive: bool = False) -> float:
    eps = float(eps)
    if not np.isfinite(eps) or eps < 0.0 or (positive and eps == 0.0):
        bound = "positive" if positive else "nonnegative"
        raise DomainError(f"field strength must be a finite {bound} number, got {eps}")
    return eps


def check_toric(eps: float) -> float:
    eps = check_field_strength(eps, positive=True)
    if eps >= TORIC_LIMIT:
        raise RegimeError(
            f"field strength {eps} is not below 1/16; the accessible region "
            "no longer has a bounded component"
        )
    return eps


@dataclass
class PlanarState:
    """Phase-space point (q, p) with the origin excluded from configuration."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float).reshape(2)
        self.p = np.asarray(self.p, dtype=float).reshape(2)
        if not (np.isfinite(self.q).all() and np.isfinite(self.p).all()):
            raise DomainError("planar state must be finite")
        if np.hypot(*self.q) == 0.0:
            raise DomainError("planar state cannot sit at the collision point q = 0")


class HillClass(enum.Enum):
    BOUNDED = "B"
    UNBOUNDED = "U"
    FORBIDDEN = "F"
    COLLISION_LOCUS = "C"


def potential(q, eps: float) -> float:
    """-1/|q| + eps*q1; undefined at the origin."""
    eps = check_field_strength(eps)
    q = np.asarray(q, dtype=float).reshape(2)
    r = np.hypot(q[0], q[1])
    if r == 0.0:
        raise DomainError("potential is singular at q = 0")
    return -1.0 / r + eps * q[0]


def hamiltonian(state: PlanarState, eps: float) -> float:
    """Kinetic energy plus potential."""
    return 0.5 * float(state.p @ state.p) + potential(state.q, eps)


def critical_point(eps: float) -> PlanarState:
    """The unique equilibrium: saddle of V at (-1/sqrt(eps), 0), rest momentum."""
    eps = check_field_strength(eps, positive=True)
    return PlanarState(q=(-1.0 / np.sqrt(eps), 0.0), p=(0.0, 0.0))


def critical_value(eps: float) -> float:
    """Energy of the unique equilibrium, -2*sqrt(eps)."""
    eps = check_field_strength(eps, positive=True)
    return -2.0 * np.sqrt(eps)


def rescale_state(a: float, state: PlanarState) -> PlanarState:
    """Symmetry (q, p) -> (a q, p/sqrt(a)).

    Pulls the Hamiltonian back as H_eps(a q, p/sqrt(a)) =
    (1/a) H_{a^2 eps}(q, p), trading field strength against energy.
    """
    a = float(a)
    if not (a > 0.0) or not np.isfinite(a):
        raise DomainError("rescaling factor must be positive and finite")
    return PlanarState(q=a * state.q, p=state.p / np.sqrt(a))


# --- Hill region ---------------------------------------------------------


@dataclass
class HillGrid:
    """Classified grid of the accessible set inside the disk |q| <= radius,
    with flood-fill component labels as an independent check."""

    eps: float
    radius: float
    centers: np.ndarray  # cell-center coordinates along one axis
    allowed: np.ndarray  # (n, n) bool, indexed [i_q1, i_q2]
    bounded: np.ndarray  # (n, n) bool, allowed cells of the bounded component
    labels: np.ndarray  # (n, n) int component labels, 0 = not allowed
    n_components: int

    @property
    def step(self) -> float:
        return self.centers[1] - self.centers[0]


def _allowed_mask(q1: np.ndarray, q2: np.ndarray, eps: float) -> np.ndarray:
    r = np.hypot(q1, q2)
    with np.errstate(divide="ignore"):
        v = -1.0 / r + eps * q1
    return v <= -0.5


def _bounded_mask(q1: np.ndarray, q2: np.ndarray, eps: float, accessible) -> np.ndarray:
    """Accessible points inside the soft well's inner root z2^2 = |q| - q1."""
    return accessible & (np.hypot(q1, q2) - q1 <= 8.0 / (1.0 + np.sqrt(1.0 - 16.0 * eps)))


def analysis_radius(eps: float) -> float:
    """Disk radius large enough to contain both accessible components.

    The bounded component stays within |q| <= 6 for every eps below 1/16;
    the unbounded one reaches in to q1 = -(1 + sqrt(1 - 16 eps))/(4 eps),
    which is within 1/(2 eps) of the origin.
    """
    return 0.5 / eps + 4.0 / np.sqrt(eps)


def _label_runs(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of a 2-D boolean mask: int32 labels (0 off the
    mask) numbered by first appearance in raster order, and their count.

    Run-based two-pass labelling (Rosenfeld & Pfaltz, J. ACM 13, 1966) with
    a union-find over runs (Wu, Otoo & Suzuki, Pattern Anal. Appl. 12, 2009).
    """
    rows, cols = mask.shape
    width = cols + 1  # a False cell closes every row's last run
    flat = np.zeros(rows * width + 1, dtype=bool)
    flat[1:].reshape(rows, width)[:, :cols] = mask
    # run starts and (exclusive) ends alternate, as flat indices row*width + col
    edges = np.flatnonzero(np.diff(flat))
    starts, ends = edges[0::2], edges[1::2]
    # the runs of the row above that overlap a run are a range [lo, hi)
    lo = np.searchsorted(ends, starts - width, side="right").tolist()
    hi = np.searchsorted(starts, ends - width, side="left").tolist()
    parent = list(range(len(starts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i

    for b in range(len(parent)):
        for a in range(lo[b], hi[b]):
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)  # a root is its first run
    roots = np.array([find(i) for i in range(len(parent))], dtype=np.intp)
    firsts, run_labels = np.unique(roots, return_inverse=True)
    labels = np.zeros(rows * width, dtype=np.int32)
    labels[starts] = run_labels + 1
    labels[ends] = -(run_labels + 1)
    np.cumsum(labels, dtype=np.int32, out=labels)
    return labels.reshape(rows, width)[:, :cols], len(firsts)


def hill_grid(eps: float, resolution: int) -> HillGrid:
    """Classify and flood-fill the accessible set on a resolution^2 grid over
    the analysis disk."""
    eps = check_toric(eps)
    n = int(resolution)
    if n < 8:
        raise DomainError("hill grid resolution must be at least 8")
    radius = analysis_radius(eps)
    centers = (np.arange(n) + 0.5) * (2.0 * radius / n) - radius
    q1 = centers[:, None]
    q2 = centers[None, :]
    allowed = _allowed_mask(q1, q2, eps) & (np.hypot(q1, q2) <= radius)
    bounded = _bounded_mask(q1, q2, eps, allowed)
    labels, n_components = _label_runs(allowed)
    return HillGrid(eps, radius, centers, allowed, bounded, labels, n_components)


def hill_component_count(eps: float, resolution: int | None = None) -> int:
    """Number of connected components of {V <= -1/2} seen by the flood fill.

    Without a resolution, the grid is refined until the count reads two at
    two successive resolutions.
    """
    if resolution is not None:
        return hill_grid(eps, resolution).n_components
    prev_two = False
    for n in (256, 512, 1024, 2048, 4096):
        two = hill_grid(eps, n).n_components == 2
        if two and prev_two:
            return 2
        prev_two = two
    raise NumericsError(
        f"accessible-set component count did not stabilize at two for eps={eps}"
    )


def hill_classify(q, eps: float) -> HillClass:
    """Classify a configuration point against the energy -1/2 shadow.

    FORBIDDEN where V > -1/2, COLLISION_LOCUS at the origin (it adjoins the
    bounded component in the regularized picture), otherwise BOUNDED or
    UNBOUNDED according to the closed-form rule of the module docstring.
    """
    eps = check_toric(eps)
    q = np.asarray(q, dtype=float).reshape(2)
    if not np.all(np.isfinite(q)):
        raise DomainError(f"configuration point must be finite, got {q.tolist()}")
    if np.hypot(q[0], q[1]) == 0.0:
        return HillClass.COLLISION_LOCUS
    if potential(q, eps) > -0.5:
        return HillClass.FORBIDDEN
    return HillClass.BOUNDED if _bounded_mask(q[0], q[1], eps, True) else HillClass.UNBOUNDED
