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
bounded iff |q| - q1 <= 8/(1 + sqrt(1 - 16 eps)), the inner root.  The same
split gives the component count: two without a raster, and on a raster one
per class that has a cell, less one where a bounded cell is 4-adjacent to an
unbounded one (the saddle neck narrower than a cell).  Nothing here labels
components; SciPy's flood fill ``ndimage.label`` checks the count in the
tests.
"""

from __future__ import annotations

import enum
import operator
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "TORIC_LIMIT",
    "PlanarState",
    "HillClass",
    "HillGrid",
    "potential",
    "hamiltonian",
    "rescale_state",
    "hill_classify",
    "hill_grid",
    "hill_component_count",
]

TORIC_LIMIT = 1.0 / 16.0
_MAX_RADIUS = 0.25 * np.finfo(float).max
# the most float64 elements a numpy array can index: a larger count is bad input,
# not a MemoryError
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def _floats(value, name: str, kind: str, shape=None):
    """The one conversion of an outside argument: ``value`` as a float if ``shape`` is
    (), else as a float array of ``shape`` (of any if None).  Text, None, a complex value
    and an integer beyond the doubles raise DomainError "``name`` must be ``kind``"."""
    if shape == () and isinstance(value, float):
        return float(value)
    try:
        arr = np.asarray(value)
        if arr.dtype.kind != "c":  # a cast would drop the imaginary part with only a warning
            # float() refuses None, which a cast takes for nan, and an int beyond the doubles
            if arr.dtype.kind == "O":
                arr = np.asarray(np.frompyfunc(float, 1, 1)(arr))
            arr = np.asarray(float(arr)) if arr.ndim == 0 else arr.astype(float, copy=False)
            if shape is None or arr.shape == shape:
                return float(arr) if shape == () else arr
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be {kind}, got {value!r}")


def check_real(value, name: str) -> float:
    """``value`` as one float, or DomainError naming ``name`` (a sequence is not one)."""
    return _floats(value, name, "a real number", ())


def check_finite(value, name: str, positive: bool = True) -> float:
    """``value`` as a finite float, positive (else nonnegative), or DomainError naming ``name``."""
    value = check_real(value, name)
    if not (0.0 < value < np.inf if positive else 0.0 <= value < np.inf):
        raise DomainError(f"{name} must be {'positive' if positive else 'nonnegative'} "
                          f"and finite, got {value!r}")
    return value


def check_real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array (0-d for a scalar), or DomainError naming ``name``."""
    return _floats(value, name, "a real number or real array")


def check_count(value, name: str, least: int) -> int:
    """``value`` as an integer of at least ``least``: a float is refused, not truncated."""
    try:
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise DomainError(f"{name} must be at least {least}")
    return n


def check_pair(value, name: str) -> np.ndarray:
    """``value`` as a finite float array of shape (2,), or DomainError naming ``name``."""
    pair = _floats(value, name, "a pair of numbers", (2,))
    if not np.isfinite(pair).all():
        raise DomainError(f"{name} must be a pair of finite numbers, got {value!r}")
    return pair


def check_state(value, kind: type):
    """``value`` if it is a ``kind`` (a state class), or DomainError."""
    if not isinstance(value, kind):
        raise DomainError(f"state must be a {kind.__name__}, got {value!r}")
    return value


def check_toric(eps: float) -> float:
    eps = check_finite(eps, "field strength")
    if eps >= TORIC_LIMIT:
        raise DomainError(
            f"field strength {eps} is not below 1/16; the accessible region "
            "no longer has a bounded component"
        )
    return eps


class PlanarState:
    """Phase-space point (q, p) with the origin excluded from configuration."""

    __slots__ = ("q", "p")

    def __init__(self, q, p) -> None:
        self.q = check_pair(q, "q")
        self.p = check_pair(p, "p")
        if np.hypot(*self.q) == 0.0:
            raise DomainError("planar state cannot sit at the collision point q = 0")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(q={self.q!r}, p={self.p!r})"


class HillClass(enum.Enum):
    BOUNDED = "B"
    UNBOUNDED = "U"
    FORBIDDEN = "F"
    COLLISION_LOCUS = "C"


def potential(q, eps: float) -> float:
    """-1/|q| + eps*q1; undefined at the origin."""
    eps = check_finite(eps, "field strength", positive=False)
    q1, q2 = check_pair(q, "q").tolist()  # Python floats overflow to inf without a warning
    with np.errstate(over="ignore"):  # and so does |q|
        r = float(np.hypot(q1, q2))
    if r == 0.0:
        raise DomainError("potential is singular at q = 0")
    return -1.0 / r + eps * q1


def hamiltonian(state: PlanarState, eps: float) -> float:
    """Kinetic energy plus potential."""
    with np.errstate(over="ignore"):  # |p|^2 overflows to inf, as the potential does
        return 0.5 * float(check_state(state, PlanarState).p @ state.p) + potential(state.q, eps)


def rescale_state(a: float, state: PlanarState) -> PlanarState:
    """Symmetry (q, p) -> (a q, p/sqrt(a)).

    Pulls the Hamiltonian back as H_eps(a q, p/sqrt(a)) =
    (1/a) H_{a^2 eps}(q, p), trading field strength against energy.
    """
    a, state = check_finite(a, "rescaling factor"), check_state(state, PlanarState)
    (q1, q2), (p1, p2), root = state.q.tolist(), state.p.tolist(), float(np.sqrt(a))
    return PlanarState(q=(a * q1, a * q2), p=(p1 / root, p2 / root))


# --- Hill region ---------------------------------------------------------


class HillGrid(NamedTuple):
    """Classified grid of the accessible set inside the disk |q| <= radius.

    Call the bounded cells B and the other allowed cells U.  ``unresolved``
    says that some B cell is 4-adjacent to some U cell, which is exactly
    when a raster path joins the two components, and ``n_components`` is
    [B nonempty] + [U nonempty] - [unresolved].
    """

    eps: float
    radius: float
    centers: np.ndarray  # cell-center coordinates along one axis
    allowed: np.ndarray  # (n, n) bool, indexed [i_q1, i_q2]
    bounded: np.ndarray  # (n, n) bool, allowed cells of the bounded component
    unresolved: bool
    n_components: int


def _allowed_mask(q1: np.ndarray, r: np.ndarray, eps: float) -> np.ndarray:
    """Points at distance r = |q| from the origin where V <= -1/2."""
    with np.errstate(divide="ignore"):
        v = np.divide(-1.0, r)
    v += eps * q1  # in place: one (n, n) temporary beside r, not two
    return v <= -0.5


def _bounded_mask(q1: np.ndarray, r: np.ndarray, eps: float, accessible) -> np.ndarray:
    """Accessible points inside the soft well's inner root z2^2 = r - q1, r = |q|."""
    return accessible & (r - q1 <= 8.0 / (1.0 + np.sqrt(1.0 - 16.0 * eps)))


def analysis_radius(eps: float) -> float:
    """Disk radius large enough to contain both accessible components.

    The bounded component stays within |q| <= 6 for every eps below 1/16;
    the unbounded one reaches in to q1 = -(1 + sqrt(1 - 16 eps))/(4 eps),
    which is within 1/(2 eps) of the origin.  Below eps of about 1e-308 the
    radius is capped at a quarter of the largest double, so that the grid's
    spans 2 radius and |q| - q1 stay finite.
    """
    return min(0.5 / eps + 4.0 / np.sqrt(eps), _MAX_RADIUS)


def _touch(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether some cell of the 2-D mask a is 4-adjacent to some cell of b."""
    return bool(
        (a[1:] & b[:-1]).any() or (a[:-1] & b[1:]).any()
        or (a[:, 1:] & b[:, :-1]).any() or (a[:, :-1] & b[:, 1:]).any()
    )


def hill_grid(eps: float, resolution: int) -> HillGrid:
    """Classify the accessible set on a resolution^2 grid over the analysis
    disk by the closed-form split, and count its components on the raster."""
    eps = check_toric(eps)
    n = check_count(resolution, "hill grid resolution", 8)
    if n * n > _MAX_FLOATS:
        raise DomainError(f"hill grid resolution {n} needs a larger grid than numpy can index")
    radius = analysis_radius(eps)
    centers = (np.arange(n) + 0.5) * (2.0 * radius / n) - radius
    q1 = centers[:, None]
    r = np.hypot(q1, centers[None, :])
    allowed = _allowed_mask(q1, r, eps) & (r <= radius)
    bounded = _bounded_mask(q1, r, eps, allowed)
    unbounded = allowed & ~bounded
    unresolved = _touch(bounded, unbounded)
    n_components = int(bounded.any()) + int(unbounded.any()) - int(unresolved)
    return HillGrid(eps, radius, centers, allowed, bounded, unresolved, n_components)


def hill_component_count(eps: float) -> int:
    """Number of connected components of {V <= -1/2}: the closed-form split,
    two for every eps in (0, 1/16).  A raster count is
    ``hill_grid(eps, n).n_components``.
    """
    check_toric(eps)
    return 2


def hill_classify(q, eps: float) -> HillClass:
    """Classify a configuration point against the energy -1/2 shadow.

    FORBIDDEN where V > -1/2, COLLISION_LOCUS at the origin (it adjoins the
    bounded component in the regularized picture), otherwise BOUNDED or
    UNBOUNDED according to the closed-form rule of the module docstring.
    """
    eps = check_toric(eps)
    q1, q2 = check_pair(q, "q").tolist()  # Python floats overflow to inf without a warning
    with np.errstate(over="ignore"):
        r = float(np.hypot(q1, q2))
    if r == 0.0:
        return HillClass.COLLISION_LOCUS
    if potential((q1, q2), eps) > -0.5:
        return HillClass.FORBIDDEN
    return HillClass.BOUNDED if _bounded_mask(q1, r, eps, True) else HillClass.UNBOUNDED
