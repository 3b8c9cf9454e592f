"""Moment-map image of the bounded regularized energy surface.

The action variables are the primitives of the two period functions,
T1(c) = int_0^c tau1 and T2(c) = int_0^c tau2.  Slicing the bounded zero
level set by the soft-factor energy c in [0, 2] maps it onto the curve

    { (T1(2 - c), T2(c)) : c in [0, 2] }

in the closed first quadrant, which is the graph of a strictly
decreasing function f with

    f'(T1(2 - c))  = -tau2(c) / tau1(2 - c),
    f''(T1(2 - c)) = tau2(c) / tau1(2 - c)^2
                     * 8 eps * (lphi(8 eps c) - lphi(8 eps c - 16 eps)),

where lphi is the logarithmic derivative of the period kernel.  Since
lphi is strictly increasing, f'' > 0 for every field strength below
1/16: the region under the graph is a concave toric domain.
``verify_convexity`` turns that statement into a numerical certificate,
evaluating f'' on a grid and cross-checking it against finite
differences of the sampled curve itself.

The actions are integrated at the default quadrature tolerances, which
the certificate records; how a panel is integrated is left to
``quadrature``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.exceptions import RankWarning
# polyfit's gelsd kernel, stackable unlike np.linalg.lstsq; bit-identity tests guard it
from numpy.linalg._umath_linalg import lstsq as _stacked_lstsq

from .errors import DomainError, ProfileInvariantError
from .periods import OscillatorSelector, check_selector, log_phi_d1, tau1, tau2
from .quadrature import DEFAULT_QUADRATURE, integrate, integrate_panels
from .stark_model import check_toric

__all__ = [
    "MomentImagePoint",
    "ToricProfile",
    "ConvexityCertificate",
    "CERTIFICATE_SCHEMA",
    "action_T",
    "moment_image",
    "profile_slope",
    "profile_second_derivative",
    "profile_sample",
    "verify_convexity",
]

CERTIFICATE_SCHEMA = 1
_X_SEPARATION = 1e-12
_FD_HALF_WIDTH = 2  # five-point local fit for the cross-check
_FD_GATE = 1e-3  # two-stencil agreement marking a sample as resolvable


@dataclass(frozen=True)
class MomentImagePoint:
    """One point of the moment-map image, tagged with its slice energy."""

    c: float
    x: float  # T1(2 - c)
    y: float  # T2(c)


@dataclass
class ToricProfile:
    """Sampled graph of the profile function, ordered by increasing x."""

    eps: float
    cs: np.ndarray  # slice energies, decreasing
    xs: np.ndarray  # T1(2 - c)
    ys: np.ndarray  # T2(c)
    slopes: np.ndarray
    second_derivs: np.ndarray


@dataclass
class ConvexityCertificate:
    """Outcome of the convexity check of the profile function."""

    eps: float
    c_grid: list[float]
    min_f_second: float
    max_fd_residual: float
    verdict: str  # "pass" or "fail"
    fd_tol: float
    fd_checked: int  # samples whose finite-difference estimate passed the gate
    fd_total: int  # interior samples eligible for the cross-check
    schema: int = field(default=CERTIFICATE_SCHEMA)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "eps": self.eps,
            "samples": len(self.c_grid),
            "fd_tol": self.fd_tol,
            "fd_checked": self.fd_checked,
            "fd_total": self.fd_total,
            "quad_abs_tol": DEFAULT_QUADRATURE.abs_tol,
            "quad_rel_tol": DEFAULT_QUADRATURE.rel_tol,
            "min_f_second": self.min_f_second,
            "max_fd_residual": self.max_fd_residual
            if np.isfinite(self.max_fd_residual)
            else None,
            "verdict": self.verdict,
            "c_grid": self.c_grid,
        }


def _check_slice(c: float) -> float:
    c = float(c)
    if not (0.0 <= c <= 2.0):
        raise DomainError("slice energy must lie in [0, 2] for the bounded surface")
    return c


def action_T(eps: float, c: float, sel: OscillatorSelector) -> float:
    """Action primitive int_0^c tau(b) db of the selected oscillator."""
    eps = check_toric(eps)
    c = _check_slice(c)
    period = tau1 if check_selector(sel) is OscillatorSelector.PLUS else tau2
    if c == 0.0:
        return 0.0
    return integrate(lambda b: period(eps, b), 0.0, c)


def moment_image(eps: float, c: float) -> MomentImagePoint:
    """Image point (T1(2-c), T2(c)) of the slice labelled by c."""
    eps = check_toric(eps)
    c = _check_slice(c)
    return MomentImagePoint(
        c=c,
        x=action_T(eps, 2.0 - c, OscillatorSelector.PLUS),
        y=action_T(eps, c, OscillatorSelector.MINUS),
    )


def profile_slope(eps: float, c):
    """f' at x = T1(2-c): the negative period ratio -tau2(c)/tau1(2-c)."""
    eps = check_toric(eps)
    arr = np.asarray(c, dtype=float)
    if np.any((arr < 0.0) | (arr > 2.0)):
        raise DomainError("slice energy must lie in [0, 2]")
    out = -np.asarray(tau2(eps, arr)) / np.asarray(tau1(eps, 2.0 - arr))
    return float(out) if arr.ndim == 0 else out


def profile_second_derivative(eps: float, c):
    """f'' at x = T1(2-c); strictly positive below the critical field strength.

    The logarithmic derivatives of the periods reduce to the increasing
    kernel derivative: (ln tau2)'(c) + (ln tau1)'(2-c) =
    8 eps (lphi(8 eps c) - lphi(8 eps c - 16 eps)) > 0.
    """
    eps = check_toric(eps)
    arr = np.asarray(c, dtype=float)
    if np.any((arr < 0.0) | (arr > 2.0)):
        raise DomainError("slice energy must lie in [0, 2]")
    t2 = np.asarray(tau2(eps, arr))
    t1 = np.asarray(tau1(eps, 2.0 - arr))
    bracket = 8.0 * eps * (
        np.asarray(log_phi_d1(8.0 * eps * arr))
        - np.asarray(log_phi_d1(8.0 * eps * arr - 16.0 * eps))
    )
    out = t2 / (t1 * t1) * bracket
    return float(out) if arr.ndim == 0 else out


def profile_sample(eps: float, n: int) -> ToricProfile:
    """Sample the moment-map image on a uniform slice grid of n points.

    Actions are accumulated panel by panel along the grid (both period
    functions are smooth on [0, 2] in the admissible regime, so each
    panel converges at high order); ``integrate_panels`` evaluates the
    panels in blocks and raises ToleranceNotMet if it cannot refine one.
    Samples come out sorted by increasing x, i.e. decreasing c, and the
    single-valued strictly decreasing graph invariants are enforced.
    """
    eps = check_toric(eps)
    n = int(n)
    if n < 2:
        raise DomainError("a profile needs at least the two axis endpoints")
    grid = np.linspace(0.0, 2.0, n)  # ascending in the tau argument

    def action(period):
        increments = integrate_panels(lambda b: period(eps, b), grid)
        return np.concatenate([[0.0], np.cumsum(increments)])

    # sample i has c = 2 - grid[i], x = T1(grid[i]), y = T2(2 - grid[i])
    cs = 2.0 - grid
    xs = action(tau1)
    ys = action(tau2)[::-1]

    if np.any(np.diff(xs) <= _X_SEPARATION):
        raise ProfileInvariantError("profile abscissae are not strictly increasing")
    if np.any(np.diff(ys) >= 0.0):
        raise ProfileInvariantError("profile ordinates are not strictly decreasing")

    slopes = profile_slope(eps, cs)
    second = profile_second_derivative(eps, cs)
    return ToricProfile(eps=eps, cs=cs, xs=xs, ys=ys, slopes=slopes, second_derivs=second)


def _stencil_second(
    xs: np.ndarray, ys: np.ndarray, centers: np.ndarray, hw: int
) -> np.ndarray:
    """Second derivative at each xs[centers] from an interpolating fit
    through the 2*hw+1 surrounding samples.

    Every stencil is set up as ``polyfit`` sets it up (scaled coordinates,
    Vandermonde columns scaled to unit norm, rcond = (deg+1) * eps), and all
    of them go through one stacked least-squares solve.
    """
    deg = 2 * hw
    idx = centers[:, None] + np.arange(-hw, hw + 1)
    t = xs[idx] - xs[centers, None]
    scale = np.max(np.abs(t), axis=1)
    lhs = np.polynomial.polynomial.polyvander(t / scale[:, None], deg)
    scl = np.sqrt(np.square(lhs).sum(axis=1))
    scl[scl == 0] = 1
    lhs /= scl[:, None, :]
    with np.errstate(call=_raise_lstsq_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        coef, _, rank, _ = _stacked_lstsq(
            lhs, ys[idx, None], (deg + 1) * np.finfo(float).eps,
            signature="ddd->ddid",
        )
    if np.any(rank != deg + 1):
        warnings.warn("The fit may be poorly conditioned", RankWarning, stacklevel=3)
    coef = coef[:, :, 0] / scl
    # scalar powers, as a per-sample fit takes them: numpy's array square
    # can differ from them in the last bit
    return 2.0 * coef[:, 2] / np.array([v**2 for v in scale])


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def verify_convexity(eps: float, n: int, tol: float = 1e-4) -> ConvexityCertificate:
    """Certificate that the sampled profile is strictly convex.

    Evaluates f'' on the grid and cross-checks interior values against
    finite differences of the sampled (x, y) curve itself.  A sample
    enters the cross-check only where the data resolves the curve:
    quadratic and quartic local fits must agree to 0.1%.  (Near the
    critical field strength the soft period has a branch point within
    one grid spacing of the c = 2 endpoint, where no stencil converges;
    the gate never consults the analytic value, so it cannot mask a
    wrong formula anywhere the data does resolve.)  Excluded samples
    show up as fd_total - fd_checked.

    Passes iff min f'' > 0 and the worst resolvable relative mismatch
    stays within tol.  When no sample is resolvable (e.g. a handful of
    samples over the whole slice range) the cross-check is vacuous, the
    residual is reported as nan, and the pointwise formula decides.
    """
    eps = check_toric(eps)
    if not (tol > 0.0):
        raise DomainError("certificate tolerance must be positive")
    profile = profile_sample(eps, n)
    xs, ys = profile.xs, profile.ys
    second = profile.second_derivs
    min_f_second = float(np.min(second))

    hw = _FD_HALF_WIDTH
    centers = np.arange(hw, len(xs) - hw)
    fd_hi = _stencil_second(xs, ys, centers, hw)
    fd_lo = _stencil_second(xs, ys, centers, 1)
    # a NaN estimate counts as resolved, and its NaN residual is skipped
    resolved = ~(np.abs(fd_hi - fd_lo) > _FD_GATE * np.abs(fd_hi))
    checked = int(np.count_nonzero(resolved))
    second_c = second[centers][resolved]
    resid = np.abs(fd_hi[resolved] - second_c) / np.abs(second_c)
    max_resid = np.max(resid, initial=-np.inf, where=~np.isnan(resid))
    if checked == 0:
        max_resid = np.nan

    verdict = (
        "pass"
        if min_f_second > 0.0 and (checked == 0 or max_resid <= tol)
        else "fail"
    )
    return ConvexityCertificate(
        eps=eps,
        c_grid=profile.cs.tolist(),
        min_f_second=min_f_second,
        max_fd_residual=float(max_resid),
        verdict=verdict,
        fd_tol=float(tol),
        fd_checked=checked,
        fd_total=len(centers),
    )
