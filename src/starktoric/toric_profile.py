"""Moment-map image of the bounded regularized energy surface.

The action variables are the primitives of the two period functions,
T1(c) = int_0^c tau1 and T2(c) = int_0^c tau2.  Slicing the bounded zero
level set by the soft-factor energy c in [0, 2] maps it onto the curve

    { (T1(2 - c), T2(c)) : c in [0, 2] }

in the closed first quadrant, which is the graph of a strictly
decreasing function f with

    f'(T1(2 - c))  = -tau2(c) / tau1(2 - c),
    f''(T1(2 - c)) = tau2(c) / tau1(2 - c)^2
                     * 8 eps * (lphi(8 eps c) - lphi(-8 eps (2 - c))),

where lphi is the logarithmic derivative of the period kernel.  Since
lphi is strictly increasing, f'' > 0 for every field strength below
1/16: the region under the graph is a concave toric domain.
``verify_convexity`` turns that statement into a numerical certificate,
evaluating f'' on a grid and cross-checking it against finite
differences of the sampled curve itself.

The actions are closed forms: T(c) = 2 pi c 2F1(1/4, 3/4; 2; x) with
x = -8 eps c (stiff) or 8 eps c (soft) (DLMF 15.2), summed as a series
where |x| <= 1/4.  Elsewhere, integrating d/dx [x(1 - x) F'] = (3/16) F,
the equation of F = 2F1(1/4, 3/4; 1; x) (DLMF 15.10.1), once from 0 gives
2F1(1/4, 3/4; 2; x) = (16/3)(1 - x) F', so T = (16/3) c (1 - x) tau lphi
with tau = 2 pi F and lphi = F'/F.  Each action comes with its O(eps^2)
remainder T - 2 pi c (1 + 3x/32) to full relative precision, and the
cross-check differentiates only the remainders on the exact grid
s_i = 2i/(n-1), so it resolves f'' = O(eps^2) far below the rounding of
(x, y).

f' and f'' pair the stiff argument b = -8 eps (2 - c) with the soft one
a = 8 eps c, a - b = 16 eps.  Up to eps = 1/64 both lie in |x| <= 1/4,
and one Horner pass of the series D = F and N = F' at b, carrying the
divided differences dP = (P(a) - P(b))/(a - b), gives every period and
the bracket

    lphi(a) - lphi(b) = 16 eps (dN D(b) - N(b) dD) / (D(a) D(b))

with no AGM and nothing subtracted between nearby values, so f'' keeps
full precision down to eps ~ 1e-154, where f'' ~ 3.5 eps^2 leaves the
normal doubles.  Above 1/64 one AGM per argument gives (tau, lphi) and
the actions off the series, where the plain difference loses less than
a factor of four.  Every series stops at a degree fixed by eps alone,
so pointwise and sampled values keep the same bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericsError
from .periods import OscillatorSelector, _kernel_arg, _tau_lphi
from .stark_model import (_MAX_FLOATS, check_count, check_finite, check_real, check_real_array,
                          check_toric)

__all__ = [
    "MomentImagePoint",
    "ToricProfile",
    "ConvexityCertificate",
    "CERTIFICATE_SCHEMA",
    "moment_image",
    "profile_second_derivative",
    "profile_sample",
    "verify_convexity",
]

CERTIFICATE_SCHEMA = 2
_X_SEPARATION = 1e-12
_FD_GATE = 1e-3  # two-stencil agreement marking a sample as resolvable
_SERIES_X = 0.25  # |x| up to which the 2F1 series give T, its remainder and the periods
_SERIES_EPS = _SERIES_X / 16.0  # every kernel argument lies in [-16 eps, 16 eps]
_TOP = 30  # the series degree at |x| = 1/4


def _series_coefficients() -> tuple[tuple[float, ...], ...]:
    """Coefficients k = 0..30 of D = F = 2F1(1/4, 3/4; 1; x) = sum f_k x^k, of
    N = F' = sum (k+1) f_{k+1} x^k and of 2F1(1/4, 3/4; 2; x) = sum f_k/(k+1) x^k,
    each a correctly rounded int / int from f_k = prod_{j<k} (4j+1)(4j+3) / (16^k k!^2)."""
    num, den, f = 1, 1, []
    for k in range(_TOP + 2):
        f.append((num, den))
        num *= (4 * k + 1) * (4 * k + 3)
        den *= 16 * (k + 1) ** 2
    return (
        tuple(p / q for p, q in f[:-1]),
        tuple((k + 1) * p / q for k, (p, q) in enumerate(f[1:])),
        tuple(p / ((k + 1) * q) for k, (p, q) in enumerate(f[:-1])),
    )


_D, _N, _ACTION = _series_coefficients()
_DN = np.array([_D, _N]).T[:, :, np.newaxis]  # (D, N) coefficient columns, k = 0..30


def _degree(eps: float) -> int:
    """The smallest degree d >= 2 with X^(d-1) < 2^-56 over |x| <= X = min(16 eps, 1/4).

    Each truncated series is then good to 2^-56 relative: the terms the
    remainder sum_{k>=2} a_k x^k drops stay below 0.52 X^(d-1) of its x^2
    term, and those dN drops below 0.61 X^(d-1) of the bracket's
    dN D(b) - N(b) dD >= 0.13, as |a^k - b^k|/(a - b) <= X^(k-1); D, N and
    dD drop less.  d = 2 keeps the remainder's x^2 term however small eps
    is; d = 30 at X = 1/4.
    """
    return 2 + int(56.0 / -math.log2(min(16.0 * eps, _SERIES_X)))


class MomentImagePoint(NamedTuple):
    """One point of the moment-map image, tagged with its slice energy."""

    c: float
    x: float  # T1(2 - c)
    y: float  # T2(c)


class ToricProfile(NamedTuple):
    """Sampled graph of the profile function, ordered by increasing x."""

    eps: float
    cs: np.ndarray  # slice energies, decreasing
    xs: np.ndarray  # T1(2 - c)
    ys: np.ndarray  # T2(c)
    slopes: np.ndarray
    second_derivs: np.ndarray


class ConvexityCertificate(NamedTuple):
    """Outcome of the convexity check of the profile function."""

    eps: float
    c_grid: list[float]
    min_f_second: float
    max_fd_residual: float
    verdict: str  # "pass" or "fail"
    fd_tol: float
    fd_checked: int  # samples whose finite-difference estimate passed the gate
    fd_total: int  # interior samples eligible for the cross-check
    schema: int = CERTIFICATE_SCHEMA

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
            "min_f_second": self.min_f_second,
            "max_fd_residual": self.max_fd_residual
            if np.isfinite(self.max_fd_residual)
            else None,
            "verdict": self.verdict,
            "c_grid": self.c_grid,
        }


def _check_slice(c) -> np.ndarray:
    arr = check_real_array(c, "slice energy")
    if not np.all((arr >= 0.0) & (arr <= 2.0)):
        raise DomainError("slice energy must lie in [0, 2] for the bounded surface")
    return arr


def _actions(eps: float, x: np.ndarray, c: np.ndarray, periods=None) -> tuple[np.ndarray, np.ndarray]:
    """T(c) and its remainder T - 2 pi c (1 + 3x/32) at x = -+8 eps c for a 1-d c:
    the series where |x| <= 1/4, else (16/3) c (1 - x) tau lphi with (tau, lphi)
    the ``periods`` at x, or from one _tau_lphi over the far x if none are given."""
    two_pi_c = 2.0 * np.pi * c
    poly = np.zeros_like(x)
    for a in _ACTION[_degree(eps):1:-1]:
        poly *= x
        poly += a
    rem = two_pi_c * x * x * poly
    lin = two_pi_c * (1.0 + 3.0 / 32.0 * x)
    t = lin + rem
    far = np.abs(x) > _SERIES_X
    if np.any(far):
        tau, lphi = _tau_lphi(x[far]) if periods is None else (p[far] for p in periods)
        t[far] = 16.0 / 3.0 * c[far] * (1.0 - x[far]) * tau * lphi
        rem[far] = t[far] - lin[far]
    return t, rem


def _factor_args(eps: float, stiff_c, soft_c) -> np.ndarray:
    """The stiff factor's kernel arguments at slices stiff_c, then the soft
    factor's at soft_c, in one 1-d array: one pass of a kernel takes both."""
    return np.concatenate((_kernel_arg(eps, stiff_c, OscillatorSelector.PLUS).ravel(),
                           _kernel_arg(eps, soft_c, OscillatorSelector.MINUS).ravel()))


def moment_image(eps: float, c: float) -> MomentImagePoint:
    """Image point (T1(2-c), T2(c)) of the slice labelled by c."""
    eps = check_toric(eps)
    c = check_real(c, "slice energy")
    slices = _check_slice(np.array([2.0 - c, c]))
    x, y = _actions(eps, _factor_args(eps, slices[:1], slices[1:]), slices)[0].tolist()
    return MomentImagePoint(c=c, x=x, y=y)


def _series_periods(eps: float, args: np.ndarray):
    """(tau1, tau2) = 2 pi (D(b), D(a)) and the brackets lphi(a) - lphi(b) of the
    pairs (b, a) = (args[i], args[n + i]), a - b = 16 eps, for eps <= 1/64.

    One Horner pass takes D and N at b with their divided differences
    dP = (P(a) - P(b))/(a - b), as dP := a dP + P(b) before each step of
    P(b): both terms are >= 0 (a >= 0, and every partial sum of these
    series is positive on |x| <= 1/4).  D(a) = D(b) + 16 eps dD then adds
    positive terms too.
    """
    n = args.size // 2
    b, a, d = args[:n], args[n:], _degree(eps)
    at_b = np.repeat(_DN[d], n, axis=1)
    div = np.zeros((2, n))
    for k in range(d - 1, -1, -1):
        div *= a
        div += at_b
        at_b *= b
        at_b += _DN[k]
    (d_b, n_b), (d_div, n_div) = at_b, div
    h = 16.0 * eps
    d_a = d_b + h * d_div
    bracket = h * (n_div * d_b - n_b * d_div) / (d_a * d_b)
    return (2.0 * np.pi * d_b, 2.0 * np.pi * d_a), bracket


def _periods(eps: float, args: np.ndarray):
    """((tau1, tau2), bracket, agm) for the pairs of ``_series_periods``: from
    the series up to eps = 1/64 (agm None), else from one _tau_lphi over all
    2n arguments, with agm = (tau, lphi) for the actions off the series."""
    if eps <= _SERIES_EPS:
        return (*_series_periods(eps, args), None)
    tau, lphi = _tau_lphi(args)
    n = args.size // 2
    return (tau[:n], tau[n:]), lphi[n:] - lphi[:n], (tau, lphi)


def _derivatives(eps: float, tau, bracket: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f', f'') at x = T1(2-c) from tau = (tau1 at the stiff arguments
    -8 eps (2 - c), tau2 at the soft ones 8 eps c = c dx/dc) and the
    bracket lphi(8 eps c) - lphi(-8 eps (2 - c))."""
    t1, t2 = tau
    dx = _kernel_arg(eps, 1.0, OscillatorSelector.MINUS)
    return -t2 / t1, t2 / (t1 * t1) * (dx * bracket)


def profile_second_derivative(eps: float, c):
    """f'' at x = T1(2-c); strictly positive below the critical field strength.

    The logarithmic derivatives of the periods reduce to the increasing
    kernel derivative: (ln tau2)'(c) + (ln tau1)'(2-c) =
    8 eps (lphi(8 eps c) - lphi(-8 eps (2 - c))) > 0.
    """
    eps = check_toric(eps)
    arr = _check_slice(c)
    tau, bracket, _ = _periods(eps, _factor_args(eps, 2.0 - arr, arr))
    out = _derivatives(eps, tau, bracket)[1]
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _sample(eps: float, n: int) -> tuple[ToricProfile, np.ndarray]:
    """The profile on the grid s = 2i/(n-1), with rows R1(s) and
    r(s) = R1(s) + R2(2 - s) of the actions' remainders."""
    eps = check_toric(eps)
    n = check_count(n, "a profile's sample count", 2)  # the two axis endpoints
    if 2 * n > _MAX_FLOATS:  # both factors' arguments share one array
        raise DomainError(f"{n} samples need a larger array than numpy can index")
    grid = np.linspace(0.0, 2.0, n)
    # sample i has c = 2 - grid[i], x = T1(grid[i]), y = T2(grid[n-1-i]), and
    # f', f'' from the periods at the same two arguments; the stiff factor
    # fills the first n entries of each pass, the soft one the last n
    args = _factor_args(eps, grid, grid[::-1])
    tau, bracket, agm = _periods(eps, args)
    t, rem = _actions(eps, args, np.concatenate((grid, grid[::-1])), agm)
    xs, ys, r1, r2 = t[:n], t[n:], rem[:n], rem[n:]

    if np.any(np.diff(xs) <= _X_SEPARATION):
        raise NumericsError("profile abscissae are not strictly increasing")
    if np.any(np.diff(ys) >= 0.0):
        raise NumericsError("profile ordinates are not strictly decreasing")

    slopes, second = _derivatives(eps, tau, bracket)
    cs = 2.0 - grid
    profile = ToricProfile(eps=eps, cs=cs, xs=xs, ys=ys, slopes=slopes, second_derivs=second)
    return profile, np.stack([r1, r1 + r2])


def profile_sample(eps: float, n: int) -> ToricProfile:
    """Sample the moment-map image on a uniform slice grid of n points.

    Samples come out sorted by increasing x, i.e. decreasing c, and the
    single-valued strictly decreasing graph invariants are enforced.
    """
    return _sample(eps, n)[0]


def _stencils(v: np.ndarray, h: float):
    """Two estimates of the (first, second) derivatives of the rows of v at
    samples 2 .. n-3: from the 3-point and the 5-point central weights."""
    count = max(v.shape[-1] - 4, 0)  # none below five samples
    m2, m1, c0, p1, p2 = (v[..., k:k + count] for k in range(5))
    three = ((p1 - m1) / (2.0 * h), (p1 - 2.0 * c0 + m1) / h**2)
    five = (
        (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h),
        (16.0 * (m1 + p1) - 30.0 * c0 - (m2 + p2)) / (12.0 * h**2),
    )
    return three, five


def _stencil_f_second(eps: float, s: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """f'' = (g_ss x_s - g_s x_ss) / x_s^3 with g = x + y - 4 pi, from the
    s-derivatives d1, d2 of (R1, r) and the exact parts
    x = 2 pi s - (3/2) pi eps s^2 + R1 and g = 6 pi eps (1 - s) + r."""
    x_s = 2.0 * np.pi - 3.0 * np.pi * eps * s + d1[0]
    x_ss = -3.0 * np.pi * eps + d2[0]
    g_s = -6.0 * np.pi * eps + d1[1]
    return (d2[1] * x_s - g_s * x_ss) / x_s**3


def verify_convexity(eps: float, n: int, tol: float = 1e-4) -> ConvexityCertificate:
    """Certificate that the sampled profile is strictly convex.

    Evaluates f'' on the grid and cross-checks interior values against
    finite differences of the sampled curve itself: fixed 3- and 5-point
    central weights on the uniform grid, applied only to the remainders
    of the actions.  A sample enters the cross-check only where the data
    resolves the curve: the two stencils must agree to 0.1%.  (Near the
    critical field strength the soft period has a branch point within
    one grid spacing of the c = 2 endpoint, where no stencil converges;
    the gate never consults the analytic value, so it cannot mask a
    wrong formula anywhere the data does resolve.)  Excluded samples
    show up as fd_total - fd_checked.

    Passes iff min f'' > 0 and the worst resolvable relative mismatch
    stays within tol.  When no sample is resolvable (e.g. fewer than five
    samples) the cross-check is vacuous, the residual is reported as
    nan, and the pointwise formula decides.
    """
    eps = check_toric(eps)
    tol = check_finite(tol, "certificate tolerance")
    profile, rem = _sample(eps, n)
    second = profile.second_derivs
    min_f_second = float(np.min(second))

    n = len(second)
    centers = np.arange(2, n - 2)
    s = np.linspace(0.0, 2.0, n)[centers]
    fd_lo, fd_hi = (_stencil_f_second(eps, s, *d) for d in _stencils(rem, 2.0 / (n - 1)))
    # a NaN estimate counts as resolved, and its NaN residual is skipped
    resolved = ~(np.abs(fd_hi - fd_lo) > _FD_GATE * np.abs(fd_hi))
    checked = int(np.count_nonzero(resolved))
    second_c = second[centers][resolved]
    resid = np.full_like(second_c, np.inf)  # an analytic f'' of 0 matches no estimate
    np.divide(np.abs(fd_hi[resolved] - second_c), np.abs(second_c), out=resid, where=second_c != 0)
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
