"""Complete elliptic integral of the first kind on (-inf, 1).

    K(m) = int_0^1 dz / sqrt((1 - z^2)(1 - m z^2)),      m < 1,

in the parameter convention m = k^2 (DLMF 19.1, A&S 17).  The primary
evaluation path is the arithmetic-geometric mean iteration, quadratically
convergent for m in [0, 1); negative parameters are pulled into [0, 1)
through the transformation

    K(m) = K(m / (m - 1)) / sqrt(1 - m),      m < 0,

so a single high-accuracy kernel serves the whole domain.  Its running
sum s (A&S 17.6, DLMF 19.8) gives E = K (1 - s) and, with nothing to
cancel, K'/K and K' = K * K'/K.  Its levels for one m also give the
Jacobi sn, cn, dn (A&S 16.4), the incomplete F (A&S 17.5) and Landen's
sum for the incomplete E (A&S 17.6) of the exact oscillator flows and
their time change, and, summed once more, (K'/K)' in closed form by
K's differential equation m(1-m)K'' + (1-2m)K' - K/4 = 0 (DLMF 15.10.1),
hence K''.  No function here integrates numerically; the defining
integrals are the tests' oracles.

All of these are positive, K is strictly increasing, and ln K is strictly
convex; ``interpolation_gap`` exposes the Cauchy-Schwarz bound
K*K'' >= 3*K'^2 behind that convexity as a testable quantity.

Every function accepts a float or an ndarray and returns the same kind.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "ellip_k",
    "ellip_e",
    "ellip_k_d1",
    "ellip_k_d2",
    "log_k_d1",
    "log_k_d2",
    "interpolation_gap",
]

_AGM_RTOL = 1e-15
_AGM_MAX_ITER = 60


def _checked(m) -> tuple[np.ndarray, bool]:
    arr = np.asarray(m, dtype=float)
    if np.any(~(arr < 1.0)):
        raise DomainError("elliptic parameter must satisfy m < 1")
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _agm_k_s(m: np.ndarray, cm: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(K, s) by AGM for m in [0, 1): E = K (1 - s), and K - E = K s cancels nothing.

    b_0 = sqrt(cm) where the caller knows 1 - m exactly.  Convergence is
    decided over the whole array for 0-d and 1-d input and per row of the
    last axis otherwise; a converged row is frozen, so every row of a batch
    comes out bit for bit as it would from its own call.
    """
    rows = m.reshape(1, -1) if m.ndim < 2 else m.reshape(-1, m.shape[-1])
    a = np.ones_like(rows)
    b = np.sqrt(1.0 - rows if cm is None else np.reshape(cm, rows.shape))
    s = 0.5 * rows  # running sum of 2^(n-1) c_n^2, seeded with c_0^2 = m
    c = rows / (2.0 * (1.0 + b))  # c_1 = (a_0 - b_0)/2 without cancellation
    done = np.zeros((len(rows), 1), dtype=bool)
    pw = 1.0
    for _ in range(_AGM_MAX_ITER):
        s_next = s + pw * c * c
        pw *= 2.0
        a_next, b_next = 0.5 * (a + b), np.sqrt(a * b)
        c = c * c / (2.0 * (a_next + b_next))  # (a_next - b_next)/2 likewise
        if done.any():
            s_next = np.where(done, s, s_next)
            a_next = np.where(done, a, a_next)
            b_next = np.where(done, b, b_next)
        a, b, s = a_next, b_next, s_next
        done |= np.all(np.abs(a - b) <= _AGM_RTOL * a, axis=1, keepdims=True)
        if done.all():
            break
    return (np.pi / (2.0 * a)).reshape(m.shape), s.reshape(m.shape)


def _k_dlog(m: np.ndarray, cm: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(K, K'/K) from one AGM on mt = m, or m/(m - 1) for m < 0:
    K'/K = (1/2 -+ q) / (2 cm) for m >= 0 resp. m < 0, with q = (s - mt/2)/mt
    and cm = 1 - m.  Near m = 1, 1/cm and b_0 = sqrt(cm) amplify the rounding
    of m, so a caller that knows cm better than 1 - m rounded passes it."""
    neg = m < 0.0
    mt = np.where(neg, m / (m - 1.0), m)
    cm = 1.0 - m if cm is None else cm
    k_t, s_t = _agm_k_s(mt, np.where(neg, 1.0 - mt, cm))
    # below tiny the sum's terms underflow, s = mt/2 and q = 0
    q = (s_t - 0.5 * mt) / np.maximum(mt, np.finfo(float).tiny)
    dlog = (0.5 + np.where(neg, q, -q)) / (2.0 * cm)
    return k_t / np.sqrt(np.where(neg, 1.0 - m, 1.0)), dlog


def _agm_table(m: float, cm: float | None = None) -> list[tuple[float, float, float]]:
    """AGM levels (a_n, b_n, c_n) for one m in [0, 1), with b_0 = sqrt(1 - m),
    or sqrt(cm) where the caller knows 1 - m exactly; K = pi/(2 a_N)."""
    a, b = 1.0, math.sqrt(1.0 - m if cm is None else cm)
    table, c = [(a, b, math.sqrt(m))], m / (2.0 * (1.0 + b))
    while c > 0.5 * math.ulp(a):  # until a_N moves no more
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        table.append((a, b, c))
        c = c * c / (2.0 * (a + b))  # (a_n - b_n)/2 without cancellation
    return table


def _landen(table) -> tuple[list[float], float]:
    """d_n = c_n/m for n = 1..N+1 and Q = sum 2^(n-1) d_n^2 from one table,
    with nothing to cancel as m -> 0: d_1 = 1/(2(1 + b_0)) and
    d_{n+1} = d_n c_n/(2(a_n + b_n)).  d_{N+1} belongs to the level the
    table leaves out (d_1 = 1/4 when m is tiny); the next, below
    ulp(a_N)/(16 a_N) < 2^-54, no longer counts against 1/m."""
    d = [0.5 / (1.0 + table[0][1])]
    for a, b, c in table[1:]:
        d.append(d[-1] * (c / (2.0 * (a + b))))
    q, pw = 0.0, 1.0
    for d_n in d:
        q += pw * d_n * d_n
        pw *= 2.0
    return d, q


def _jacobi(u, m: float, table, d):
    """(sn, cn, dn)(u | m), descending from phi_N = 2^N a_N (u mod 4K) (A&S 16.4),
    and Landen's sum sum_{n>=1} d_n sin phi_n over the phases it visits, with
    phi_{N+1} = 2 phi_N for the level the table leaves out (d from _landen).
    dn = sqrt(1 - m sn^2) keeps its digits where cn/cos(phi_1 - phi_0) loses them."""
    top = len(table) - 1
    a_n = table[-1][0]
    phi = 2.0 ** top * a_n * np.fmod(u, 2.0 * np.pi / a_n)
    landen = d[top] * np.sin(2.0 * phi)
    for n in range(top, 0, -1):
        a, _, c = table[n]
        s = np.sin(phi)
        landen = landen + d[n - 1] * s
        phi = 0.5 * (phi + np.arcsin(c / a * s))
    sn = np.sin(phi)
    return sn, np.cos(phi), np.sqrt(1.0 - m * sn * sn), landen


def _ellip_f(phi, table):
    """F(phi | m) = phi_N/(2^N a_N), ascending by phi_{n+1} = phi_n +
    arctan(b_n/a_n tan phi_n) on the branch nearest phi_n (A&S 17.5)."""
    for a, b, _ in table[:-1]:
        d = np.arctan2(b * np.sin(phi), a * np.cos(phi))
        phi = phi + d + 2.0 * np.pi * np.round((phi - d) / (2.0 * np.pi))
    return phi / (2.0 ** (len(table) - 1) * table[-1][0])


def _k_dlog_d1(m: float, cm: float | None = None) -> tuple[float, float, float]:
    """(K, g, g') with g = K'/K, for one m < 1, from the levels of one AGM table.

    For m >= 0, with Q = sum_{n>=1} 2^(n-1) d_n^2 and d_n = c_n/m from _landen:
    g = (1/2 - m Q)/(2(1 - m)) and, by K's differential equation,
    g' = (1/2 + (1 - 2m) Q)/(2(1 - m)^2) - g^2.  m < 0 goes through
    mt = m/(m - 1), with 1 - mt = 1/(1 - m) exact.
    """
    if m < 0.0:
        cm = 1.0 - m
        k, g, dg = _k_dlog_d1(m / (m - 1.0), 1.0 / cm)
        return (k / math.sqrt(cm), (0.5 - g / cm) / cm,
                ((dg / cm - 2.0 * g) / cm + 0.5) / (cm * cm))
    cm = 1.0 - m if cm is None else cm
    table = _agm_table(m, cm)
    q = _landen(table)[1]
    g = (0.5 - m * q) / (2.0 * cm)
    return math.pi / (2.0 * table[-1][0]), g, (0.5 + (cm - m) * q) / (2.0 * cm * cm) - g * g


def _elementwise(m, combine):
    """combine(K, g, g') at every element of m, in the shape of m."""
    arr, scalar = _checked(m)
    out = np.array([combine(*_k_dlog_d1(v)) for v in arr.ravel().tolist()])
    return _ret(out.reshape(arr.shape), scalar)


def ellip_k(m):
    """Complete elliptic integral of the first kind, m < 1."""
    arr, scalar = _checked(m)
    return _ret(_k_dlog(arr)[0], scalar)


def ellip_e(m):
    """Complete elliptic integral of the second kind, m < 1."""
    arr, scalar = _checked(m)
    neg = arr < 0.0
    k_t, s_t = _agm_k_s(np.where(neg, arr / (arr - 1.0), arr))
    return _ret(k_t * (1.0 - s_t) * np.sqrt(np.where(neg, 1.0 - arr, 1.0)), scalar)


def ellip_k_d1(m):
    """dK/dm, positive on (-inf, 1): K * K'/K from the AGM and its sum, with
    no removable singularity at m = 0 to bridge."""
    arr, scalar = _checked(m)
    k, dlog = _k_dlog(arr)
    return _ret(k * dlog, scalar)


def log_k_d1(m):
    """(ln K)'(m) = K'(m)/K(m), positive and strictly increasing."""
    arr, scalar = _checked(m)
    return _ret(_k_dlog(arr)[1], scalar)


def ellip_k_d2(m):
    """d2K/dm2 = K (g' + g^2), positive on (-inf, 1)."""
    return _elementwise(m, lambda k, g, dg: k * (dg + g * g))


def log_k_d2(m):
    """(K'/K)'(m) = (K'' K - K'^2) / K^2, strictly positive (ln K convex)."""
    return _elementwise(m, lambda k, g, dg: dg)


def interpolation_gap(m):
    """K*K'' - 3*K'^2 = K^2 (g' - 2 g^2), nonnegative by the Cauchy-Schwarz inequality."""
    return _elementwise(m, lambda k, g, dg: k * k * (dg - 2.0 * g * g))
