"""Complete elliptic integrals on (-inf, 1) from one AGM kernel.

    K(m) = int_0^1 dz / sqrt((1 - z^2)(1 - m z^2)),      m < 1,

in the parameter convention m = k^2 (DLMF 19.1, A&S 17).  ``_agm`` runs
the arithmetic-geometric mean on an array m in [0, 1), quadratically
convergent, and keeps its levels a_n, b_n, c_n, the ratios d_n = c_n/m
and Q = sum_{n>=1} 2^(n-1) d_n^2, all formed without cancellation as
m -> 0 (A&S 17.6, DLMF 19.8).  Everything here follows from that one pass:

    K = pi/(2 a_N),   g = K'/K = (1/2 - m Q)/(2(1 - m)),

and, by K's differential equation m(1-m)K'' + (1-2m)K' - K/4 = 0
(DLMF 15.10.1), g' = (K'/K)' in closed form, hence K' and K''.
Negative parameters are pulled into [0, 1) through

    K(m) = K(m / (m - 1)) / sqrt(1 - m),      m < 0,

with 1 - m/(m - 1) = 1/(1 - m) passed to the kernel exactly.  The levels
for one m also give the Jacobi sn, cn, dn (A&S 16.4), the incomplete F
(A&S 17.5) and, with the d_n and Q, Landen's sum for the incomplete E
(A&S 17.6) of the exact oscillator flows and their time change.  No
function here integrates numerically; the defining integrals are the
tests' oracles.  K, K' and K'' are positive and ln K is strictly convex.

Every function accepts a float or an ndarray and returns the same kind,
and every element comes out bit for bit as its own scalar call.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .stark_model import _floats

__all__ = ["ellip_k", "ellip_k_d1", "ellip_k_d2"]


def _checked(m) -> tuple[np.ndarray, bool]:
    arr = _floats(m, "elliptic parameter", "real")
    if np.any(~((arr > -np.inf) & (arr < 1.0))):
        raise DomainError("elliptic parameter must satisfy -inf < m < 1")
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _agm(m, cm=None) -> tuple[list, list, np.ndarray]:
    """AGM levels [(a_n, b_n, c_n)], n = 0..N, of an array m in [0, 1), the
    d_n = c_n/m for n = 1..N+1 and Q = sum 2^(n-1) d_n^2; K = pi/(2 a_N).

    b_0 = sqrt(1 - m), or sqrt(cm) where the caller knows 1 - m exactly.
    Nothing cancels as m -> 0: d_1 = 1/(2(1 + b_0)), c_1 = m d_1, and
    c_{n+1}, d_{n+1} are c_n, d_n times c_n/(2(a_n + b_n)).  The levels stop
    where c_{N+1} no longer moves a_N; d_{N+1} belongs to the level they
    leave out (d_1 = 1/4 when m is tiny), and the next, below 2^-55 d_{N+1},
    no longer counts against 1/m.  An element that is done while others
    are not gets b := a and c := 0: its later levels are (a_N, a_N, 0), as
    (a + a)/2 = a and sqrt(a a) = a, and add d = 0 to Q, so it comes out
    bit for bit as from its own call.
    """
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m if cm is None else cm)
    d = 0.5 / (1.0 + b)
    c = m * d
    levels, ds, q, pw = [(a, b, np.sqrt(m))], [d], d * d, 1.0
    while True:
        live = a + c > a
        n_live = np.count_nonzero(live)
        if n_live == 0:
            break
        if n_live < live.size:
            b, c = np.where(live, b, a), np.where(live, c, 0.0)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        levels.append((a, b, c))
        r = c / (2.0 * (a + b))
        c, d = c * r, d * r
        pw *= 2.0
        q = q + pw * d * d
        ds.append(d)
    return levels, ds, q


def _k_dlog(m, cm=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, g, g') with g = K'/K, for an array m < 1, from one ``_agm``.

    For m >= 0: g = (1/2 - m Q)/(2(1 - m)) and, by K's differential
    equation, g' + g^2 = (1/2 + (1 - 2m) Q)/(2(1 - m)^2).  m < 0 goes
    through mt = m/(m - 1), K = K(mt)/sqrt(1 - m), with the AGM started from
    b_0 = sqrt(1/(1 - m)) rather than from 1 - mt rounded; the chain rule
    gives g = (1/2 + mt Q)/(2(1 - m)) and g' + g^2 =
    (1/2 + (1 + mt) Q)/(2(1 - m)^2), sums of positive terms.  Near m = 1,
    1/cm and b_0 = sqrt(cm) amplify the rounding of m, so a caller that
    knows cm = 1 - m better than 1 - m rounded passes it.
    """
    neg = m < 0.0
    cm = 1.0 - m if cm is None else cm
    scale = np.where(neg, cm, 1.0)
    p = -m / scale  # -m for m >= 0, mt for m < 0
    mt = np.abs(p)
    levels, _, q = _agm(mt, np.where(neg, 1.0 / cm, cm))
    # 1/(2 cm) as 0.5/cm and 1/cm^2 as two divisions: no overflow down to m = -1e308
    g = 0.5 * (0.5 + p * q) / cm
    dg = 0.5 * (0.5 + (np.where(neg, 1.0, cm) + p) * q) / cm / cm - g * g  # 1 - 2m resp. 1 + mt
    return np.pi / (2.0 * levels[-1][0]) / np.sqrt(scale), g, dg


def _jacobi(u, m: float, table, d):
    """(sn, cn, dn)(u | m), descending from phi_N = 2^N a_N (u mod 4K) (A&S 16.4),
    and Landen's sum sum_{n>=1} d_n sin phi_n over the phases it visits, with
    phi_{N+1} = 2 phi_N for the level the table leaves out (table and d from _agm).
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


def ellip_k(m):
    """Complete elliptic integral of the first kind, m < 1."""
    arr, scalar = _checked(m)
    return _ret(_k_dlog(arr)[0], scalar)


def ellip_k_d1(m):
    """dK/dm, positive on (-inf, 1): K * K'/K from one AGM, with no
    removable singularity at m = 0 to bridge."""
    arr, scalar = _checked(m)
    k, g, _ = _k_dlog(arr)
    return _ret(k * g, scalar)


def ellip_k_d2(m):
    """d2K/dm2 = K (g' + g^2), positive on (-inf, 1)."""
    arr, scalar = _checked(m)
    k, g, dg = _k_dlog(arr)
    return _ret(k * (dg + g * g), scalar)
