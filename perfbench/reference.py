"""Independent references and the output checks of every op.

References never call starktoric:

* periods, actions and f'' come from mpmath at 40 digits: a period is
  4 K(m)/omega of the Jacobi-elliptic solution, an action is the area
  4 a^2 int_0^{pi/2} cos^2 t sqrt(1 +- eps a^2 (1 + sin^2 t)) dt, and f''
  differentiates the period ratio numerically (mpmath.diff);
* the exact oscillator flows are a cn(omega s | m) (stiff) and
  a sn(omega s | m) (soft), from scipy.special.ellipj;
* a Hill point is BOUNDED iff it is accessible and |q| - q1 <= 8/(1 + sqrt(1 - 16 eps)).

Each op ends in one outcome: ``ok``; ``refused`` (a failing certificate:
a "fail" verdict, CLI exit 1, or a flow-equivalence deviation above its
bound); ``error`` (a raised error, another non-zero exit, or an op
the deadline cut off); ``wrong`` (a returned output outside the tolerance of
its reference).  Every outcome but ``ok`` is a failed op; only ``wrong``
makes a run incorrect, because it is the one failure a user cannot see.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import ellipj, ellipkinc

import inputs

mp.mp.dps = 40

TOL = {
    "f2": 1e-6, "action": 1e-9, "tau": 1e-10, "slope": 1e-10,
    "flow_period": 1e-6, "state": 1e-8, "phys_time": 1e-8,
    "torus": 1e-6, "grid": 1e-12,
}
# flow_equivalence returns the largest raw-vs-regularized deviation, which is
# a certificate rather than a value with a reference: above this bound (the
# acceptance suite's) it has failed, visibly, like a failing verdict.
LC_TOL = 1e-5


# --- mpmath references -------------------------------------------------------


def _a2_omega2_m(eps, c, sign):
    """Amplitude^2, omega^2 and parameter m of the factor at energy c.

    sign +1 is the stiff factor, -1 the soft one; analytic in c through 0.
    """
    a2 = 4 * c / (1 + mp.sqrt(1 + sign * 8 * eps * c))
    om2 = 1 + 2 * eps * a2 if sign > 0 else 1 - eps * a2
    return a2, om2, eps * a2 / om2


def _tau_mp(eps, c, sign):
    _, om2, m = _a2_omega2_m(eps, c, sign)
    return 4 * mp.ellipk(m) / mp.sqrt(om2)


def tau(eps: float, c: float, sign: int) -> float:
    return float(_tau_mp(mp.mpf(eps), mp.mpf(c), sign))


def action(eps: float, c: float, sign: int) -> float:
    """T(c) as the area enclosed by the orbit of energy c."""
    eps, c = mp.mpf(eps), mp.mpf(c)
    if c == 0:
        return 0.0
    a2, _, _ = _a2_omega2_m(eps, c, sign)
    k = sign * eps * a2
    with mp.workdps(30):
        val = mp.quad(lambda t: mp.cos(t) ** 2 * mp.sqrt(1 + k * (1 + mp.sin(t) ** 2)),
                      [0, mp.pi / 2])
    return float(4 * a2 * val)


def slope(eps: float, c: float) -> float:
    return -tau(eps, c, -1) / tau(eps, 2.0 - c, +1)


def f_second(eps: float, c: float) -> float:
    """f'' at x = T1(2 - c), from derivatives of the two periods."""
    eps, c = mp.mpf(eps), mp.mpf(c)
    t1 = _tau_mp(eps, 2 - c, +1)
    t2 = _tau_mp(eps, c, -1)
    d1 = mp.diff(lambda b: _tau_mp(eps, b, +1), 2 - c)
    d2 = mp.diff(lambda b: _tau_mp(eps, b, -1), c)
    return float((d2 * t1 + t2 * d1) / t1**3)


# --- exact oscillator flows (double precision) -------------------------------


def _factor_flow(z: float, w: float, eps: float, sign: int, s: np.ndarray):
    """Exact (z, w)(s) of one separated factor from its start (z, w)."""
    e = 0.5 * w * w + 0.5 * z * z + sign * 0.5 * eps * z**4
    a2 = 4.0 * e / (1.0 + math.sqrt(1.0 + sign * 8.0 * eps * e))
    a = math.sqrt(a2)
    om = math.sqrt(1.0 + 2.0 * eps * a2 if sign > 0 else 1.0 - eps * a2)
    m = eps * a2 / om**2
    if sign > 0:  # z = a cn, w = -a om sn dn
        ww = (w / (a * om)) ** 2
        sin2 = 2.0 * ww / (1.0 + math.sqrt(max(1.0 - 4.0 * m * ww, 0.0)))
        phi = math.atan2(-math.copysign(math.sqrt(sin2), w), z / a)
    else:  # z = a sn, w = a om cn dn
        sin = min(max(z / a, -1.0), 1.0)
        phi = math.atan2(sin, w / (a * om * math.sqrt(1.0 - m * sin * sin)))
    sn, cn, dn, _ = ellipj(ellipkinc(phi, m) + om * np.asarray(s), m)
    if sign > 0:
        return a * cn, -a * om * sn * dn
    return a * sn, a * om * cn * dn


def regularized_flow(state, eps: float, s: float):
    """Exact (z1, z2, w1, w2) at regularized time s, and t(s) = int |z|^2 ds."""
    z1, w1, z2, w2 = state
    z1s, w1s = _factor_flow(z1, w1, eps, +1, s)
    z2s, w2s = _factor_flow(z2, w2, eps, -1, s)
    panels = max(1, math.ceil(s / 0.25))
    x, wt = np.polynomial.legendre.leggauss(30)
    edges = np.linspace(0.0, s, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    za, _ = _factor_flow(z1, w1, eps, +1, nodes)
    zb, _ = _factor_flow(z2, w2, eps, -1, nodes)
    t = float(((za**2 + zb**2).reshape(panels, -1) @ wt) @ half)
    return [float(z1s), float(z2s), float(w1s), float(w2s)], t


def hill_class(q1, q2, eps: float, radius: float = math.inf):
    """Closed-form Hill class of points (arrays): 'B', 'U' or 'F'."""
    q1, q2 = np.asarray(q1, float), np.asarray(q2, float)
    r = np.hypot(q1, q2)
    with np.errstate(divide="ignore"):
        accessible = (-1.0 / r + eps * q1 <= -0.5) & (r <= radius)
    bounded = accessible & (r - q1 <= 8.0 / (1.0 + math.sqrt(1.0 - 16.0 * eps)))
    return np.where(bounded, "B", np.where(accessible, "U", "F"))


# --- checks -------------------------------------------------------------------


class Check:
    """Numeric and categorical checks of one op."""

    def __init__(self) -> None:
        self.errors: list[float] = []
        self.wrong = False
        self.error = False
        self.refused = False

    def num(self, value, ref, kind: str) -> None:
        value, ref = np.asarray(value, float), np.asarray(ref, float)
        diff = float(np.linalg.norm(value - ref))
        scale = float(np.linalg.norm(ref))
        err = diff / scale if scale > 0.0 else diff
        if not math.isfinite(err):
            err = math.inf
        self.errors.append(err)
        if not err <= TOL[kind]:
            self.wrong = True

    def same(self, value, ref) -> None:
        if value != ref:
            self.wrong = True

    def part(self, out: dict, name: str):
        """The output of one call, or None when it raised."""
        got = out.get(name)
        if isinstance(got, dict) and "error" in got:
            self.error = True
            return None
        return got

    @property
    def outcome(self) -> str:
        if self.wrong:
            return "wrong"
        if self.error:
            return "error"
        return "refused" if self.refused else "ok"


def _min_f_second(eps: float, cs) -> float:
    # f'' increases with c on [0, 2] for every eps in the domain, so the grid
    # minimum sits at c = 0; both ends and the seeded slices are evaluated,
    # so a wrong ordering shows up as a mismatch rather than passing silently.
    return min(f_second(eps, c) for c in cs)


def check_certify(op: dict, out: dict) -> Check:
    ck = Check()
    eps, slices = op["eps"], op["slices"]
    f2_slices = [f_second(eps, c) for c in slices]
    cert = ck.part(out, "verify")
    if cert is not None:
        ck.same(cert["samples"], inputs.CERTIFY_SAMPLES)
        ck.same(cert["c_ends"], [2.0, 0.0])
        ck.num(cert["min_f_second"],
               min(_min_f_second(eps, (0.0, 2.0)), *f2_slices), "f2")
        ck.refused = cert["verdict"] != "pass"
    pts = ck.part(out, "moment")
    if pts is not None:
        for c, (pc, x, y) in zip(slices, pts):
            ck.same(pc, c)
            ck.num([x, y], [action(eps, 2.0 - c, +1), action(eps, c, -1)], "action")
    f2 = ck.part(out, "f2")
    if f2 is not None:
        for got, ref in zip(f2, f2_slices):
            ck.num(got, ref, "f2")
    return ck


def check_orbit(op: dict, out: dict) -> Check:
    ck = Check()
    eps, state = op["eps"], op["state"]
    got = ck.part(out, "integrate")
    if got is not None:
        final, t = regularized_flow(state, eps, inputs.ORBIT_S_DURATION)
        ck.num(got["final"], final, "state")
        ck.num(got["t"], t, "phys_time")
    got = ck.part(out, "periods")
    if got is not None:
        z1, w1, z2, w2 = state
        e1 = 0.5 * w1 * w1 + 0.5 * z1 * z1 + 0.5 * eps * z1**4
        e2 = 0.5 * w2 * w2 + 0.5 * z2 * z2 - 0.5 * eps * z2**4
        ck.num(got["tau"][0], tau(eps, e1, +1), "flow_period")
        ck.num(got["tau"][1], tau(eps, e2, -1), "flow_period")
    got = ck.part(out, "torus")
    if got is not None:
        z1, w1, z2, w2 = state
        ck.num(got, [z1, z2, w1, w2], "torus")
    got = ck.part(out, "lc")
    if got is not None and not got <= LC_TOL:
        ck.refused = True
    got = ck.part(out, "hill")
    if got is not None:
        q = np.array(got["q"])
        ref = hill_class(q[:, 0], q[:, 1], eps).tolist()
        ck.same(ref, ["B"] * len(ref))
        ck.same(got["cls"], ref)
    return ck


def check_session(op: dict, out: dict) -> Check:
    ck = Check()
    sub, eps, rc = op["kind"], op["eps"], out["rc"]
    if rc == 1 and sub == "verify":
        ck.refused = True
    elif rc != 0:
        ck.error = True
        return ck
    got = ck.part(out, "parsed")
    if got is None:
        return ck
    if sub == "periods":
        c = op["c"]
        ck.num([got["tau1"], got["tau2"]], [tau(eps, c, +1), tau(eps, c, -1)], "tau")
    elif sub == "profile":
        n = inputs.SESSION_SIZES["profile"]
        ck.same(got["header"], "c,x,y,slope,f_second")
        ck.same(got["n"], n)
        for i, (c, x, y, sl, f2) in zip(op["rows"], got["rows"]):
            ck.num(c, 2.0 - 2.0 * i / (n - 1), "grid")
            ck.num([x, y], [action(eps, 2.0 - c, +1), action(eps, c, -1)], "action")
            ck.num(sl, slope(eps, c), "slope")
            ck.num(f2, f_second(eps, c), "f2")
    elif sub == "verify":
        (cert,) = got["certs"]
        ck.same(cert["samples"], inputs.SESSION_SIZES["verify"])
        ck.num(cert["min_f_second"], _min_f_second(eps, (0.0, 2.0)), "f2")
        ck.refused = cert["verdict"] != "pass"
    elif sub == "flow":
        duration = inputs.SESSION_SIZES["flow"]
        ck.same(got["header"], "s,t,z1,w1,z2,w2,E")
        ck.same(got["n"], round(duration / 1e-3) + 1)
        s, t, z1, w1, z2, w2, _ = got["last"]
        final, t_ref = regularized_flow(op["state"], eps, duration)
        ck.same(s, duration)
        ck.num([z1, z2, w1, w2], final, "state")
        ck.num(t, t_ref, "phys_time")
    else:
        ck.same(got["header"], "q1,q2,class")
        centers = np.array(got["centers"])
        radius = centers[-1] + 0.5 * (centers[1] - centers[0])
        q1, q2 = np.meshgrid(centers, centers, indexing="ij")
        ref = "".join(hill_class(q1.ravel(), q2.ravel(), eps, radius).tolist())
        ck.same(len(centers), inputs.SESSION_SIZES["hill"])
        ck.same(got["cls"], ref)
    return ck


CHECKERS = {"certify": check_certify, "orbits": check_orbit, "session": check_session}
