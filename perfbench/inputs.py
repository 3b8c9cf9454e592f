"""Seeded inputs for the three workloads.

Every workload draws its field strengths from ``field_strengths``: the
exact decade values 1e-8 ... 1e-2, near-critical values 1/16 (1 - 10^-u),
and stratified log-uniform draws over [1e-5, 1/16).  Below 1e-5 the
certificate's verdict flips between neighbouring field strengths (one noisy
sample decides it), so seeded draws there would turn ``fail_ratio`` into a
coin count; the fixed decade values keep those failures in every run
instead.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import math

import numpy as np

EPS_CRIT = 1.0 / 16.0
DECADES = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
SEEDED_LO = 1e-5
NEAR_CRIT_TOP = EPS_CRIT * (1.0 - 1e-2)

# Op counts per second of --seconds, fixed so that one run does a fixed
# amount of work.  At this package's baseline a 20 s run does 27 certify ops
# (14 s at reference speed), 67 orbit ops (17 s) and 45 session calls
# (19 s).  Session gets 9 calls per subcommand so that its tail percentile
# falls inside the slowest group (flow and hill calls), not at its edge.
OPS_PER_S = {"certify": 1.0 / 0.75, "orbits": 1.0 / 0.3, "session": 45.0 / 20.0}

SUBCOMMANDS = ("periods", "profile", "verify", "flow", "hill")

# Sizes of one op (the default small sizes for the CLI calls).
CERTIFY_SAMPLES = 2001
CERTIFY_SLICES = 8  # f'' is checked on all of them, moment_image on the first two
CERTIFY_MOMENT_SLICES = 2
ORBIT_S_DURATION = 2.0
ORBIT_LC_DURATION = 1.0
ORBIT_HILL_POINTS = 3
SESSION_SIZES = {"profile": 256, "verify": 201, "flow": 5.0, "hill": 200}


def op_count(workload: str, seconds: float) -> int:
    n = max(len(DECADES) + 2, round(seconds * OPS_PER_S[workload]))
    if workload == "session":
        n = len(SUBCOMMANDS) * math.ceil(n / len(SUBCOMMANDS))
    return n


def field_strengths(rng: np.random.Generator, n: int) -> list[float]:
    """n field strengths covering (0, 1/16), in ascending order."""
    k = n - len(DECADES)
    near = max(1, k // 8)
    strat = k - near
    lo, hi = math.log10(SEEDED_LO), math.log10(NEAR_CRIT_TOP)
    u = (np.arange(strat) + rng.random(strat)) / max(strat, 1)
    seeded = 10.0 ** (lo + (hi - lo) * u)
    crit = EPS_CRIT * (1.0 - 10.0 ** -rng.uniform(2.0, 6.0, near))
    return sorted([*DECADES, *seeded.tolist(), *crit.tolist()])


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + (hi - lo) * u


def zero_level_state(eps: float, c: float, phase1: float, phase2: float) -> list[float]:
    """(z1, w1, z2, w2) on the zero level with soft-factor energy c.

    Each factor starts at the given fraction of its own period along the
    exact Jacobi-elliptic solution; w2 is then recomputed from the zero-level
    condition so the state satisfies E = 0 to rounding.
    """
    from scipy.special import ellipj, ellipk

    e1 = 2.0 - c
    a1sq = 4.0 * e1 / (1.0 + math.sqrt(1.0 + 8.0 * eps * e1))
    om1 = math.sqrt(1.0 + 2.0 * eps * a1sq)
    m1 = eps * a1sq / om1**2
    sn, cn, dn, _ = ellipj(4.0 * ellipk(m1) * phase1, m1)
    z1, w1 = math.sqrt(a1sq) * cn, -math.sqrt(a1sq) * om1 * sn * dn

    a2sq = 4.0 * c / (1.0 + math.sqrt(1.0 - 8.0 * eps * c))
    om2 = math.sqrt(1.0 - eps * a2sq)
    m2 = eps * a2sq / om2**2
    sn, cn, dn, _ = ellipj(4.0 * ellipk(m2) * phase2, m2)
    z2 = math.sqrt(a2sq) * sn
    e1_num = 0.5 * w1 * w1 + 0.5 * z1 * z1 + 0.5 * eps * z1**4
    w2sq = max(2.0 * (2.0 - e1_num) - z2 * z2 + eps * z2**4, 0.0)
    w2 = math.copysign(math.sqrt(w2sq), cn * dn)
    return [z1, w1, z2, w2]


def make_inputs(workload: str, seed: int, seconds: float) -> list[dict]:
    """The op list of one run: one dict of plain numbers per op."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    n = op_count(workload, seconds)
    eps = field_strengths(rng, n)
    if workload == "certify":
        ops = [
            {"kind": "certify", "eps": e,
             "slices": rng.uniform(0.0, 2.0, CERTIFY_SLICES).tolist()}
            for e in eps
        ]
    elif workload == "orbits":
        # c and both starting phases are stratified (a Latin hypercube), so
        # every run covers the same spread of orbits; an op's cost depends
        # on where its orbit passes during the fixed s-durations
        cs = _stratified(rng, n, 0.005, 1.995)
        ph1, ph2 = _stratified(rng, n, 0.0, 1.0), _stratified(rng, n, 0.0, 1.0)
        ops = []
        for e, c, p1, p2 in zip(eps, cs, ph1, ph2):
            ops.append({
                "kind": "orbit", "eps": e, "c": float(c),
                "state": zero_level_state(e, float(c), p1, p2),
                "hill_steps": sorted(rng.choice(
                    int(ORBIT_S_DURATION * 1000) + 1, ORBIT_HILL_POINTS, replace=False
                ).tolist()),
            })
    elif workload == "session":
        # deal the ascending field strengths round-robin, so every subcommand
        # gets a stratified sample of the domain
        ops = [_session_call(SUBCOMMANDS[i % len(SUBCOMMANDS)], e, rng)
               for i, e in enumerate(eps)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _session_call(sub: str, eps: float, rng: np.random.Generator) -> dict:
    e = f"{eps:.17g}"
    call = {"kind": sub, "eps": eps}
    if sub == "periods":
        call["c"] = float(rng.uniform(0.0, 2.0))
        call["argv"] = ["periods", "--eps", e, "--c", f"{call['c']:.17g}"]
    elif sub == "profile":
        call["rows"] = sorted(rng.choice(SESSION_SIZES["profile"], 8, replace=False).tolist())
        call["argv"] = ["profile", "--eps", e, "--samples", str(SESSION_SIZES["profile"])]
    elif sub == "verify":
        call["argv"] = ["verify", "--eps", e, "--samples", str(SESSION_SIZES["verify"])]
    elif sub == "flow":
        c = float(rng.uniform(0.005, 1.995))
        ph = rng.random(2)
        call["state"] = zero_level_state(eps, c, ph[0], ph[1])
        z1, w1, z2, w2 = call["state"]
        # "--init=..." keeps a leading minus sign from reading as an option
        init = ",".join(f"{v:.17g}" for v in (z1, w1, z2, w2))
        call["argv"] = ["flow", "--eps", e, f"--init={init}",
                        "--duration", str(SESSION_SIZES["flow"])]
    else:
        call["argv"] = ["hill", "--eps", e, "--resolution", str(SESSION_SIZES["hill"])]
    return call
