"""SHA-256 fingerprints of the package's outputs, one per section.

    PYTHONPATH=src python tests/fingerprint.py

prints one ``section sha256`` line per section, in about a second.  Equal
lines at two checkouts mean equal bytes on these inputs: every README
command's stdout, stderr, ``--out`` file and exit code, and the library's
outputs on seeded inputs, hashed as raw doubles.  A call that raises
contributes its family (``DomainError`` or ``NumericsError``) and its
message, not the class's own name; the ``domain`` section hashes only such
refusals of malformed and out-of-range arguments.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import tempfile
from pathlib import Path

import numpy as np

from starktoric.cli import main
from starktoric.dynamics import flow_equivalence, integrate_regularized, measure_period, torus_act
from starktoric.elliptic import ellip_k
from starktoric.errors import DomainError, NumericsError
from starktoric.levi_civita import RegularizedState, energy_split, lc_base
from starktoric.periods import OscillatorSelector, period_oracle, tau1, turning_point
from starktoric.stark_model import PlanarState, hill_classify, hill_grid, potential, rescale_state
from starktoric.toric_profile import (moment_image, profile_sample, profile_second_derivative,
                                      verify_convexity)

README = Path(__file__).resolve().parents[1] / "README.md"
SELECTORS = (OscillatorSelector.PLUS, OscillatorSelector.MINUS)
# the field strengths of the profile sweep, from the series regime to near 1/16
SWEEP = (1e-8, 1e-3, 0.01, 1.0 / 64.0, 0.03, 0.05, 0.0624)


class _Digest:
    """SHA-256 over a stream of tagged values: floats and arrays as raw
    doubles, everything else as its repr."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *values) -> None:
        for value in values:
            if isinstance(value, np.ndarray):
                self._hash.update(f"a{value.dtype.str}{value.shape}".encode())
                self._hash.update(np.ascontiguousarray(value).tobytes())
            elif isinstance(value, float):
                self._hash.update(b"f" + np.float64(value).tobytes())
            else:
                self._hash.update(f"r{value!r}".encode())

    def call(self, f, *args) -> None:
        """Add what f(*args) returns, or the family and message of what it raises."""
        try:
            out = f(*args)
        except (DomainError, NumericsError) as exc:
            family = "DomainError" if isinstance(exc, DomainError) else "NumericsError"
            self.add(family, str(exc))
            return
        self.add(*(out if isinstance(out, tuple) else (out,)))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def readme_commands() -> list[list[str]]:
    """The argument lists of the ``starktoric ...`` lines of the README's command section."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for line in section.splitlines()
            if line.startswith("starktoric ")]


def _main(argv: list[str]) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli(digest: _Digest) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in readme_commands():
                code, out, err = _main(argv)
                path = argv[argv.index("--out") + 1] if "--out" in argv else "-"
                written = Path(path).read_text(encoding="utf-8") if path != "-" else None
                digest.add(argv, code, out, err, written)
        finally:
            os.chdir(here)


def bounded_states(n: int = 60, seed: int = 20211) -> list[tuple[RegularizedState, float]]:
    """n seeded states on the zero level set, each factor inside its well,
    with their field strengths in [1e-3, 0.06]."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        eps = float(rng.uniform(1e-3, 0.06))
        z1, w1, z2 = rng.uniform(-1.0, 1.0, 3).tolist()
        e1 = 0.5 * w1 * w1 + 0.5 * z1 * z1 + 0.5 * eps * z1**4
        w2 = math.copysign(math.sqrt(2.0 * (2.0 - e1) - z2 * z2 + eps * z2**4),
                           float(rng.uniform(-1.0, 1.0)))
        states.append((RegularizedState(z=(z1, z2), w=(w1, w2)), eps))
    return states


def _orbit(state: RegularizedState, eps: float, step: float, duration: float) -> tuple:
    """integrate_regularized's times, states, energy drift and physical times."""
    traj, phys = integrate_regularized(state, eps, step, duration)
    return (*traj, phys)


def _torus(state: RegularizedState, eps: float) -> tuple:
    moved = torus_act(0.37, 1.3, state, eps)
    return moved.z, moved.w


def _flows(digest: _Digest) -> None:
    for state, eps in bounded_states():
        for step in (1e-3, 1e-2):
            digest.call(_orbit, state, eps, step, 1.5)
        digest.call(flow_equivalence, state, eps, 1e-2, 0.5)
        digest.call(_torus, state, eps)
        c = energy_split(state, eps).e2
        for sel in SELECTORS:
            digest.call(measure_period, eps, c, sel)


def escaping_states(n: int = 40, seed: int = 16) -> list[tuple[RegularizedState, float]]:
    """The soft factor outside its well, one state per case of the closed
    form (beyond the saddle, at energy 0, below it, above and on the
    separatrix), then n seeded soft starts out to |z2| = 6, inside the well
    or not, with the stiff factor at (0.5, 0.2)."""
    eps = 0.05
    named = [(4.0, -0.5, eps), (8.0, 0.0, 1.0 / 64.0), (10.0, 0.0, eps), (3.3, -1.0, eps),
             (1.0, math.sqrt(eps) * (1.0 - 10.0), eps)]
    rng = np.random.default_rng(seed)
    seeded = [(*rng.uniform((-6.0, -3.0), (6.0, 3.0)).tolist(), float(rng.uniform(0.01, 0.06)))
              for _ in range(n)]
    return [(RegularizedState(z=(0.5, z), w=(0.2, w)), e) for z, w, e in named + seeded]


def _escapes(digest: _Digest) -> None:
    for state, eps in escaping_states():
        for step, duration in ((1e-2, 0.5), (1e-2, 3.0), (1e9, 1e9)):
            digest.call(_orbit, state, eps, step, duration)


# the orbits benchmark's seed-2 state at eps = 1.7e-4: its lifted orbit passes
# within 9.8e-4 of the origin in s < 1 (z1, w1, z2, w2, eps)
SEED_2_ORBIT = (-1.4422890813293059, 1.0874624568860138, 0.6835688280192812,
                -0.5189054124917071, 0.00016998309374668635)


def near_collision_states(n: int = 40, seed: int = 47) -> list[tuple[RegularizedState, float]]:
    """n seeded states on the zero level set whose lifted orbits pass within
    0.01 of the origin: a point with |q| = |z|^2/2 in [1e-4, 0.01] flowed back
    by a time s in [0, 0.4] (forward, with w reversed), at field strengths in
    [1e-4, 0.06]."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        eps, s = float(rng.uniform(1e-4, 0.06)), float(rng.uniform(0.0, 0.4))
        r, angle = math.sqrt(2.0 * float(rng.uniform(1e-4, 0.01))), float(rng.uniform(0, math.pi))
        z1, z2, w1 = r * math.cos(angle), r * math.sin(angle), float(rng.uniform(-1.9, 1.9))
        e1 = 0.5 * w1 * w1 + 0.5 * z1 * z1 + 0.5 * eps * z1**4
        w2 = math.copysign(math.sqrt(2.0 * (2.0 - e1) - z2 * z2 + eps * z2**4),
                           float(rng.uniform(-1.0, 1.0)))
        traj, _ = integrate_regularized(RegularizedState(z=(z1, z2), w=(-w1, -w2)), eps, 0.5, s)
        z1, z2, w1, w2 = traj.states[-1].tolist()
        states.append((RegularizedState(z=(z1, z2), w=(-w1, -w2)), eps))
    return states


def _collisions(digest: _Digest) -> None:
    z1, w1, z2, w2, eps = SEED_2_ORBIT
    digest.call(flow_equivalence, RegularizedState(z=(z1, z2), w=(w1, w2)), eps, 1e-3, 1.0)
    digest.add(*_main(["flow", "--eps", repr(eps), f"--init={z1!r},{w1!r},{z2!r},{w2!r}",
                       "--duration", "1", "--check-lc"]))
    for state, eps in near_collision_states():
        digest.call(flow_equivalence, state, eps, 1e-2, 0.5)


def _profiles(digest: _Digest) -> None:
    for eps in SWEEP:
        for n in (201, 2001):
            digest.add(*profile_sample(eps, n))
            digest.add(json.dumps(verify_convexity(eps, n, 1e-4).to_dict()))


def _hill(digest: _Digest) -> None:
    for eps, resolution in ((0.05, 200), (0.0624, 60), (0.001, 64), (5e-324, 40)):
        digest.add(*hill_grid(eps, resolution))
    rng = np.random.default_rng(7)
    for q in rng.uniform(-12.0, 6.0, (400, 2)).tolist():
        digest.add(hill_classify(q, 0.05).value)


def _domain(digest: _Digest) -> None:
    """The refusals of malformed arguments (the rows of tests/test_stark_model.py's
    malformed-argument table that predate complex and out-of-range values) and
    of arguments out of range: eps, step, duration, tolerance and torus time
    negative, inf and nan."""
    state, plus = RegularizedState(z=(1.0, -0.8), w=(0.9, 1.2)), OscillatorSelector.PLUS
    for f, *args in [
        (hill_classify, (1, 0, 0), 0.05), (hill_classify, ("a", 0), 0.05),
        (potential, (1, 0, 0), 0.05), (lc_base, (1, 2, 3)), (PlanarState, (1, 0, 0), (0, 1)),
        (PlanarState, (1, 0), (0, 1, 2)), (RegularizedState, (1,), (0, 1)),
        (RegularizedState, (1, 0), None), (tau1, "x", 1.0), (tau1, None, 1.0), (tau1, 0.05, "x"),
        (moment_image, 0.05, "x"), (moment_image, 0.05, [1.0]), (period_oracle, 0.05, [1.0], plus),
        (profile_second_derivative, 0.05, "x"), (tau1, 0.05, ["x"]),
        (turning_point, 0.05, ["x"], plus), (profile_second_derivative, 0.05, ["x"]),
        (tau1, 0.05, [[1.0], [1.0, 2.0]]), (ellip_k, "x"), (ellip_k, ["x"]),
        (integrate_regularized, state, 0.05, 1e-3, "x"), (torus_act, "a", 0.0, state, 0.05),
        (verify_convexity, 0.05, 11, "x"), (rescale_state, "x", PlanarState((1, 0), (0, 1))),
    ]:
        digest.call(f, *args)
    for bad in (-1.0, math.inf, math.nan):
        for f, *args in [
            (tau1, bad, 1.0), (verify_convexity, bad, 11), (torus_act, 0.1, 0.2, state, bad),
            (integrate_regularized, state, 0.05, bad), (integrate_regularized, state, 0.05, 0.1, bad),
            (verify_convexity, 0.05, 11, bad), (torus_act, bad, 0.0, state, 0.05),
        ]:
            digest.call(f, *args)


SECTIONS = {"cli": _cli, "flows": _flows, "escapes": _escapes, "collisions": _collisions,
            "profiles": _profiles, "hill": _hill, "domain": _domain}


def fingerprint(section: str) -> str:
    digest = _Digest()
    SECTIONS[section](digest)
    return digest.hexdigest()


if __name__ == "__main__":
    for name in SECTIONS:
        print(name, fingerprint(name))
