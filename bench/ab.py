"""Paired A/B timing of the working tree's starktoric against another revision.

    python bench/ab.py --rev REV [--ops N]

The script loads ``src/starktoric`` of the working tree as ``starktoric`` and
the same directory at REV, unpacked from ``git archive``, as
``starktoric_ab``; every import inside the package is relative, so the two
trees live side by side in one interpreter.  Its ops are the benchmark's
``orbits`` ops: the first N of the list ``perfbench/inputs.py`` draws at
seed 1 for max(N, 9) ops (field strengths with the decade values and the
near-critical share, stratified soft-factor energies and starting phases,
the same Hill sample indices, the same order).  Only the starting state is
placed differently: each factor is moved from its turning point by its
phase times its period with the working tree's ``torus_act`` instead of
scipy's Jacobi functions, and w2 is then set from the zero level as there.
Each op runs on both trees ROUNDS times, the order alternating per op and
per round, so that drift in the machine's speed falls on both alike.  An
op makes the benchmark's calls (the regularized flow, both flow periods,
the torus action, the flow equivalence and three Hill queries), each run
on its own so that one that raises does not stop the rest.

It prints one line per key: ``wall`` (the ratio of the summed op times,
this tree over REV) and ``p50`` (the ratio of the median op times), each the
median over the rounds with the rounds' quartiles, and ``faster``, the ops
whose median time over the rounds is lower on this tree.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import math
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402  (the benchmark's draws; it needs numpy only)

SEED, ROUNDS = 1, 8  # the benchmark's default seed; timings per op and tree


def load_rev(rev: str, into: Path, name: str = "starktoric_ab"):
    """The package at ``rev``, unpacked under ``into`` and imported as ``name``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src/starktoric"],
                         cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12, 3.11.4 and later
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    package = into / "src" / "starktoric"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def zero_level_state(pkg, eps: float, c: float, phase1: float, phase2: float) -> tuple:
    """inputs.zero_level_state through the package's closed-form flows, without scipy."""
    a1sq = 4.0 * (2.0 - c) / (1.0 + math.sqrt(1.0 + 8.0 * eps * (2.0 - c)))
    start = pkg.levi_civita.RegularizedState(z=(math.sqrt(a1sq), 0.0),
                                             w=(0.0, math.sqrt(2.0 * c)))
    moved = pkg.dynamics.torus_act(phase1, phase2, start, eps)
    (z1, z2), (w1, w2) = moved.z.tolist(), moved.w.tolist()
    e1 = 0.5 * w1 * w1 + 0.5 * z1 * z1 + 0.5 * eps * z1**4
    w2sq = max(2.0 * (2.0 - e1) - z2 * z2 + eps * z2**4, 0.0)
    return z1, w1, z2, math.copysign(math.sqrt(w2sq), w2)


def orbit_ops(pkg, n: int) -> list[tuple]:
    """The first n (eps, state (z1, w1, z2, w2), Hill sample indices) of the orbits draw."""
    m = max(n, inputs.op_count("orbits", 0.0))  # the benchmark's least op count
    rng = np.random.default_rng([SEED, sum(map(ord, "orbits"))])  # as inputs.make_inputs
    eps = inputs.field_strengths(rng, m)
    cs = inputs._stratified(rng, m, 0.005, 1.995)
    ph1, ph2 = inputs._stratified(rng, m, 0.0, 1.0), inputs._stratified(rng, m, 0.0, 1.0)
    ops = [(e, zero_level_state(pkg, e, float(c), p1, p2), sorted(rng.choice(
                int(inputs.ORBIT_S_DURATION * 1000) + 1, inputs.ORBIT_HILL_POINTS,
                replace=False).tolist()))
           for e, c, p1, p2 in zip(eps, cs, ph1, ph2)]
    return [ops[i] for i in rng.permutation(m)[:n]]


def run_op(pkg, op) -> None:
    """One orbit op on the package ``pkg``, each call on its own as the benchmark runs it."""
    lc, dyn, sm = pkg.levi_civita, pkg.dynamics, pkg.stark_model
    plus, minus = pkg.periods.OscillatorSelector.PLUS, pkg.periods.OscillatorSelector.MINUS
    errors = (pkg.errors.DomainError, pkg.errors.NumericsError)
    eps, (z1, w1, z2, w2), hill = op
    state = lc.RegularizedState(z=(z1, z2), w=(w1, w2))
    parts = {
        "integrate": lambda: dyn.integrate_regularized(
            state, eps, duration=inputs.ORBIT_S_DURATION)[0],
        "periods": lambda: [dyn.measure_period(eps, e, sel) for e, sel
                            in zip(lc.energy_split(state, eps), (plus, minus))],
        "torus": lambda: dyn.torus_act(1.0, 1.0, state, eps),
        "lc": lambda: dyn.flow_equivalence(state, eps, s_duration=inputs.ORBIT_LC_DURATION),
    }
    done = {}
    for name, part in parts.items():
        try:
            done[name] = part()
        except errors:
            pass
    if "integrate" in done:  # without a trajectory the benchmark's Hill part stops at once
        try:
            for k in hill:
                sm.hill_classify(lc.lc_base(done["integrate"].states[k, :2]), eps)
        except errors:
            pass


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(q2), float(q3)


def compare(new, old, ops: list[tuple]) -> dict:
    """Per-round wall and p50 ratios (new over old) and the per-op faster count."""
    clock = time.perf_counter
    times = np.empty((ROUNDS, len(ops), 2))
    for r in range(ROUNDS):
        for i, op in enumerate(ops):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            for k in order:
                pkg = (new, old)[k]
                t0 = clock()
                run_op(pkg, op)
                times[r, i, k] = clock() - t0
    wall = times.sum(axis=1)
    p50 = np.median(times, axis=1)
    per_op = np.median(times, axis=0)
    return {
        "wall": quartiles(wall[:, 0] / wall[:, 1]),
        "p50": quartiles(p50[:, 0] / p50[:, 1]),
        "faster": (int(np.count_nonzero(per_op[:, 0] < per_op[:, 1])), len(ops)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the git revision to compare against")
    parser.add_argument("--ops", type=int, default=201, help="orbit ops (default 201)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    new = importlib.import_module("starktoric")
    with tempfile.TemporaryDirectory() as tmp:
        old = load_rev(args.rev, Path(tmp))
        ops = orbit_ops(new, args.ops)
        for pkg in (new, old):  # import every layer before the clock runs
            run_op(pkg, ops[0])
        result = compare(new, old, ops)
    print(f"rev {args.rev} ops {args.ops} rounds {ROUNDS} seed {SEED}")
    for key in ("wall", "p50"):
        q1, q2, q3 = result[key]
        print(f"{key} {q2:.4f} quartiles {q1:.4f} {q3:.4f}")
    print("faster {} of {}".format(*result["faster"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
