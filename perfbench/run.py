#!/usr/bin/env python3
"""starktoric benchmark: one workload run, checked against references.

    python3 perfbench/run.py --workload certify|orbits|session --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics untraced, the per-layer metrics with
--trace 1).  The lines before it give every metric with its unit, the
percentile behind op_tail_s, the outcome counts and the environment.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, here and in every child process, so that
# polyfit/lstsq do not compete with the serial loop on a small machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

WORKLOADS = ("certify", "orbits", "session")
SETUP_REPEATS = 11
IMPORTTIME_REPEATS = 3
WORKER_TIMEOUT_S = 150.0
# Time metrics are expressed at a reference machine speed: each measured
# interval is scaled by REF_LOOP_S over the mean time of the speed sampler's
# loop during that interval (README.md, "Times at a reference machine speed").
REF_LOOP_S = 0.001
SAMPLER_START_S = 0.5
IMPORT_MODULES = (
    "starktoric", "starktoric.cli", "starktoric.dynamics", "starktoric.elliptic",
    "starktoric.errors", "starktoric.levi_civita", "starktoric.periods",
    "starktoric.quadrature", "starktoric.stark_model", "starktoric.toric_profile",
    "scipy.ndimage",
)
WORK_UNITS = {
    "elliptic": "m_values", "quadrature": "panels", "periods": "energies",
    "levi_civita": "states", "stark_model": "points", "dynamics": "steps",
    "toric_profile": "samples", "cli": "commands",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=timeout)


@contextlib.contextmanager
def speed_sampler(tmp: Path):
    """Run worker.py's speed sampler on another core for the duration of the
    block; the list it yields is filled with the samples when the block ends."""
    out = tmp / "speed.json"
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "sampler", str(out)],
                            env=_env(), cwd=ROOT)
    samples: list = []
    try:
        time.sleep(SAMPLER_START_S)
        yield samples
    finally:
        proc.terminate()
        proc.wait(timeout=30)
    samples.extend(json.loads(out.read_text()))


def speed_factors(intervals: list, samples: list) -> list[float]:
    """REF_LOOP_S over the mean sampler loop time within each interval
    (widened by two sampling periods, so short intervals get samples too)."""
    import numpy as np

    t = np.array([s[0] for s in samples])
    dt = np.array([s[1] for s in samples])
    out = []
    for a, b in intervals:
        lo, hi = np.searchsorted(t, [a - 0.05, b + 0.05])
        if hi <= lo:
            raise RuntimeError("no speed sample within a measured interval")
        out.append(REF_LOOP_S / float(dt[lo:hi].mean()))
    return out


def measure_setup(workload: str) -> list[dict]:
    """Import + warm-up time and monotonic interval of fresh interpreters."""
    return [json.loads(_python([str(HERE / "worker.py"), "setup", workload], 60).stdout)
            for _ in range(SETUP_REPEATS)]


def run_worker(workload: str, ops: list[dict], tmp: Path, spans_dir: Path | None) -> dict:
    tag = "traced" if spans_dir else "plain"
    spec, result = tmp / f"ops-{tag}.json", tmp / f"result-{tag}.json"
    spec.write_text(json.dumps({"workload": workload, "ops": ops}))
    args = [str(HERE / "worker.py"), "run", str(spec), str(result)]
    if spans_dir is not None:
        spans_dir.mkdir()
        args.append(str(spans_dir))
    _python(args, WORKER_TIMEOUT_S)
    return json.loads(result.read_text())


def import_times() -> dict[str, float]:
    """Cumulative import time per module, median over fresh interpreters.

    stark_model loads scipy.ndimage through scipy's lazy attribute access,
    which -X importtime does not list as a line of its own; its time is then
    the sum over its direct submodules.
    """
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_REPEATS):
        err = _python(["-X", "importtime", "-c", "import starktoric.cli"], 60).stderr
        rows = []
        for line in err.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                name = fields[2].rstrip()
                rows.append((name.strip(), len(name) - len(name.lstrip()), int(fields[1]) * 1e-6))
        cumulative = {name: secs for name, _, secs in rows}
        for module in IMPORT_MODULES:
            if module not in cumulative:
                subs = [(depth, secs) for name, depth, secs in rows
                        if name.startswith(module + ".")]
                top = min((depth for depth, _ in subs), default=0)
                cumulative[module] = sum(secs for depth, secs in subs if depth == top)
            samples[module].append(cumulative[module])
    return {m: statistics.median(v) for m, v in samples.items()}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def evaluate(workload: str, ops: list[dict], result: dict) -> dict:
    """Outcome counts and accuracy of one worker result against the references."""
    from reference import CHECKERS

    counts = {"ok": 0, "refused": 0, "error": 0, "wrong": 0}
    per_op = []
    checker = CHECKERS[workload]
    for i, op in enumerate(ops):
        if i >= len(result["outputs"]):
            outcome, worst, latency = "error", 0.0, None  # cut off by the deadline
        else:
            ck = checker(op, result["outputs"][i])
            outcome, worst = ck.outcome, max(ck.errors, default=0.0)
            latency = result["latencies"][i]
        counts[outcome] += 1
        per_op.append({"kind": op["kind"], "eps": op["eps"], "outcome": outcome,
                       "max_rel_err": worst, "latency_s": latency})
    worst = max(p["max_rel_err"] for p in per_op)
    digits = 16.0 if worst <= 1e-16 else min(16.0, -math.log10(worst))
    return {"counts": counts, "accuracy_digits": digits, "ops": per_op}


def environment(args) -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "commit": commit, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def end_to_end(workload: str, ops: list[dict], tmp: Path) -> tuple[dict, list, str]:
    with speed_sampler(tmp) as samples:
        setups = measure_setup(workload)
        result = run_worker(workload, ops, tmp, None)
    ev = evaluate(workload, ops, result)
    setup_f = speed_factors([r["interval"] for r in setups], samples)
    lat_f = speed_factors(result["intervals"], samples)
    raw_lat = result["latencies"]
    lat = [x * f for x, f in zip(raw_lat, lat_f)]
    op_tail, pct = tail(lat)
    failed = len(ops) - ev["counts"]["ok"]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] * f for r, f in zip(setups, setup_f)), "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (op_tail, "s"),
        # one pseudo-failure keeps the ratio positive once every failure is fixed
        "fail_ratio": ((failed + 1) / (len(ops) + 1), "ratio"),
        "accuracy_digits": (ev["accuracy_digits"], "digits"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    raw = {"setup_s": statistics.median(r["setup_s"] for r in setups),
           "wall_s": sum(raw_lat), "op_p50_s": statistics.median(raw_lat),
           "speed": statistics.median(lat_f)}
    note = f"op_tail_s is p{pct:.1f} of {len(lat)} ops; raw {json.dumps(raw)}"
    return metrics, [ev], note


def per_layer(workload: str, ops: list[dict], tmp: Path) -> tuple[dict, list, str]:
    from spans import layer_metrics

    spans_dir = OUT / f"spans-{workload}"  # the last traced run's spans stay here
    shutil.rmtree(spans_dir, ignore_errors=True)
    with speed_sampler(tmp) as samples:
        plain = run_worker(workload, ops, tmp, None)
        traced = run_worker(workload, ops, tmp, spans_dir)
    span_files = sorted(spans_dir.glob("*.npz"))
    layers = layer_metrics(span_files)

    metrics = {}
    for name, value in layers.items():
        layer, what = name.split(".", 1)
        unit = {"calls": "count", "self_s": "s", "work": WORK_UNITS.get(layer),
                "work_per_s": f"{WORK_UNITS.get(layer)}/s", "failed": "count",
                "panels_per_integral": "panels/integral"}[what]
        metrics[name] = (value, unit)
    for module, secs in import_times().items():
        metrics[f"setup.import_{module}_s"] = (secs, "s")
    by_sub = {}
    if workload == "session":
        for op, lat in zip(ops, plain["latencies"]):
            by_sub.setdefault(op["kind"], []).append(lat)
    from inputs import SUBCOMMANDS

    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = (statistics.median(by_sub[sub]) if sub in by_sub else 0.0, "s")
    wall = [sum(x * f for x, f in zip(r["latencies"], speed_factors(r["intervals"], samples)))
            for r in (plain, traced)]
    metrics["trace.overhead_s"] = (wall[1] - wall[0], "s")
    evs = [evaluate(workload, ops, r) for r in (traced, plain)]
    return metrics, evs, f"spans in {spans_dir.relative_to(ROOT)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starktoric" / "__init__.py").is_file():
        print(f"error: no starktoric package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from inputs import make_inputs

    ops = make_inputs(args.workload, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        measure = per_layer if args.trace else end_to_end
        metrics, evs, note = measure(args.workload, ops, Path(tmp))
    ev = evs[0]
    counts = ev["counts"]
    env = environment(args)
    print(f"# {args.workload} seed={args.seed} ops={len(ops)} {note}")
    print(f"# outcomes {json.dumps(counts)}")
    print(f"# env {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    line = {
        "correct": all(e["counts"]["wrong"] == 0 for e in evs),
        "attempted": len(ops),
        "failed": len(ops) - counts["ok"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({**line, "outcomes": counts, "env": env, "ops": ev["ops"]}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
