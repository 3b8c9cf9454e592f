"""Workload process: set-up, the timed closed loop, and traced CLI calls.

    worker.py setup WORKLOAD            time import + warm-up, print it and
                                        its monotonic interval as JSON
    worker.py sampler OUT               time a fixed loop every 20 ms until
                                        SIGTERM, then write the samples to OUT
    worker.py run INPUTS RESULT [SPANS] run the op list of INPUTS (JSON),
                                        write RESULT (JSON); with SPANS,
                                        trace the layers into that directory
    worker.py cli SPANS ARG...          one traced `starktoric` CLI call

The loop is serial and single-threaded: each op starts when the previous
one has finished.  Each op's monotonic interval is kept, so run.py can
express its latency at a reference machine speed.  Outputs are only collected here; run.py checks them
against references after this process has exited, so reference cost never
enters the timed phase.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import inputs

# A run's timed phase stops issuing ops after this many seconds; the ops it
# did not reach count as failed, and the process still exits within the
# 180 s a run is allowed.
DEADLINE_S = 60.0
CLI_TIMEOUT_S = 30.0
SAMPLE_EVERY_S = 0.02
HERE = Path(__file__).resolve().parent


def _planar_zero_level(eps: float) -> tuple:
    # plain math, so the timed set-up imports nothing but starktoric
    z1, w1, z2 = 1.0, 0.9, -0.8
    e1 = 0.5 * w1 * w1 + 0.5 * z1 * z1 + 0.5 * eps * z1**4
    w2 = math.sqrt(2.0 * (2.0 - e1) - z2 * z2 + eps * z2**4)
    return (z1, z2), (w1, w2)


def warm_up(workload: str) -> None:
    """Import starktoric and make one minimal call of each entry point used."""
    if workload == "session":
        import starktoric.cli  # noqa: F401
        return
    import starktoric  # noqa: F401
    from starktoric import dynamics, levi_civita, stark_model, toric_profile
    from starktoric.periods import OscillatorSelector

    if workload == "certify":
        toric_profile.verify_convexity(0.05, 5)
        toric_profile.moment_image(0.05, 1.0)
        toric_profile.profile_second_derivative(0.05, [0.5, 1.5])
    else:
        z, w = _planar_zero_level(0.05)
        state = levi_civita.RegularizedState(z=z, w=w)
        traj, _ = dynamics.integrate_regularized(state, 0.05, duration=0.01)
        levi_civita.lc_base(traj.states[-1, :2])
        levi_civita.energy_split(state, 0.05)
        dynamics.measure_period(0.05, 1.0, OscillatorSelector.PLUS)
        dynamics.torus_act(0.001, 0.001, state, 0.05)
        dynamics.flow_equivalence(state, 0.05, s_duration=0.01)
        stark_model.hill_classify((0.5, 0.0), 0.05)


def _part(out: dict, name: str, fn) -> None:
    """Run one call of an op; a raised error is recorded as that part's outcome."""
    try:
        out[name] = fn()
    except Exception as exc:  # every failure is an outcome to count, not a crash
        out[name] = {"error": f"{type(exc).__name__}: {exc}"}


def _op_certify(op: dict) -> dict:
    import numpy as np
    from starktoric import toric_profile as tp

    eps, out = op["eps"], {}

    def verify():
        cert = tp.verify_convexity(eps, inputs.CERTIFY_SAMPLES)
        return {
            "verdict": cert.verdict, "min_f_second": cert.min_f_second,
            "max_fd_residual": cert.max_fd_residual, "fd_checked": cert.fd_checked,
            "samples": len(cert.c_grid), "c_ends": [cert.c_grid[0], cert.c_grid[-1]],
        }

    def moment():
        pts = [tp.moment_image(eps, c) for c in op["slices"][:inputs.CERTIFY_MOMENT_SLICES]]
        return [[p.c, p.x, p.y] for p in pts]

    _part(out, "verify", verify)
    _part(out, "moment", moment)
    _part(out, "f2", lambda: np.asarray(
        tp.profile_second_derivative(eps, np.array(op["slices"]))).tolist())
    return out


def _op_orbit(op: dict) -> dict:
    from starktoric import dynamics as dyn, levi_civita as lc, stark_model as sm
    from starktoric.periods import OscillatorSelector

    eps, out = op["eps"], {}
    z1, w1, z2, w2 = op["state"]
    state = lc.RegularizedState(z=(z1, z2), w=(w1, w2))
    traj = []

    def integrate():
        tr, phys = dyn.integrate_regularized(state, eps, duration=inputs.ORBIT_S_DURATION)
        traj.append(tr)
        return {"final": tr.states[-1].tolist(), "t": float(phys[-1]),
                "steps": len(tr.times) - 1}

    def periods():
        split = lc.energy_split(state, eps)
        return {"e": [split.e1, split.e2],
                "tau": [dyn.measure_period(eps, split.e1, OscillatorSelector.PLUS),
                        dyn.measure_period(eps, split.e2, OscillatorSelector.MINUS)]}

    def torus():
        moved = dyn.torus_act(1.0, 1.0, state, eps)
        return [*moved.z, *moved.w]

    def hill():
        if not traj:
            raise RuntimeError("no trajectory to project")
        pts = [lc.lc_base(traj[0].states[k, :2]) for k in op["hill_steps"]]
        return {"q": [p.tolist() for p in pts],
                "cls": [sm.hill_classify(p, eps).value for p in pts]}

    _part(out, "integrate", integrate)
    _part(out, "periods", periods)
    _part(out, "torus", torus)
    _part(out, "lc", lambda: dyn.flow_equivalence(
        state, eps, s_duration=inputs.ORBIT_LC_DURATION))
    _part(out, "hill", hill)
    return out


def _parse_cli(op: dict, stdout: str) -> dict:
    sub = op["kind"]
    if sub == "periods":
        return {f[0]: float(f[1]) for f in (line.split() for line in stdout.splitlines())}
    if sub == "verify":
        return {"certs": [{k: c[k] for k in ("verdict", "min_f_second", "samples")}
                          for c in json.loads(stdout)]}
    lines = stdout.splitlines()
    if sub == "profile":
        rows = lines[1:]
        return {"header": lines[0], "n": len(rows),
                "rows": [[float(v) for v in rows[i].split(",")] for i in op["rows"]]}
    if sub == "flow":
        rows = [line for line in lines[1:] if not line.startswith("#")]
        return {"header": lines[0], "n": len(rows),
                "last": [float(v) for v in rows[-1].split(",")]}
    q1, cls = [], []
    for line in lines[1:]:
        a, _, k = line.split(",")
        if not q1 or a != q1[-1]:
            q1.append(a)
        cls.append(k)
    return {"header": lines[0], "centers": [float(v) for v in q1], "cls": "".join(cls)}


def sample_speed(out: Path) -> None:
    """Time a fixed loop every SAMPLE_EVERY_S until SIGTERM, then write the
    (monotonic time, loop seconds) pairs to out.

    The loop does not touch starktoric; run.py uses it to express measured
    intervals at a reference machine speed.
    """
    import numpy as np

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    samples = []
    x = np.linspace(0.1, 0.9, 32)
    try:
        while True:
            t0 = time.perf_counter()
            acc = 0.0
            for i in range(300):
                acc += float(np.sqrt(1.0 - x * x) @ x) + math.sqrt(i + 1.0)
            samples.append((time.monotonic(), time.perf_counter() - t0))
            time.sleep(SAMPLE_EVERY_S)
    finally:
        out.write_text(json.dumps(samples))


def _timed_loop(ops: list[dict], run_one) -> tuple[list, list, list]:
    """Run the ops one after another; return results, latencies and the
    (start, end) monotonic interval of each op."""
    results, latencies, intervals = [], [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if time.perf_counter() - start > DEADLINE_S:
            break
        m0, t0 = time.monotonic(), time.perf_counter()
        results.append(run_one(i, op))
        latencies.append(time.perf_counter() - t0)
        intervals.append((m0, time.monotonic()))
    return results, latencies, intervals


def _run_session(ops: list[dict], spans_dir: Path | None):
    def call(i, op):
        if spans_dir is None:
            cmd = [sys.executable, "-m", "starktoric.cli", *op["argv"]]
        else:
            cmd = [sys.executable, str(HERE / "worker.py"), "cli",
                   str(spans_dir / f"cli-{i}.npz"), *op["argv"]]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", "timed out"
        return proc.returncode, proc.stdout, proc.stderr

    raw, latencies, intervals = _timed_loop(ops, call)
    outputs = []
    for op, (rc, stdout, stderr) in zip(ops, raw):
        out = {"rc": rc, "stderr": stderr.strip().splitlines()[-1:]}
        if rc == 0 or (rc == 1 and op["kind"] == "verify"):
            _part(out, "parsed", lambda: _parse_cli(op, stdout))
        outputs.append(out)
    return outputs, latencies, intervals


def _run_inprocess(workload: str, ops: list[dict], spans_dir: Path | None):
    warm_up(workload)
    recorder = None
    if spans_dir is not None:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    run_op = _op_certify if workload == "certify" else _op_orbit
    result = _timed_loop(ops, lambda i, op: run_op(op))
    if recorder is not None:
        recorder.save(spans_dir / "worker.npz")
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        m0, t0 = time.monotonic(), time.perf_counter()
        warm_up(argv[1])
        setup_s = time.perf_counter() - t0
        print(json.dumps({"setup_s": setup_s, "interval": [m0, time.monotonic()]}))
        return 0
    if mode == "sampler":
        sample_speed(Path(argv[1]))
        return 0
    if mode == "cli":
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
        from starktoric import cli

        try:
            return cli.main(argv[2:])
        finally:
            recorder.save(Path(argv[1]))
    if mode == "run":
        spec = json.loads(Path(argv[1]).read_text())
        spans_dir = Path(argv[3]) if len(argv) > 3 else None
        workload, ops = spec["workload"], spec["ops"]
        if workload == "session":
            outputs, latencies, intervals = _run_session(ops, spans_dir)
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            outputs, latencies, intervals = _run_inprocess(workload, ops, spans_dir)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        Path(argv[2]).write_text(json.dumps({
            "latencies": latencies, "intervals": intervals, "outputs": outputs,
            "peak_rss_mb": rss / 1024.0,
        }))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
