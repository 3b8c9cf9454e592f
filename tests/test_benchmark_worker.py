"""The benchmark's worker entry points run against this checkout."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = str(ROOT / "perfbench" / "worker.py")


def _worker(*argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, WORKER, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def test_worker_setups_and_a_traced_cli_call_run(tmp_path):
    # the traced call wraps every function in the layers' __all__, so a
    # name the tracer expects and the package lost fails here
    # a flow call passes its step by keyword: the tracer reads a third
    # positional argument of flow_equivalence as a record with a step field
    spans = tmp_path / "x.npz"
    flow = ["flow", "--eps", "0.05", "--init=1,0.9,-0.8,1.233077450933233",
            "--duration", "0.5", "--step", "0.01"]
    for argv in (["setup", "certify"], ["setup", "orbits"],
                 ["cli", str(spans), "verify", "--eps", "0.05", "--samples", "5"],
                 ["cli", str(spans), *flow], ["cli", str(spans), *flow, "--check-lc"]):
        done = _worker(*argv)
        assert done.returncode == 0, (argv, done.stderr)
    assert spans.exists()


def _checked_run(tmp_path, monkeypatch, workload, check):
    """A 2-second run's ops through the worker, checked by the benchmark's
    own references (mpmath periods and actions, scipy's Jacobi flows): the
    op count, each op's outcome and the worst error."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs
    import reference

    ops = inputs.make_inputs(workload, 1, 2)
    spec, result = tmp_path / "inputs.json", tmp_path / "result.json"
    spec.write_text(json.dumps({"workload": workload, "ops": ops}))
    done = _worker("run", str(spec), str(result))
    assert done.returncode == 0, done.stderr
    outputs = json.loads(result.read_text())["outputs"]
    assert len(outputs) == len(ops)
    checks = [getattr(reference, check)(op, out) for op, out in zip(ops, outputs)]
    return len(ops), [ck.outcome for ck in checks], max(err for ck in checks for err in ck.errors)


def test_worker_orbits_pass_the_benchmark_check(tmp_path, monkeypatch):
    count, outcomes, worst = _checked_run(tmp_path, monkeypatch, "orbits", "check_orbit")
    # an orbit whose lifted deviation exceeds the benchmark's bound is refused, not wrong
    assert count == 9 and "wrong" not in outcomes
    assert worst <= 1e-12


def test_worker_certify_passes_the_benchmark_check(tmp_path, monkeypatch):
    count, outcomes, worst = _checked_run(tmp_path, monkeypatch, "certify", "check_certify")
    assert count == 9 and outcomes == ["ok"] * count
    assert worst <= 4e-15  # 8.0e-16 when this was written


def test_worker_session_passes_the_benchmark_check(tmp_path, monkeypatch):
    count, outcomes, worst = _checked_run(tmp_path, monkeypatch, "session", "check_session")
    assert count == 10 and outcomes == ["ok"] * count
    assert worst <= 4e-15  # 5.5e-16 when this was written
