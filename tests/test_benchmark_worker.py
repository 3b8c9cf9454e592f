"""The benchmark's worker entry points run against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_worker_setups_and_a_traced_cli_call_run(tmp_path):
    # the traced call wraps every function in the layers' __all__, so a
    # name the tracer expects and the package lost fails here
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    worker = str(ROOT / "perfbench" / "worker.py")
    spans = tmp_path / "x.npz"
    for argv in (["setup", "certify"], ["setup", "orbits"],
                 ["cli", str(spans), "verify", "--eps", "0.05", "--samples", "5"]):
        done = subprocess.run([sys.executable, worker, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, (argv, done.stderr)
    assert spans.exists()
