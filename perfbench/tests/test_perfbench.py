"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q

They run the benchmark at its smallest size (a few ops per workload), so
the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _metric_lines(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, _, unit = line.split()
            printed[name] = unit
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    printed, result = _metric_lines(proc.stdout)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert printed == wanted
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] == inputs.op_count(workload, 1)
    # the decade field strengths 1e-8 ... 1e-3 fail on every workload at this commit
    assert result["failed"] >= 1


def test_traced_run_prints_every_per_layer_metric():
    proc = _bench("--workload", "session", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    printed, result = _metric_lines(proc.stdout)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert printed == wanted
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["cli.calls"] == result["attempted"]
    assert values["cli.hill_s"] > 0 and values["setup.import_scipy.ndimage_s"] > 0


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _orbit_ops():
    # every op here succeeds, so any failure below comes from the reference
    return [op for op in inputs.make_inputs("orbits", 3, 1) if op["eps"] >= 0.005][:2]


def _certify_ops():
    return [op for op in inputs.make_inputs("certify", 3, 1) if op["eps"] >= 0.005][:1]


@pytest.mark.parametrize("workload, make_ops, run_op, corrupt", [
    ("orbits", _orbit_ops, worker._op_orbit, "tau"),
    ("certify", _certify_ops, worker._op_certify, "action"),
])
def test_corrupted_reference_raises_fail_ratio(monkeypatch, workload, make_ops, run_op, corrupt):
    ops = make_ops()
    result = {"outputs": [run_op(op) for op in ops], "latencies": [1.0] * len(ops)}
    clean = run.evaluate(workload, ops, result)["counts"]
    assert clean["ok"] == len(ops)  # fail_ratio counts no failure
    exact = getattr(reference, corrupt)
    monkeypatch.setattr(reference, corrupt, lambda *a: exact(*a) * (1.0 + 1e-5))
    counts = run.evaluate(workload, ops, result)["counts"]
    assert counts["wrong"] == len(ops)  # every op now fails: fail_ratio rises to its maximum


def test_corrupted_hill_reference_is_caught(monkeypatch):
    op = {"kind": "hill", "eps": 0.05, "argv": []}
    centers = [-1.5, -0.5, 0.5, 1.5]
    q1, q2 = zip(*[(a, b) for a in centers for b in centers])
    # the raster covers the disk inscribed in the grid square, here radius 2
    cls = "".join(reference.hill_class(q1, q2, 0.05, radius=2.0).tolist())
    out = {"rc": 0, "parsed": {"header": "q1,q2,class", "centers": centers, "cls": cls}}
    monkeypatch.setitem(inputs.SESSION_SIZES, "hill", len(centers))
    assert reference.check_session(op, out).outcome == "ok"
    assert "B" in cls
    out["parsed"]["cls"] = cls.replace("B", "U", 1)
    assert reference.check_session(op, out).outcome == "wrong"


def test_spans_give_self_time_and_work(tmp_path):
    from starktoric import toric_profile

    recorder = spans.Recorder()
    recorder.install()
    try:
        toric_profile.verify_convexity(0.05, 9)
    finally:
        recorder.save(tmp_path / "s.npz")
        # undo the wrapping for later tests in this process
        for mod in list(sys.modules):
            if mod.startswith("starktoric"):
                del sys.modules[mod]
    m = spans.layer_metrics([tmp_path / "s.npz"])
    assert m["toric_profile.calls"] >= 2  # verify_convexity and its profile_sample
    assert m["toric_profile.work"] == 9  # only the outermost call counts
    assert m["quadrature.calls"] == 16  # one integral per grid interval and action
    assert m["quadrature.work"] >= m["quadrature.calls"]
    assert m["periods.work"] > 0 and m["elliptic.work"] >= m["periods.work"]
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert 0 < total
    assert all(m[f"{layer}.self_s"] >= 0 for layer in spans.LAYERS)
