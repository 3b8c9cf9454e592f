import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from starktoric.cli import main
from starktoric.stark_model import analysis_radius
from starktoric.toric_profile import profile_sample

TWO_PI = 2.0 * math.pi


def run(*args):
    return main(list(args))


def test_periods_at_zero_slice(capsys):
    assert run("periods", "--eps", "0.05", "--c", "0") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        name, value, _, oracle, _, resid = line.split()
        assert name in ("tau1", "tau2")
        assert float(value) == pytest.approx(TWO_PI, rel=1e-12)
        assert float(oracle) == pytest.approx(TWO_PI, rel=1e-15)
        assert float(resid) < 1e-12


def test_periods_formula_vs_oracle(capsys):
    assert run("periods", "--eps", "0.05", "--c", "1") == 0
    for line in capsys.readouterr().out.strip().splitlines():
        assert float(line.split()[5]) <= 1e-9


def test_periods_beyond_separatrix_exits_2(capsys):
    assert run("periods", "--eps", "0.05", "--c", "3", "--which", "minus") == 2
    assert "error" in capsys.readouterr().err


def test_profile_csv(tmp_path):
    out = tmp_path / "profile.csv"
    assert run("profile", "--eps", "0.05", "--samples", "64", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "c,x,y,slope,f_second"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 64
    xs = [r[1] for r in rows]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert all(r[4] > 0.0 for r in rows)


def test_profile_csv_roundtrips_doubles(tmp_path):
    out = tmp_path / "profile.csv"
    assert run("profile", "--eps", "0.05", "--samples", "16", "--out", str(out)) == 0
    prof = profile_sample(0.05, 16)
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    for row, point, slope, second in zip(
        rows, prof.samples, prof.slopes, prof.second_derivs
    ):
        assert float(row[0]) == point.c
        assert float(row[1]) == point.x
        assert float(row[2]) == point.y
        assert float(row[3]) == slope
        assert float(row[4]) == second


def test_profile_ball_limit(tmp_path):
    out = tmp_path / "ball.csv"
    assert run("profile", "--eps", "1e-6", "--samples", "64", "--out", str(out)) == 0
    for line in out.read_text().strip().splitlines()[1:]:
        c, x, y, slope, second = map(float, line.split(","))
        assert abs(x + y - 4.0 * math.pi) < 1e-3


def test_profile_regime_exits_2():
    assert run("profile", "--eps", "0.2", "--samples", "16") == 2


def test_verify_passes(tmp_path):
    out = tmp_path / "certs.json"
    assert (
        run(
            "verify",
            "--eps",
            "0.01,0.04,0.0624",
            "--samples",
            "51",
            "--tol",
            "1e-4",
            "--out",
            str(out),
        )
        == 0
    )
    certs = json.loads(out.read_text())
    assert [c["eps"] for c in certs] == [0.01, 0.04, 0.0624]
    for cert in certs:
        assert cert["schema"] == 1
        assert cert["verdict"] == "pass"
        assert cert["min_f_second"] > 0.0


def test_verify_coarse_grid_passes(tmp_path):
    out = tmp_path / "coarse.json"
    assert run("verify", "--eps", "0.05", "--samples", "3", "--out", str(out)) == 0
    (cert,) = json.loads(out.read_text())
    assert cert["verdict"] == "pass" and cert["min_f_second"] > 0.0


def test_verify_failure_exits_1(tmp_path):
    out = tmp_path / "fail.json"
    assert (
        run("verify", "--eps", "0.05", "--samples", "51", "--tol", "1e-18", "--out", str(out))
        == 1
    )
    (cert,) = json.loads(out.read_text())
    assert cert["verdict"] == "fail"


def test_verify_malformed_eps_exits_2():
    assert run("verify", "--eps", "abc") == 2
    assert run("verify", "--eps", "") == 2


def test_flow_zero_state(tmp_path):
    out = tmp_path / "flow.csv"
    assert (
        run("flow", "--eps", "0.05", "--init", "0,0,0,0", "--duration", "0.05",
            "--out", str(out))
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,t,z1,w1,z2,w2,E"
    assert lines[-1].startswith("# energy_drift ")
    assert float(lines[-1].split()[-1]) == 0.0
    for line in lines[1:-1]:
        s, t, z1, w1, z2, w2, e = map(float, line.split(","))
        assert (z1, w1, z2, w2) == (0.0, 0.0, 0.0, 0.0)
        assert e == -2.0


def test_flow_bounded_state_drift(tmp_path):
    out = tmp_path / "flow.csv"
    w2 = math.sqrt(2.0 * (2.0 - 0.5))
    init = f"0,1,0,{w2:.17g}"  # e1 = 0.5, e2 = 1.5: zero level
    assert (
        run("flow", "--eps", "0.05", "--init", init, "--duration", "2.0",
            "--out", str(out))
        == 0
    )
    footer = out.read_text().strip().splitlines()[-1]
    assert float(footer.split()[-1]) < 1e-8


def test_flow_check_lc(capsys):
    # zero-level state away from the collision fiber
    eps = 0.05
    e1 = 0.5 * 0.9**2 + 0.5 + 0.5 * eps
    w2 = math.sqrt(2.0 * (2.0 - e1) - 0.8**2 + eps * 0.8**4)
    init = f"1,0.9,-0.8,{w2:.17g}"
    assert (
        run("flow", "--eps", "0.05", "--init", init, "--duration", "2.0", "--check-lc")
        == 0
    )
    line = capsys.readouterr().out.strip()
    assert line.startswith("max_deviation ")
    assert float(line.split()[-1]) < 1e-5


def test_flow_check_lc_off_level_exits_2():
    assert (
        run("flow", "--eps", "0.05", "--init", "1,0,0,0", "--duration", "1.0",
            "--check-lc")
        == 2
    )


def test_flow_collision_exits_3(capsys):
    # both factors start at 0.01 with matched inward velocities: the raw
    # trajectory funnels into the collision while the regularized one sails on
    eps = 0.05
    w1 = -math.sqrt(2.0 - 0.01**2 - eps * 0.01**4)
    w2 = -math.sqrt(2.0 - 0.01**2 + eps * 0.01**4)
    init = f"0.01,{w1:.17g},0.01,{w2:.17g}"
    assert (
        run("flow", "--eps", "0.05", "--init", init, "--duration", "1.0", "--check-lc")
        == 3
    )
    assert "numerical error" in capsys.readouterr().err


def test_flow_bad_init_exits_2():
    assert run("flow", "--eps", "0.05", "--init", "1,2,3") == 2


def _closed_form_class(q1, q2, eps, radius):
    r = np.hypot(q1, q2)
    if r > radius or -1.0 / r + eps * q1 > -0.5:
        return "F"
    return "B" if r - q1 <= 8.0 / (1.0 + math.sqrt(1.0 - 16.0 * eps)) else "U"


# At eps = 0.0624 a 60-cell grid is too coarse for the flood fill to resolve
# the narrow neck at the saddle, so its stderr count reads one component; the
# raster classes do not depend on it.
@pytest.mark.parametrize("eps,resolution,components", [(0.05, 60, 2), (0.0624, 60, 1)])
def test_hill_raster(tmp_path, capsys, eps, resolution, components):
    out = tmp_path / "hill.csv"
    argv = ("hill", "--eps", str(eps), "--resolution", str(resolution), "--out", str(out))
    assert run(*argv) == 0
    assert capsys.readouterr().err == f"components {components}\n"
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "q1,q2,class"
    assert len(lines) == 1 + resolution * resolution
    radius = analysis_radius(eps)
    rows = [line.split(",") for line in lines[1:]]
    assert [cls for _, _, cls in rows] == [
        _closed_form_class(float(q1), float(q2), eps, radius) for q1, q2, _ in rows
    ]
    assert {cls for _, _, cls in rows} == {"B", "U", "F"}


def test_hill_weak_field():
    assert run("hill", "--eps", "0.001", "--resolution", "200") == 0


def test_cli_import_skips_scipy_ndimage():
    code = "import sys, starktoric.cli; print('scipy.ndimage' in sys.modules)"
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("eps", ["0.2", "0.0625"])
def test_hill_regime_exits_2(eps):
    assert run("hill", "--eps", eps, "--resolution", "40") == 2


def test_usage_error_exits_2():
    assert run("profile") == 2
    assert run("unknown-command") == 2
