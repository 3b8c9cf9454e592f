import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from starktoric.cli import _fmt, _write_rows, main
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
    for row, c, x, y, slope, second in zip(
        rows, prof.cs, prof.xs, prof.ys, prof.slopes, prof.second_derivs
    ):
        assert float(row[0]) == c
        assert float(row[1]) == x
        assert float(row[2]) == y
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


def test_csv_rows_format_like_fmt():
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, 2.0**53 + 2]
    col = np.tile(special, 150)  # more rows than one write holds
    buf = io.StringIO()
    _write_rows(buf, [col, -col, col[::-1]])
    want = "".join(f"{_fmt(a)},{_fmt(-a)},{_fmt(b)}\n" for a, b in zip(col, col[::-1]))
    assert buf.getvalue() == want


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


@pytest.mark.parametrize("init", ["nan,0,0,0", "1,0.9,-0.8,inf"])
@pytest.mark.parametrize("check_lc", [False, True])
def test_flow_non_finite_init_exits_2(init, check_lc, capsys):
    args = ["flow", "--eps", "0.05", f"--init={init}"] + (["--check-lc"] if check_lc else [])
    assert run(*args) == 2
    assert capsys.readouterr().out == ""


def _closed_form_class(q1, q2, eps, radius):
    r = np.hypot(q1, q2)
    if r > radius or -1.0 / r + eps * q1 > -0.5:
        return "F"
    return "B" if r - q1 <= 8.0 / (1.0 + math.sqrt(1.0 - 16.0 * eps)) else "U"


UNRESOLVED = (
    "components unresolved at this resolution: the saddle neck between "
    "the bounded and unbounded cells is narrower than a cell\n"
)


# At eps = 0.0624 a 60-cell grid is too coarse for the flood fill to resolve
# the narrow neck at the saddle, so its stderr count reads one component and a
# second line says so; the raster classes do not depend on it.
@pytest.mark.parametrize(
    "eps,resolution,components,unresolved",
    [
        pytest.param(0.05, 60, 2, False, id="0.05-60-2"),
        pytest.param(0.0624, 60, 1, True, id="0.0624-60-1"),
    ],
)
def test_hill_raster(tmp_path, capsys, eps, resolution, components, unresolved):
    out = tmp_path / "hill.csv"
    argv = ("hill", "--eps", str(eps), "--resolution", str(resolution), "--out", str(out))
    assert run(*argv) == 0
    err = f"components {components}\n" + (UNRESOLVED if unresolved else "")
    assert capsys.readouterr().err == err
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


# every README subcommand, run in one fresh interpreter; no scipy module may load
_NO_SCIPY = """
import os, sys
from starktoric.cli import main
print("scipy.ndimage" in sys.modules)
state = "1,0.9,-0.8,1.233077450933233"
for argv in (
    ["periods", "--eps", "0.05", "--c", "1.0"],
    ["profile", "--eps", "0.05", "--samples", "256"],
    ["verify", "--eps", "0.01,0.04,0.0624", "--samples", "201", "--tol", "1e-4"],
    ["flow", "--eps", "0.05", "--init", state, "--duration", "5"],
    ["flow", "--eps", "0.05", "--init", state, "--duration", "5", "--check-lc"],
    ["hill", "--eps", "0.05", "--resolution", "200"],
):
    assert main([*argv, "--out", os.devnull]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_import_skips_scipy_ndimage():
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[0] == "False"
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("eps", ["0.2", "0.0625"])
def test_hill_regime_exits_2(eps):
    assert run("hill", "--eps", eps, "--resolution", "40") == 2


def test_usage_error_exits_2():
    assert run("profile") == 2
    assert run("unknown-command") == 2
