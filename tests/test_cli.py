import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from starktoric.cli import _build_parser, _fmt, _write_rows, main
from starktoric.levi_civita import RegularizedState, regularized_energy
from starktoric.stark_model import analysis_radius
from starktoric.toric_profile import profile_sample

from oracles import kernel_flow

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
        assert float(value) == pytest.approx(TWO_PI, rel=1e-12, abs=0)
        assert float(oracle) == pytest.approx(TWO_PI, rel=1e-15, abs=0)
        assert float(resid) < 1e-12


def test_periods_formula_vs_oracle(capsys):
    assert run("periods", "--eps", "0.05", "--c", "1") == 0
    for line in capsys.readouterr().out.strip().splitlines():
        assert float(line.split()[5]) <= 1e-9


def test_periods_at_the_separatrix(capsys):
    # the largest double below 1/16 at c = 2, where the soft period is about
    # 58: the oracle's integrand stays smooth up to the separatrix
    assert run("periods", "--eps", "0.06249999999999999", "--c", "2") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[0] for line in lines] == ["tau1", "tau2"]
    for line in lines:
        assert float(line.split()[5]) <= 1e-14


def test_periods_beyond_separatrix_exits_2(capsys):
    assert run("periods", "--eps", "0.05", "--c", "3", "--which", "minus") == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_periods_domain_error_writes_nothing(tmp_path, capsys, to_file):
    # tau1 is finite at c = 1e308 but tau2's separatrix check fails: both rows
    # are computed before the output is opened, so no half result is left
    out = tmp_path / "periods.txt"
    extra = ["--out", str(out)] if to_file else []
    assert run("periods", "--eps", "0.05", "--c", "1e308", *extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


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
        assert cert["schema"] == 2
        assert cert["verdict"] == "pass"
        assert cert["min_f_second"] > 0.0


@pytest.mark.parametrize("eps", ["1e-8", "1e-5"])
def test_verify_small_field_resolves_every_sample(tmp_path, eps):
    out = tmp_path / "small.json"
    assert run("verify", "--eps", eps, "--samples", "201", "--out", str(out)) == 0
    (cert,) = json.loads(out.read_text())
    assert cert["verdict"] == "pass"
    assert cert["fd_checked"] == cert["fd_total"] == 197
    assert not any(key.startswith("quad_") for key in cert)


def test_verify_resolves_every_sample_below_the_old_cancellation(tmp_path):
    # f'' as a divided difference of the series: no digits lost like 1/(16 eps)
    out = tmp_path / "tiny.json"
    assert run("verify", "--eps", "1e-16,1e-13", "--samples", "201", "--out", str(out)) == 0
    certs = json.loads(out.read_text())
    assert [c["eps"] for c in certs] == [1e-16, 1e-13]
    for cert in certs:
        assert cert["verdict"] == "pass"
        assert cert["fd_checked"] == cert["fd_total"] == 197


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


def test_verify_infinite_tolerance_exits_2(capsys):
    # no residual exceeds inf, so the cross-check could not fail
    assert run("verify", "--eps", "0.05", "--samples", "51", "--tol", "inf") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "error: certificate tolerance must be positive and finite, got inf"


def test_verify_malformed_eps_exits_2(capsys):
    # every numeric option of every subcommand is converted by argparse: a
    # malformed number, or an empty list where a list is taken, is a usage error
    for command, options in CLI_OPTIONS.items():
        for option in set(options) - {"--which", "--check-lc", "--out"}:
            lists = (command, option) in {("verify", "--eps"), ("flow", "--init")}
            for bad in ["abc", ""] + ([",", "1,x"] if lists else []):
                assert run(command, *_SMALL_RUNS[command], f"{option}={bad}") == 2
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.startswith("usage: ")
                # the message names the option, not the private function that converts it
                last = captured.err.splitlines()[-1]
                assert f"argument {option}: " in last and not re.search(r"\b_[a-z]", last)


def test_csv_rows_format_like_fmt():
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, 2.0**53 + 2]
    col = np.tile(special, 150)  # more rows than one write holds
    buf = io.StringIO()
    _write_rows(buf, [col, -col, col[::-1]])
    want = "".join(f"{_fmt(a)},{_fmt(-a)},{_fmt(b)}\n" for a, b in zip(col, col[::-1]))
    assert buf.getvalue() == want


def test_flow_zero_state(tmp_path):
    # at eps = 1e308 the factor energies formed 2 eps = inf, warned, and
    # refused e1 = NaN as an energy that overflows
    out = tmp_path / "flow.csv"
    for eps in ("0.05", "1e308"):
        assert (
            run("flow", "--eps", eps, "--init", "0,0,0,0", "--duration", "0.05",
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


# a state with a closed form, and one the flow steps with Yoshida's
# coefficients: its soft factor starts outside its well
@pytest.mark.parametrize("init, duration", [("1,0.9,-0.8,1.233077450933233", "5"),
                                            ("1,0.5,3.3,-1.0", "0.5")],
                         ids=["exact", "outside_the_well"])
def test_flow_energy_column_matches_its_drift_footer(tmp_path, init, duration):
    # the E column summed six terms in its own order, so its spread was not
    # the footer's drift: now both come from the same energies
    out = tmp_path / "flow.csv"
    argv = ["flow", "--eps", "0.05", f"--init={init}", "--duration", duration,
            "--out", str(out)]
    assert run(*argv) == 0
    lines = out.read_text().splitlines()
    rows = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
    energy = rows[:, 6]
    states = [RegularizedState(z=(z1, z2), w=(w1, w2)) for z1, w1, z2, w2 in rows[:, 2:6].tolist()]
    assert energy.tolist() == [regularized_energy(state, 0.05) for state in states]
    assert lines[-1] == f"# energy_drift {_fmt(np.max(np.abs(energy - energy[0])))}"


def test_flow_default_scheme_is_exact(tmp_path):
    # the state has a closed form, which the CSV samples; the splitting
    # kernel's stepped flow is its oracle
    state = RegularizedState(z=(1.0, -0.8), w=(0.9, 1.233077450933233))
    out = tmp_path / "flow.csv"
    argv = ["flow", "--eps", "0.05", "--init", "1,0.9,-0.8,1.233077450933233",
            "--duration", "2.0", "--out", str(out)]
    assert run(*argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,t,z1,w1,z2,w2,E"
    assert len(lines) == 1 + 2001 + 1
    assert float(lines[-1].split()[-1]) <= 1e-13  # the closed form drifts by rounding only
    traj, phys = kernel_flow(state, 0.05, duration=2.0)
    z1, z2, w1, w2 = traj.states[-1]
    ref = [traj.times[-1], phys[-1], z1, w1, z2, w2,
           regularized_energy(RegularizedState(z=(z1, z2), w=(w1, w2)), 0.05)]
    assert np.max(np.abs(np.array(lines[-2].split(","), dtype=float) - ref)) <= 1e-10


def test_flow_retired_scheme_is_a_usage_error(capsys):
    # no option picks the flow's scheme: it takes its closed form wherever
    # the state has one
    for scheme in ("leapfrog2", "yoshida4", "exact"):
        argv = ["flow", "--eps", "0.05", "--init", "1,0.9,-0.8,1.5", "--scheme", scheme]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.endswith(f"error: unrecognized arguments: --scheme {scheme}\n")


# each subcommand's options; a change here is a change of the CLI contract,
# and README's command line section shows each in an example
CLI_OPTIONS = {
    "periods": ["--eps", "--c", "--which", "--out"],
    "profile": ["--eps", "--samples", "--out"],
    "verify": ["--eps", "--samples", "--tol", "--out"],
    "flow": ["--eps", "--init", "--duration", "--step", "--check-lc", "--out"],
    "hill": ["--eps", "--resolution", "--out"],
}


def test_cli_options_are_pinned_and_documented():
    (commands,) = (a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    options = {name: [flag for action in sub._actions for flag in action.option_strings
                      if flag not in ("-h", "--help")]
               for name, sub in commands.choices.items()}
    assert options == CLI_OPTIONS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    shown = {name: set() for name in CLI_OPTIONS}
    for line in section.splitlines():
        if line.startswith("starktoric "):
            shown[line.split()[1]].update(re.findall(r"--[\w-]+", line))
    assert shown == {name: set(flags) for name, flags in CLI_OPTIONS.items()}


@pytest.mark.parametrize("step, duration", [("5e-324", "1"), ("1e-3", "1e308")])
def test_flow_step_count_overflow_exits_2(capsys, step, duration):
    argv = ["flow", "--eps", "0.05", "--init=1,0.9,-0.8,1.5", "--step", step,
            "--duration", duration]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "max_steps" in line


def test_flow_energy_beyond_the_period_kernel_fails_without_a_warning(capsys):
    # e1 = 5e299 makes 8 (eps e1) overflow, which warned before the error
    # line; an energy that overflows is refused before any work
    assert run("flow", "--eps", "1e300", "--init=1,0,0,0", "--duration", "0.001") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the period kernel's argument 8*c*eps overflows the doubles\n"


def test_flow_names_a_factor_energy_that_overflows(capsys):
    # at zero field only e1 = inf overflowed, yet the error named the kernel argument
    argv = ["flow", "--eps", "0", "--init=1e200,0,0,0", "--duration", "0.01", "--step", "0.005"]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the factor energy e1 overflows the doubles\n"


def test_flow_refuses_a_squared_amplitude_that_overflows(capsys):
    # a^2 = 4 e1/(1 + root) overflowed at e1 = 1.62e308, omega^2 = 1 + 2 eps a^2
    # read 0 inf = NaN, and the run died on a bare ValueError with a traceback
    assert run("flow", "--eps", "0", "--init=0,1.8e154,0,0", "--duration", "0.01") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the squared amplitude at factor energy 1.62e+308 "
                            "overflows the doubles\n")


def test_flow_names_the_escape_of_a_soft_factor_outside_its_well(capsys):
    # above the separatrix energy the soft factor escapes to infinity at a
    # finite s*: a run that reaches it is refused, one that stops short is exact
    argv = ["flow", "--eps", "0.05", "--init=1,0.5,3.3,-1.0"]
    assert run(*argv, "--duration", "10") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the soft factor escapes to infinity at "
                            "s* = 6.069788203656477, within the duration 10.0\n")
    assert run(*argv, "--duration", "5") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 5001 + 1 and float(lines[-1].split()[-1]) <= 1e-12


def test_flow_check_lc_refuses_energies_that_overflow_with_opposite_signs(capsys):
    # e1 = +inf and e2 = -inf summed to NaN with a warning, and NaN passed the
    # zero-level check
    argv = ["flow", "--eps", "0.05", "--init=1e200,1e200,1e200,0", "--check-lc",
            "--duration", "0.01"]
    assert run(*argv) == 2
    assert capsys.readouterr().err == ("error: the factor energies overflow the doubles "
                                       "with opposite signs\n")


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


# both factors start at 0.01 with matched inward velocities at eps = 0.05:
# the raw trajectory funnels into the collision while the regularized one sails on
_COLLISION = [
    "flow", "--eps", "0.05", "--duration", "1.0", "--check-lc", "--init",
    f"0.01,{-math.sqrt(2.0 - 0.01**2 - 0.05 * 0.01**4):.17g},"
    f"0.01,{-math.sqrt(2.0 - 0.01**2 + 0.05 * 0.01**4):.17g}",
]


def test_flow_collision_exits_3(capsys):
    assert run(*_COLLISION) == 3
    assert "numerical error" in capsys.readouterr().err


def test_flow_bad_init_exits_2(capsys):
    # a state is exactly four numbers: another count is argparse's usage error
    for init, count in (("1,2,3", 3), ("1,2,3,4,5", 5)):
        assert run("flow", "--eps", "0.05", "--init", init) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: ")
        assert captured.err.endswith("argument --init: expected four comma-separated numbers "
                                     f"z1,w1,z2,w2, got {count}\n")
    # a malformed number ended "invalid _state value: '1,x,3,4'"
    assert run("flow", "--eps", "0.05", "--init", "1,x,3,4") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: ")
    assert captured.err.endswith(
        "argument --init: expected comma-separated numbers, got '1,x,3,4'\n")


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


NO_BOUNDED = "no bounded cell: the bounded oval is smaller than a cell at this resolution\n"


def test_hill_weak_field(capsys):
    # the analysis disk grows like 1/(2 eps), and at 0.001 its cells are
    # wider than the oval, so no cell is B and stderr says why
    assert run("hill", "--eps", "0.001", "--resolution", "200") == 0
    out, err = capsys.readouterr()
    assert err == "components 1\n" + NO_BOUNDED
    assert ",B\n" not in out and ",U\n" in out


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


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_cli_import_skips_scipy_ndimage():
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY], env=_src_env(), capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.splitlines()[0] == "False"
    assert done.stdout.splitlines()[-1] == "[]"


def test_hill_at_subnormal_eps_is_clean():
    # a fresh interpreter prints any warning to stderr
    argv = ["-m", "starktoric.cli", "hill", "--eps", "5e-324", "--resolution", "40"]
    done = subprocess.run([sys.executable, *argv], env=_src_env(), capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stderr == "components 0\n" + NO_BOUNDED
    rows = done.stdout.splitlines()[1:]
    assert len(rows) == 40 * 40
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[:2])


@pytest.mark.parametrize("eps", ["0.2", "0.0625"])
def test_hill_regime_exits_2(eps):
    assert run("hill", "--eps", eps, "--resolution", "40") == 2


def test_usage_error_exits_2():
    assert run("profile") == 2
    assert run("unknown-command") == 2


_SMALL_RUNS = {
    "periods": ["--eps", "0.05", "--c", "1.0"],
    "profile": ["--eps", "0.05", "--samples", "5"],
    "verify": ["--eps", "0.05", "--samples", "5"],
    "flow": ["--eps", "0.05", "--init", "1,0.9,-0.8,1.233077450933233", "--duration", "0.01"],
    "hill": ["--eps", "0.05", "--resolution", "8"],
}


@pytest.mark.parametrize("bad", ["missing_dir", "directory"])
@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_unwritable_out_exits_2(tmp_path, capsys, command, bad):
    # exit 1 would read as a failed verification verdict
    out = tmp_path / "missing" / "x.csv" if bad == "missing_dir" else tmp_path
    assert run(command, *_SMALL_RUNS[command], "--out", str(out)) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: cannot write {out}: ")


def test_unwritable_out_is_checked_before_the_work(tmp_path, capsys, monkeypatch):
    from starktoric import toric_profile

    calls = []
    verify = toric_profile.verify_convexity
    monkeypatch.setattr(toric_profile, "verify_convexity",
                        lambda *args: calls.append(args) or verify(*args))
    out = tmp_path / "missing" / "x.json"
    assert run("verify", "--eps", "0.01,0.02,0.03", "--samples", "201", "--out", str(out)) == 2
    assert calls == []
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv, code",
    [(["periods", "--eps", "0.05", "--c", "1e308"], 2), (_COLLISION, 3)],
    ids=["domain_error", "numerics_error"],
)
def test_failed_run_leaves_out_as_it_was(tmp_path, argv, code):
    # the output goes to a temporary file that only a completed run renames onto --out
    out = tmp_path / "kept.txt"
    out.write_text("earlier result\n")
    assert run(*argv, "--out", str(out)) == code
    assert out.read_text() == "earlier result\n"
    assert list(tmp_path.iterdir()) == [out]


# sizes whose float64 arrays numpy cannot index, so nothing is allocated:
# numpy raised ValueError, exit 1 with a traceback, which reads as a failed
# certificate
_IMPOSSIBLE_SIZES = {
    "verify": ["verify", "--eps", "0.05", "--samples", "99999999999999999999999"],
    "profile": ["profile", "--eps", "0.05", "--samples", str(2**60)],
    "hill": ["hill", "--eps", "0.05", "--resolution", str(2**62)],
}


@pytest.mark.parametrize("argv", _IMPOSSIBLE_SIZES.values(), ids=_IMPOSSIBLE_SIZES.keys())
def test_impossible_size_exits_2(capsys, argv):
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("than numpy can index\n")
    assert err.count("\n") == 1


_NO_MEMORY = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"


@pytest.mark.parametrize(
    "module, function, argv, message",
    [("toric_profile", "verify_convexity",
      ["verify", "--eps", "0.05", "--samples", "1000000000000"], _NO_MEMORY),
     ("stark_model", "hill_grid", ["hill", "--eps", "0.05", "--resolution", "1000000"], "")],
    ids=["verify", "hill"],
)
def test_out_of_memory_exits_3(monkeypatch, capsys, module, function, argv, message):
    # numpy's MemoryError was exit 1 with a traceback; the layer raises it
    # here without allocating
    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(f"starktoric.{module}.{function}", no_memory)
    assert run(*argv) == 3
    assert capsys.readouterr().err == (f"out of memory: {message}\n" if message
                                       else "out of memory\n")


def test_closed_stdout_exits_2_without_a_traceback():
    # 20001 rows overflow the pipe's buffer, so the writer is still writing
    # when the reader closes its end after the first line
    argv = ["-m", "starktoric.cli", "profile", "--eps", "0.05", "--samples", "20001"]
    with subprocess.Popen([sys.executable, *argv], env=_src_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "c,x,y,slope,f_second\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (2, "error: cannot write stdout: Broken pipe\n")
