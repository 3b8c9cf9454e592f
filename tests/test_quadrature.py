import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from starktoric import quadrature
from starktoric.errors import DomainError, NumericsError
from starktoric.quadrature import integrate


def test_sine_integral():
    assert abs(integrate(np.sin, 0.0, np.pi) - 2.0) < 1e-12
    # the tolerance scales with the integral of |f|, so a zero integral stops
    assert abs(integrate(np.sin, 0.0, 2.0 * np.pi)) < 1e-15


def test_polynomial():
    assert abs(integrate(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) < 1e-14


def test_orientation_and_degenerate_interval():
    assert integrate(np.cos, 2.0, 2.0) == 0.0
    forward = integrate(np.exp, 0.0, 1.0)
    assert integrate(np.exp, 1.0, 0.0) == -forward


def test_kink_requires_refinement():
    # the rule refines the whole grid, never a panel: an interior sqrt kink
    # keeps each level moving by far more than the tolerance
    with pytest.raises(NumericsError, match="after 12 levels"):
        integrate(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0)


def test_refinement_budget_exhausted():
    # a jump converges only like the step, so every level is spent
    with pytest.raises(NumericsError, match="after 12 levels"):
        integrate(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0)


def test_nan_integrand_raises():
    # a NaN estimate never meets the stopping test
    with pytest.raises(NumericsError, match="after 12 levels"):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_tiny_integral_keeps_its_relative_accuracy():
    # no absolute floor: Runge's function scaled by 1e-30 is resolved as
    # closely as the unscaled one
    exact = 0.4 * math.atan(5.0)
    for scale in (1.0, 1e-30):
        val = integrate(lambda x: scale / (1.0 + 25.0 * x * x), -1.0, 1.0)
        assert val == pytest.approx(scale * exact, rel=1e-14, abs=0)


def _calls(f, a, b):
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)

    try:
        integrate(counted, a, b)
    except NumericsError as exc:
        assert "after 12 levels" in str(exc)
    return sizes


def test_one_integrand_call_per_level():
    # each level evaluates only its new nodes, in one call on an array: over
    # all levels, every node of the finest grid is evaluated exactly once
    smooth = _calls(np.exp, 0.0, 1.0)
    assert 4 <= len(smooth) < quadrature._LEVELS
    jump = _calls(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0)
    assert len(jump) == quadrature._LEVELS
    assert jump[: len(smooth)] == smooth
    assert sum(jump) == 2 * math.floor(quadrature._T * 2 ** (quadrature._LEVELS - 1)) + 1


def test_nonfinite_limits_rejected():
    with pytest.raises(DomainError):
        integrate(np.exp, 0.0, np.inf)


def test_only_quadrature_takes_a_spec():
    # the tolerances are module constants: integrate has no knob left
    assert list(inspect.signature(integrate).parameters) == ["f", "a", "b"]


def test_quadrature_exports():
    # the layer tracer (perfbench/spans.py) wraps every name in __all__ and has
    # a work rule for integrate only, so no other function may be exported
    assert quadrature.__all__ == ["integrate"]


_TRACED_ORACLE = textwrap.dedent("""
    import json, sys, tempfile
    from pathlib import Path
    import numpy as np
    sys.path.insert(0, sys.argv[1])
    import spans

    recorder = spans.Recorder()
    recorder.install()
    from starktoric import quadrature
    from starktoric.periods import OscillatorSelector, period_oracle

    period_oracle(0.05, 1.0, OscillatorSelector.PLUS)
    oracle_calls = recorder.integrand_calls
    mine = []
    quadrature.integrate(lambda x: mine.append(x.size) or np.exp(x), 0.0, 1.0)
    with tempfile.TemporaryDirectory() as tmp:
        recorder.save(Path(tmp) / "spans.npz")
        metrics = spans.layer_metrics([Path(tmp) / "spans.npz"])
    names = [recorder.names[span[0]] for span in recorder.spans]
    works = [span[4] for span in recorder.spans]
    print(json.dumps(dict(names=names, works=works, oracle_calls=oracle_calls,
                          my_calls=len(mine), metrics=metrics)))
""")


def test_perfbench_tracer_counts_integrand_calls():
    # the benchmark's tracer wraps every layer, integrate and its integrand;
    # run in a child so that its wrappers reach no other test
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_ORACLE, str(root / "perfbench")],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    got = json.loads(out)
    assert got["names"] == ["periods.period_oracle", "quadrature.integrate", "quadrature.integrate"]
    oracle, mine = got["works"][1:]
    assert 4 <= oracle == got["oracle_calls"] <= quadrature._LEVELS
    assert mine == got["my_calls"] >= 4
    assert got["metrics"]["quadrature.calls"] == 2
    assert got["metrics"]["quadrature.work"] == oracle + mine
    assert got["metrics"]["periods.work"] == 1
