import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starktoric
from starktoric import quadrature
from starktoric.errors import DomainError, ToleranceNotMet
from starktoric.periods import tau2
from starktoric.quadrature import QuadratureSpec, integrate, integrate_panels


def test_sine_integral():
    assert abs(integrate(np.sin, 0.0, np.pi) - 2.0) < 1e-12


def test_polynomial():
    assert abs(integrate(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) < 1e-14


def test_orientation_and_degenerate_interval():
    assert integrate(np.cos, 2.0, 2.0) == 0.0
    forward = integrate(np.exp, 0.0, 1.0)
    assert integrate(np.exp, 1.0, 0.0) == -forward


def test_kink_requires_refinement():
    # sqrt kink keeps the embedded pair disagreeing until panels shrink
    exact = (2.0 / 3.0) * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    val = integrate(
        lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)),
        0.0,
        1.0,
        QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10),
    )
    assert abs(val - exact) < 1e-9


def test_refinement_budget_exhausted():
    with pytest.raises(ToleranceNotMet):
        integrate(
            lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)),
            0.0,
            1.0,
            QuadratureSpec(max_refinements=2),
        )


@pytest.mark.parametrize(
    "kwargs",
    [dict(abs_tol=0.0), dict(rel_tol=-1e-3), dict(max_refinements=0)],
)
def test_spec_validation(kwargs):
    with pytest.raises(DomainError):
        QuadratureSpec(**kwargs)


def test_nonfinite_limits_rejected():
    with pytest.raises(DomainError):
        integrate(np.exp, 0.0, np.inf)


@st.composite
def _edges(draw):
    # up to 300 panels, so the block boundary at 128 panels is crossed
    n = draw(st.integers(min_value=2, max_value=301))
    return np.sort(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(0.0, 0.0625, exclude_min=True, exclude_max=True)
    | st.floats(0.0624, 0.0625, exclude_max=True),
    edges=_edges(),
)
def test_integrate_panels_is_per_panel_integrate(eps, edges):
    f = lambda c: tau2(eps, c)
    want = np.array([integrate(f, a, b) for a, b in zip(edges[:-1], edges[1:])])
    assert integrate_panels(f, edges).tobytes() == want.tobytes()


def test_only_quadrature_takes_a_spec():
    for info in pkgutil.iter_modules(starktoric.__path__):
        if info.name == "quadrature":
            continue
        module = importlib.import_module(f"starktoric.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):
                continue
            for p in params:
                assert "QuadratureSpec" not in str(p.annotation), (info.name, name)
                assert not isinstance(p.default, QuadratureSpec), (info.name, name)


def test_quadrature_exports():
    # the layer tracer (perfbench/spans.py) wraps every name in __all__ and has
    # a work rule for integrate only, so integrate_panels must stay unexported
    assert quadrature.__all__ == ["QuadratureSpec", "DEFAULT_QUADRATURE", "integrate"]
