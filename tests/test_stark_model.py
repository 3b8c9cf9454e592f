import enum
import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

from starktoric import dynamics, elliptic, levi_civita, periods, quadrature
from starktoric.dynamics import integrate_regularized, measure_period, torus_act
from starktoric.elliptic import ellip_k
from starktoric.errors import DomainError
from starktoric.levi_civita import RegularizedState, lc_base
from starktoric.stark_model import (
    TORIC_LIMIT,
    HillClass,
    PlanarState,
    hamiltonian,
    hill_classify,
    hill_component_count,
    hill_grid,
    potential,
    rescale_state,
    analysis_radius,
    _touch,
)
from starktoric.periods import OscillatorSelector, period_oracle, tau1, turning_point
from starktoric.toric_profile import (moment_image, profile_sample, profile_second_derivative,
                                      verify_convexity)


def test_potential_values():
    assert potential((1.0, 0.0), 0.05) == pytest.approx(-0.95, rel=1e-15, abs=0)
    eps = 0.05
    assert potential((-1.0 / math.sqrt(eps), 0.0), eps) == pytest.approx(
        -2.0 * math.sqrt(eps), rel=1e-14, abs=0
    )
    assert potential((0.0, 1.0), 0.3) == pytest.approx(-1.0, rel=1e-15, abs=0)


def test_potential_rejects_origin():
    with pytest.raises(DomainError):
        potential((0.0, 0.0), 0.05)


def _saddle(eps):
    """The saddle of V at (-1/sqrt(eps), 0), at rest."""
    return PlanarState(q=(-1.0 / math.sqrt(eps), 0.0), p=(0.0, 0.0))


def test_hamiltonian_values():
    s = PlanarState(q=(1.0, 0.0), p=(0.0, 0.0))
    assert hamiltonian(s, 0.05) == pytest.approx(-0.95, rel=1e-15, abs=0)
    assert hamiltonian(_saddle(0.05), 0.05) == pytest.approx(
        -2.0 * math.sqrt(0.05), rel=1e-14, abs=0
    )
    # at the critical field strength the saddle sits exactly at energy -1/2
    assert hamiltonian(_saddle(1.0 / 16.0), 1.0 / 16.0) == pytest.approx(
        -0.5, rel=1e-14, abs=0
    )


def test_critical_point_gradient_vanishes():
    eps = 0.05
    q = _saddle(eps).q
    h = 1e-6
    gx = (potential(q + [h, 0], eps) - potential(q - [h, 0], eps)) / (2 * h)
    gy = (potential(q + [0, h], eps) - potential(q - [0, h], eps)) / (2 * h)
    assert abs(gx) < 1e-6 and abs(gy) < 1e-6


def test_rescale_identity_and_pullback():
    s = PlanarState(q=(1.0, 0.0), p=(0.0, 0.0))
    s1 = rescale_state(1.0, s)
    assert np.array_equal(s1.q, s.q) and np.array_equal(s1.p, s.p)
    # H_eps(a q, p/sqrt(a)) = (1/a) H_{a^2 eps}(q, p), spot value -0.05
    lhs = hamiltonian(rescale_state(4.0, s), 0.05)
    rhs = 0.25 * hamiltonian(s, 0.8)
    assert lhs == pytest.approx(-0.05, rel=1e-13, abs=0)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=0)


def test_rescale_pullback_random_states():
    rng = np.random.default_rng(7)
    for _ in range(100):
        q = rng.uniform(-3, 3, 2)
        if np.hypot(*q) < 0.1:
            continue
        s = PlanarState(q=q, p=rng.uniform(-2, 2, 2))
        a = rng.uniform(0.2, 5.0)
        eps = rng.uniform(0.001, 0.3)
        lhs = hamiltonian(rescale_state(a, s), eps)
        rhs = hamiltonian(s, a * a * eps) / a
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_rescale_composition_and_argmin_invariance():
    rng = np.random.default_rng(11)
    s = PlanarState(q=(0.7, -1.2), p=(0.3, 0.4))
    a, b = 2.5, 0.4
    s_ab = rescale_state(a, rescale_state(b, s))
    s_prod = rescale_state(a * b, s)
    assert s_ab.q == pytest.approx(s_prod.q, rel=1e-14, abs=0)
    assert s_ab.p == pytest.approx(s_prod.p, rel=1e-14, abs=0)
    for _ in range(20):
        eps = rng.uniform(0.001, 0.2)
        a = rng.uniform(0.3, 3.0)
        assert _saddle(a * a * eps).q == pytest.approx(_saddle(eps).q / a, rel=1e-13, abs=0)
    with pytest.raises(DomainError):
        rescale_state(0.0, s)


# --- Hill region ----------------------------------------------------------


def test_hill_examples():
    assert hill_classify((0.1, 0.0), 0.05) is HillClass.BOUNDED
    assert hill_classify((-1.0 / math.sqrt(0.05) - 10.0, 0.0), 0.05) is HillClass.UNBOUNDED
    assert hill_classify((0.0, 100.0), 0.05) is HillClass.FORBIDDEN
    assert hill_classify((0.0, 0.0), 0.05) is HillClass.COLLISION_LOCUS
    # weak fields: the oval is tiny next to the distance to the saddle
    for eps in (1e-8, 1e-3, 2e-3):
        assert hill_classify((0.5, 0.0), eps) is HillClass.BOUNDED


@pytest.mark.parametrize("q", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_hill_classify_rejects_non_finite(q):
    with pytest.raises(DomainError):
        hill_classify(q, 0.05)


_STATE = RegularizedState(z=(1.0, -0.8), w=(0.9, 1.2))
_ZERO_LEVEL = RegularizedState(z=(1.0, -0.8), w=(0.9, 1.233077450933233))  # E = 0 at eps 0.05
_PLANAR = PlanarState((1.0, 0.5), (0.2, 0.1))
_PLUS = OscillatorSelector.PLUS


def _real(name):
    return f"{name} must be a real number"


_EPS, _C = _real("field strength"), _real("slice energy")
_CS = _C + " or real array"
_STEP, _TIME, _T = _real("integrator step"), _real("duration"), _real("torus action time")

# every number argument of every function and state class in the layers'
# __all__: (layer, function, argument) -> (a call with v in that argument's
# place, whether it takes a real number, an array or a pair, and the start of
# the message that refuses a v that is not real)
NUMBER_ARGUMENTS = {
    **{("elliptic", f.__name__, "m"): (f, "array", "elliptic parameter must be real")
       for f in (elliptic.ellip_k, elliptic.ellip_k_d1, elliptic.ellip_k_d2)},
    **{("stark_model", "PlanarState", name): (call, "pair", f"{name} must be a pair of numbers")
       for name, call in (("q", lambda v: PlanarState(v, (0.0, 1.0))),
                          ("p", lambda v: PlanarState((1.0, 0.0), v)))},
    ("stark_model", "potential", "q"): (lambda v: potential(v, 0.05), "pair",
                                        "q must be a pair of numbers"),
    ("stark_model", "potential", "eps"): (lambda v: potential((1.0, 0.0), v), "real", _EPS),
    ("stark_model", "hamiltonian", "eps"): (lambda v: hamiltonian(_PLANAR, v), "real", _EPS),
    ("stark_model", "rescale_state", "a"): (lambda v: rescale_state(v, _PLANAR), "real",
                                            _real("rescaling factor")),
    ("stark_model", "hill_classify", "q"): (lambda v: hill_classify(v, 0.05), "pair",
                                            "q must be a pair of numbers"),
    ("stark_model", "hill_classify", "eps"): (lambda v: hill_classify((0.5, 0.0), v), "real", _EPS),
    ("stark_model", "hill_grid", "eps"): (lambda v: hill_grid(v, 8), "real", _EPS),
    ("stark_model", "hill_component_count", "eps"): (hill_component_count, "real", _EPS),
    **{("levi_civita", "RegularizedState", name): (call, "pair",
                                                   f"{name} must be a pair of numbers")
       for name, call in (("z", lambda v: RegularizedState(v, (0.0, 1.0))),
                          ("w", lambda v: RegularizedState((1.0, 0.0), v)))},
    ("levi_civita", "lc_base", "z"): (lc_base, "pair", "z must be a pair of numbers"),
    ("levi_civita", "energy_split", "eps"): (lambda v: levi_civita.energy_split(_STATE, v),
                                             "real", _EPS),
    ("levi_civita", "regularized_energy", "eps"): (
        lambda v: levi_civita.regularized_energy(_STATE, v), "real", _EPS),
    ("periods", "turning_point", "eps"): (lambda v: turning_point(v, 1.0, _PLUS), "real", _EPS),
    ("periods", "turning_point", "c"): (lambda v: turning_point(0.05, v, _PLUS), "array", _CS),
    ("periods", "tau1", "eps"): (lambda v: tau1(v, 1.0), "real", _EPS),
    ("periods", "tau1", "c"): (lambda v: tau1(0.05, v), "array", _CS),
    ("periods", "tau2", "eps"): (lambda v: periods.tau2(v, 1.0), "real", _EPS),
    ("periods", "tau2", "c"): (lambda v: periods.tau2(0.05, v), "array", _CS),
    ("periods", "period_oracle", "eps"): (lambda v: period_oracle(v, 1.0, _PLUS), "real", _EPS),
    ("periods", "period_oracle", "c"): (lambda v: period_oracle(0.05, v, _PLUS), "real", _C),
    ("dynamics", "integrate_regularized", "eps"): (lambda v: integrate_regularized(_STATE, v),
                                                   "real", _EPS),
    ("dynamics", "integrate_regularized", "step"): (
        lambda v: integrate_regularized(_STATE, 0.05, v), "real", _STEP),
    ("dynamics", "integrate_regularized", "duration"): (
        lambda v: integrate_regularized(_STATE, 0.05, 0.1, v), "real", _TIME),
    ("dynamics", "measure_period", "eps"): (lambda v: measure_period(v, 1.0, _PLUS), "real", _EPS),
    ("dynamics", "measure_period", "c"): (lambda v: measure_period(0.05, v, _PLUS), "real", _C),
    ("dynamics", "torus_act", "t1"): (lambda v: torus_act(v, 0.0, _STATE, 0.05), "real", _T),
    ("dynamics", "torus_act", "t2"): (lambda v: torus_act(0.0, v, _STATE, 0.05), "real", _T),
    ("dynamics", "torus_act", "eps"): (lambda v: torus_act(0.0, 0.0, _STATE, v), "real", _EPS),
    ("dynamics", "flow_equivalence", "eps"): (
        lambda v: dynamics.flow_equivalence(_ZERO_LEVEL, v), "real", _EPS),
    ("dynamics", "flow_equivalence", "step"): (
        lambda v: dynamics.flow_equivalence(_ZERO_LEVEL, 0.05, v), "real", _STEP),
    ("dynamics", "flow_equivalence", "s_duration"): (
        lambda v: dynamics.flow_equivalence(_ZERO_LEVEL, 0.05, 0.1, v), "real", _TIME),
    ("toric_profile", "moment_image", "eps"): (lambda v: moment_image(v, 1.0), "real", _EPS),
    ("toric_profile", "moment_image", "c"): (lambda v: moment_image(0.05, v), "real", _C),
    ("toric_profile", "profile_second_derivative", "eps"): (
        lambda v: profile_second_derivative(v, 1.0), "real", _EPS),
    ("toric_profile", "profile_second_derivative", "c"): (
        lambda v: profile_second_derivative(0.05, v), "array", _CS),
    ("toric_profile", "profile_sample", "eps"): (lambda v: profile_sample(v, 16), "real", _EPS),
    ("toric_profile", "verify_convexity", "eps"): (lambda v: verify_convexity(v, 9), "real", _EPS),
    ("toric_profile", "verify_convexity", "tol"): (lambda v: verify_convexity(0.05, 9, v), "real",
                                                   _real("certificate tolerance")),
    **{("quadrature", "integrate", name): (call, "real", _real("integration limit"))
       for name, call in (("a", lambda v: quadrature.integrate(np.cos, v, 1.0)),
                          ("b", lambda v: quadrature.integrate(np.cos, 0.0, v)))},
}
# numpy's casts dropped an imaginary part with only a warning, and an integer
# beyond the doubles raised a bare OverflowError; a complex array was already
# refused where a real number is asked for, as every sequence is
_NOT_REAL = {
    "real": {"complex": np.complex128(0.05 + 1j), "huge": 10**400},
    "array": {"complex": np.complex128(0.05 + 1j), "complex_array": np.array([0.05 + 1j, 1.0]),
              "huge": 10**400},
    "pair": {"complex": (np.complex128(1.0 + 1j), 0.0), "complex_array": np.array([1.0 + 1j, 0.0]),
             "huge": (10**400, 0.0)},
}
_NOT_REAL_ROWS = {
    f"{function}_{argument}_{bad}": (lambda call=call, value=value: call(value), message)
    for (_, function, argument), (call, kind, message) in NUMBER_ARGUMENTS.items()
    for bad, value in _NOT_REAL[kind].items()
}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hill_classify((1, 0, 0), 0.05), "q must be a pair of numbers"),
        (lambda: hill_classify(("a", 0), 0.05), "q must be a pair of numbers"),
        (lambda: potential((1, 0, 0), 0.05), "q must be a pair of numbers"),
        (lambda: lc_base((1, 2, 3)), "z must be a pair of numbers"),
        (lambda: PlanarState((1, 0, 0), (0, 1)), "q must be a pair of numbers"),
        (lambda: PlanarState((1, 0), (0, 1, 2)), "p must be a pair of numbers"),
        (lambda: RegularizedState(z=(1,), w=(0, 1)), "z must be a pair of numbers"),
        (lambda: RegularizedState(z=(1, 0), w=None), "w must be a pair of numbers"),
        (lambda: tau1("x", 1.0), "field strength must be a real number"),
        (lambda: tau1(None, 1.0), "field strength must be a real number"),
        (lambda: tau1(0.05, "x"), "slice energy must be a real number"),
        (lambda: moment_image(0.05, "x"), "slice energy must be a real number"),
        (lambda: moment_image(0.05, [1.0]), "slice energy must be a real number"),
        (lambda: period_oracle(0.05, [1.0], OscillatorSelector.PLUS),
         "slice energy must be a real number"),
        (lambda: profile_second_derivative(0.05, "x"), "slice energy must be a real number"),
        (lambda: tau1(0.05, ["x"]), "slice energy must be a real number or real array"),
        (lambda: turning_point(0.05, ["x"], OscillatorSelector.PLUS),
         "slice energy must be a real number or real array"),
        (lambda: profile_second_derivative(0.05, ["x"]),
         "slice energy must be a real number or real array"),
        (lambda: tau1(0.05, [[1.0], [1.0, 2.0]]),
         "slice energy must be a real number or real array"),
        (lambda: ellip_k("x"), "elliptic parameter must be real, got"),
        (lambda: ellip_k(["x"]), "elliptic parameter must be real, got"),
        (lambda: integrate_regularized(_STATE, 0.05, duration="x"),
         "duration must be a real number"),
        (lambda: torus_act("a", 0.0, _STATE, 0.05), "torus action time must be a real number"),
        (lambda: verify_convexity(0.05, 11, "x"), "certificate tolerance must be a real number"),
        (lambda: rescale_state("x", PlanarState((1, 0), (0, 1))),
         "rescaling factor must be a real number"),
        (lambda: measure_period(0.05, [1.0], _PLUS), "slice energy must be a real number"),
        (lambda: potential((math.inf, 0.0), 0.05), "q must be a pair of finite numbers"),
        (lambda: lc_base((0.0, math.nan)), "z must be a pair of finite numbers"),
        (lambda: tau1(0.05, [None, 1.0]), "slice energy must be a real number or real array"),
        (lambda: levi_civita.energy_split(None, 0.05), "state must be a RegularizedState"),
        (lambda: levi_civita.regularized_energy((1, 0.5), 0.05),
         "state must be a RegularizedState"),
        (lambda: levi_civita.lc_lift(PlanarState((1, 0), (0, 1))),
         "state must be a RegularizedState"),
        (lambda: levi_civita.conformal_factor(None), "state must be a RegularizedState"),
        (lambda: integrate_regularized(((1, 0.5), (0.2, 0.1)), 0.05),
         "state must be a RegularizedState"),
        (lambda: torus_act(0.5, 0.5, None, 0.05), "state must be a RegularizedState"),
        (lambda: dynamics.flow_equivalence(None, 0.05), "state must be a RegularizedState"),
        (lambda: hamiltonian(_STATE, 0.05), "state must be a PlanarState"),
        (lambda: rescale_state(2.0, None), "state must be a PlanarState"),
        *_NOT_REAL_ROWS.values(),
    ],
    ids=["hill_classify", "hill_classify_text", "potential", "lc_base", "planar_q",
         "planar_p", "regularized_z", "regularized_w", "eps_text", "eps_none", "c_text",
         "moment_image_c", "moment_image_array", "period_oracle_c", "f_second_c",
         "c_array", "turning_point_array", "f_second_array", "c_ragged", "ellip_k_text",
         "ellip_k_array", "duration", "torus_time", "tol", "rescale", "measure_period_array",
         "potential_inf", "lc_base_nan", "c_array_none", "energy_split_state",
         "regularized_energy_state", "lc_lift_state", "conformal_factor_state",
         "integrate_regularized_state", "torus_act_state", "flow_equivalence_state",
         "hamiltonian_state", "rescale_state_state", *_NOT_REAL_ROWS],
)
def test_a_malformed_point_raises_domain_error(call, message):
    # a point that is not a pair of numbers, or a real argument that is not a
    # number, raised a bare ValueError or TypeError (measure_period's slice
    # energy too), a complex one lost its imaginary part with only a warning,
    # an integer beyond the doubles raised a bare OverflowError, and potential
    # and lc_base returned inf or nan for a point that is not finite, a cast
    # took None in an array for nan, and a state of another type raised a bare
    # AttributeError; the message names the argument
    with pytest.raises(DomainError, match=f"^{message}"):
        call()


# the arguments that take no number: a state, a selector, a count (an
# integer, refused by check_count) and quadrature's integrand
_NOT_NUMBERS = {"state", "sel", "n", "resolution", "f"}


def test_every_number_argument_of_every_export_has_malformed_rows():
    # each function and state class in the layers' __all__ that takes a
    # number has its complex and out-of-range rows above, one per argument
    wanted = set()
    for layer in ("elliptic", "stark_model", "levi_civita", "periods", "dynamics",
                  "toric_profile", "quadrature"):
        module = importlib.import_module(f"starktoric.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(
                    obj, (tuple, enum.Enum)):
                wanted |= {(layer, name, arg) for arg in inspect.signature(obj).parameters
                           if arg not in _NOT_NUMBERS}
    assert set(NUMBER_ARGUMENTS) == wanted


@pytest.mark.parametrize(
    "call, good, bad",
    [
        (lambda n: verify_convexity(0.05, n), 9, 2.9),
        (lambda n: profile_sample(0.05, n), 16, "16"),
        (lambda n: hill_grid(0.05, n), 8, 8.7),
    ],
    ids=["verify_convexity", "profile_sample", "hill_grid"],
)
def test_a_count_that_is_not_an_integer_is_refused(call, good, bad):
    # int() would truncate 2.9 to 2 samples and 8.7 to an 8 x 8 raster
    with pytest.raises(DomainError, match="must be an integer"):
        call(bad)
    # Python and numpy integers pass
    call(good)
    call(np.int64(good))


def test_hill_grid_resolution_bounds():
    with pytest.raises(DomainError, match="at least 8"):
        hill_grid(0.05, 7)
    # an (n, n) float64 grid of 2^60 cells is more than numpy can index
    with pytest.raises(DomainError, match="than numpy can index"):
        hill_grid(0.05, 2**30)


@pytest.mark.parametrize("eps", [0.2, 1.0 / 16.0])
def test_hill_regime_error(eps):
    with pytest.raises(DomainError, match="not below 1/16"):
        hill_classify((0.1, 0.0), eps)


@pytest.mark.parametrize("eps", [0.01, 0.05, 1e-4, 1e-8, 5e-324, math.nextafter(TORIC_LIMIT, 0)])
def test_two_components(eps):
    assert hill_component_count(eps) == 2


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, TORIC_LIMIT, 0.2])
def test_component_count_outside_the_domain(eps):
    with pytest.raises(DomainError):
        hill_component_count(eps)


def test_two_components_fine_grid():
    # resolution chosen so the cell size is at most 0.01
    eps = 0.05
    n = int(np.ceil(2.0 * analysis_radius(eps) / 0.01))
    assert hill_grid(eps, n).n_components == 2


@pytest.mark.parametrize("eps", [5e-324, 1e-310])
def test_hill_grid_at_subnormal_eps_has_finite_centers(eps):
    # 1/(2 eps) overflows there; the capped radius keeps the grid finite,
    # and any warning on the way fails the test
    grid = hill_grid(eps, 40)
    assert np.isfinite(2.0 * grid.radius)
    assert np.isfinite(grid.centers).all()
    assert np.all(np.diff(grid.centers) > 0.0)


def _bounded_analytically(q, eps):
    """Independent membership oracle in parabolic coordinates: the bounded
    component is {V <= -1/2} cut off at the saddle parabola |q| - q1 = 1/(2 eps)."""
    r = np.hypot(q[0], q[1])
    return (-1.0 / r + eps * q[0] <= -0.5) & (r - q[0] < 0.5 / eps)


# --- the closed-form count against scipy's flood fill as its oracle -------

def _flood_fill(grid):
    """scipy's 4-connected labels of the accessible cells (its default
    structure), their count, and whether a bounded and an unbounded cell
    share a label."""
    labels, count = ndimage.label(grid.allowed)
    joined = np.isin(labels[grid.bounded], labels[grid.allowed & ~grid.bounded]).any()
    return labels, count, bool(joined)


def _assert_split_by_flood_fill(grid, inside):
    """The flood fill's two components are `inside` and the rest of the
    accessible set, one label each."""
    labels, count, _ = _flood_fill(grid)
    assert grid.n_components == count == 2
    inner = set(np.unique(labels[inside]))
    outer = set(np.unique(labels[grid.allowed & ~inside]))
    assert len(inner) == 1 and len(outer) == 1
    assert inner.isdisjoint(outer | {0})


def test_flood_fill_matches_parabolic_oracle():
    grid = hill_grid(0.05, 512)
    q1, q2 = np.meshgrid(grid.centers, grid.centers, indexing="ij")
    _assert_split_by_flood_fill(grid, _bounded_analytically((q1, q2), grid.eps))


def test_hill_grid_contains_both_components():
    for eps in (0.01, 0.05):
        grid = hill_grid(eps, 512)
        _assert_split_by_flood_fill(grid, grid.bounded)


_HILL_EPS = st.one_of(
    st.floats(0.0, TORIC_LIMIT, exclude_min=True, exclude_max=True),
    st.floats(0.0624, TORIC_LIMIT, exclude_max=True),  # the neck narrower than a cell
    st.floats(1e-300, 1e-100),
    st.floats(0.0, 2.2250738585072014e-308, exclude_min=True, exclude_max=True),  # subnormal
    st.sampled_from([5e-324, 1e-4, math.nextafter(TORIC_LIMIT, 0)]),
)


def _assert_count_and_unresolved_match_flood_fill(eps, n):
    grid = hill_grid(eps, n)
    _, count, joined = _flood_fill(grid)
    assert (grid.n_components, grid.unresolved) == (count, joined)


@settings(max_examples=300, deadline=None)
@given(eps=_HILL_EPS, n=st.integers(8, 400))
def test_hill_grid_count_and_unresolved_match_flood_fill(eps, n):
    _assert_count_and_unresolved_match_flood_fill(eps, n)


# pinned cases beside the drawn ones, up to a finer grid than the draw
@pytest.mark.parametrize("n", [8, 60, 200, 1024])
@pytest.mark.parametrize("eps", [1e-8, 1e-3, 0.01, 0.05, 0.0624, 0.0624999])
def test_hill_grid_labels_match_scipy(eps, n):
    _assert_count_and_unresolved_match_flood_fill(eps, n)


@settings(max_examples=300, deadline=None)
@given(arrays(np.int8, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=30),
              elements=st.integers(0, 2)))
def test_touch_matches_flood_fill_on_random_masks(cells):
    # two disjoint masks touch iff the flood fill of their union joins them
    a, b = cells == 1, cells == 2
    labels, _ = ndimage.label(a | b)
    assert _touch(a, b) == np.isin(labels[a], labels[b]).any()
