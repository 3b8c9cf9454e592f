import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starktoric.errors import DomainError
from starktoric.levi_civita import (
    RegularizedState,
    conformal_factor,
    energy_split,
    lc_base,
    lc_lift,
    regularized_energy,
)
from starktoric.stark_model import (PlanarState, hamiltonian, hill_classify, potential,
                                    rescale_state)

OMEGA = np.block(
    [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
)


def test_base_map_values():
    assert lc_base((1.0, 0.0)) == pytest.approx([0.5, 0.0])
    assert lc_base((0.0, 1.0)) == pytest.approx([-0.5, 0.0])
    assert lc_base((1.0, 1.0)) == pytest.approx([0.0, 1.0])


def test_base_map_two_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = rng.uniform(-3, 3, 2)
        assert np.array_equal(lc_base(z), lc_base(-z))


def test_lift_values_and_domain():
    s = RegularizedState(z=(1.0, 0.0), w=(0.0, 0.0))
    out = lc_lift(s)
    assert out.q == pytest.approx([0.5, 0.0]) and out.p == pytest.approx([0.0, 0.0])
    s = RegularizedState(z=(1.0, 0.0), w=(2.0, 0.0))
    assert lc_lift(s).p == pytest.approx([2.0, 0.0])
    with pytest.raises(DomainError):
        lc_lift(RegularizedState(z=(0.0, 0.0), w=(1.0, 0.0)))


def _lift_vec(v):
    out = lc_lift(RegularizedState(z=v[:2], w=v[2:]))
    return np.concatenate([out.q, out.p])


def test_lift_is_symplectic():
    # fourth-order finite-difference Jacobian J must satisfy J^T Omega J = Omega
    rng = np.random.default_rng(9)
    h = 1e-4
    for _ in range(10):
        v = rng.uniform(-2, 2, 4)
        if np.hypot(v[0], v[1]) < 0.3:
            continue
        jac = np.empty((4, 4))
        for k in range(4):
            dv = np.zeros(4)
            dv[k] = h
            jac[:, k] = (
                8.0 * (_lift_vec(v + dv) - _lift_vec(v - dv))
                - (_lift_vec(v + 2 * dv) - _lift_vec(v - 2 * dv))
            ) / (12.0 * h)
        assert np.max(np.abs(jac.T @ OMEGA @ jac - OMEGA)) < 1e-10


def test_regularized_energy_values():
    s = RegularizedState(z=(1.0, 0.0), w=(0.0, 0.0))
    assert regularized_energy(s, 0.05) == pytest.approx(-1.475, rel=1e-15, abs=0)
    # zero state sits at the bottom: e1 = e2 = 0, total -2
    split = energy_split(RegularizedState(z=(0.0, 0.0), w=(0.0, 0.0)), 0.1)
    assert split.e1 == 0.0 and split.e2 == 0.0 and split.e1 + split.e2 - 2.0 == -2.0


def test_zero_field_level_set_is_round_sphere():
    rng = np.random.default_rng(13)
    for _ in range(50):
        u = rng.normal(size=4)
        u *= 2.0 / np.linalg.norm(u)  # radius-2 sphere
        s = RegularizedState(z=u[:2], w=u[2:])
        assert abs(regularized_energy(s, 0.0)) < 1e-14


def test_split_identity_is_exact():
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = RegularizedState(z=rng.uniform(-2, 2, 2), w=rng.uniform(-2, 2, 2))
        sp = energy_split(s, 0.07)
        assert regularized_energy(s, 0.07) == sp.e1 + sp.e2 - 2.0


@settings(max_examples=200, deadline=None)
@given(z=st.tuples(st.floats(-1e77, 1e77), st.floats(-1e77, 1e77)),
       w=st.tuples(st.floats(-1e100, 1e100), st.floats(-1e100, 1e100)),
       eps=st.floats(0.0, 0.0625))
def test_split_is_the_plain_quartic_where_z4_is_finite(z, w, eps):
    # the factored form of the potential stands in only where z^4 overflows
    s = RegularizedState(z=z, w=w)
    sp = energy_split(s, eps)
    e1 = 0.5 * w[0] * w[0] + 0.5 * z[0] * z[0] + 0.5 * eps * z[0] ** 4
    e2 = 0.5 * w[1] * w[1] + 0.5 * z[1] * z[1] - 0.5 * eps * z[1] ** 4
    assert (sp.e1, sp.e2) == (e1, e2)
    assert regularized_energy(s, eps) == e1 + e2 - 2.0


@pytest.mark.parametrize("z", [1e80, 1e100, 1e140])
def test_split_stays_finite_where_z4_overflows(z):
    # z^4 overflowed to inf: e2 read -inf and e1 inf, with an overflow warning
    eps = 1e-300
    sp = energy_split(RegularizedState(z=(z, z), w=(0.0, 0.0)), eps)
    with mp.workdps(50):
        z2, k = mp.mpf(z) ** 2, mp.mpf(eps) / 2
        for got, want in ((sp.e1, z2 / 2 + k * z2 * z2), (sp.e2, z2 / 2 - k * z2 * z2)):
            assert math.isfinite(got) and abs(mp.mpf(got) / want - 1) <= 1e-15


def test_soft_factor_critical_points():
    eps = 0.05
    saddle = 1.0 / math.sqrt(2.0 * eps)
    sp = energy_split(RegularizedState(z=(0.0, saddle), w=(0.0, 0.0)), eps)
    assert sp.e2 == pytest.approx(1.0 / (8.0 * eps), rel=1e-12, abs=0)
    # gradient of e2 vanishes at all three critical points
    h = 1e-5
    for z2 in (0.0, saddle, -saddle):
        e2 = lambda z, w: energy_split(RegularizedState(z=(0.0, z), w=(0.0, w)), eps).e2
        gz = (e2(z2 + h, 0.0) - e2(z2 - h, 0.0)) / (2 * h)
        gw = (e2(z2, h) - e2(z2, -h)) / (2 * h)
        assert abs(gz) < 1e-8 and abs(gw) < 1e-8


def test_pullback_identity():
    rng = np.random.default_rng(23)
    eps = 0.05
    for _ in range(500):
        z = rng.uniform(-3, 3, 2)
        if np.hypot(*z) < 0.1:
            continue
        s = RegularizedState(z=z, w=rng.uniform(-3, 3, 2))
        e = regularized_energy(s, eps)
        lifted = conformal_factor(s) * (hamiltonian(lc_lift(s), eps) + 0.5)
        assert abs(e - lifted) <= 1e-12 * (1.0 + abs(e))


def test_conformal_factor():
    assert conformal_factor(RegularizedState(z=(0.0, 0.0), w=(1.0, 2.0))) == 0.0
    assert conformal_factor(RegularizedState(z=(3.0, 4.0), w=(0.0, 0.0))) == 25.0


# finite inputs on which numpy warned (an error in this suite) before each
# call overflowed: the call returns what overflowed, or raises DomainError
@pytest.mark.parametrize("call, want", [
    (lambda: conformal_factor(RegularizedState(z=(1e200, 0.0), w=(0.0, 0.0))), math.inf),
    (lambda: lc_base((1e200, 1e200))[1], math.inf),
    (lambda: lc_lift(RegularizedState(z=(1e200, 0.0), w=(1.0, 0.0))), DomainError),
    (lambda: hamiltonian(PlanarState(q=(1.0, 0.0), p=(1e200, 0.0)), 0.05), math.inf),
    (lambda: potential((1e-320, 0.0), 0.05), -math.inf),
    (lambda: hill_classify((1e-320, 0.0), 0.05).value, "B"),
    # |q| - q1 overflows far down the field, and |q| itself beyond the largest double
    (lambda: hill_classify((-1e308, 0.0), 0.05).value, "U"),
    (lambda: hill_classify((-8e307, 8e307), 0.05).value, "U"),
    (lambda: hill_classify((-1.7e308, -1.7e308), 0.05).value, "U"),
    (lambda: potential((1.7e308, 1.7e308), 0.05), 0.05 * 1.7e308),
    (lambda: rescale_state(1e300, PlanarState(q=(1e10, 0.0), p=(1.0, 0.0))), DomainError),
    # the factor energies formed 2 eps, which overflows here, and read NaN
    (lambda: energy_split(RegularizedState(z=(0.0, 0.0), w=(0.0, 0.0)), 1e308), (0.0, 0.0)),
    (lambda: energy_split(RegularizedState(z=(1.0, 1.0), w=(0.0, 0.0)), 1e308), (5e307, -5e307)),
], ids=["conformal_factor", "lc_base", "lc_lift", "hamiltonian", "potential", "hill_classify",
        "hill_classify_down_the_field", "hill_classify_diagonal", "hill_classify_beyond_the_doubles",
        "potential_beyond_the_doubles", "rescale_state", "energy_split_at_rest",
        "energy_split_off_rest"])
def test_overflow_on_finite_input_does_not_warn(call, want):
    if want is DomainError:
        with pytest.raises(DomainError):
            call()
    else:
        assert call() == want


def test_regularized_energy_refuses_factor_energies_of_opposite_infinite_signs():
    # e1 = +inf and e2 = -inf had the sum NaN, which passed flow_equivalence's
    # zero-level check; one infinite energy is still a sum
    state = RegularizedState(z=(1e200, 1e200), w=(1e200, 0.0))
    assert energy_split(state, 0.05) == (math.inf, -math.inf)
    with pytest.raises(DomainError, match="opposite signs"):
        regularized_energy(state, 0.05)
    assert regularized_energy(RegularizedState(z=(1e200, 0.0), w=(0.0, 0.0)), 0.05) == math.inf
