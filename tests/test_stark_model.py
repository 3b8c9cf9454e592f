import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

from starktoric.errors import DomainError, RegimeError
from starktoric.stark_model import (
    HillClass,
    PlanarState,
    critical_point,
    critical_value,
    hamiltonian,
    hill_classify,
    hill_component_count,
    hill_grid,
    potential,
    rescale_state,
    analysis_radius,
    _label_runs,
)


def test_potential_values():
    assert potential((1.0, 0.0), 0.05) == pytest.approx(-0.95, rel=1e-15)
    eps = 0.05
    assert potential((-1.0 / math.sqrt(eps), 0.0), eps) == pytest.approx(
        -2.0 * math.sqrt(eps), rel=1e-14
    )
    assert potential((0.0, 1.0), 0.3) == pytest.approx(-1.0, rel=1e-15)


def test_potential_rejects_origin():
    with pytest.raises(DomainError):
        potential((0.0, 0.0), 0.05)


def test_hamiltonian_values():
    s = PlanarState(q=(1.0, 0.0), p=(0.0, 0.0))
    assert hamiltonian(s, 0.05) == pytest.approx(-0.95, rel=1e-15)
    assert hamiltonian(critical_point(0.05), 0.05) == pytest.approx(
        critical_value(0.05), rel=1e-14
    )
    # at the critical field strength the saddle sits exactly at energy -1/2
    assert hamiltonian(critical_point(1.0 / 16.0), 1.0 / 16.0) == pytest.approx(
        -0.5, rel=1e-14
    )


def test_critical_point_location():
    assert critical_point(1.0 / 16.0).q == pytest.approx([-4.0, 0.0])
    assert critical_point(0.01).q == pytest.approx([-10.0, 0.0])


def test_critical_point_gradient_vanishes():
    eps = 0.05
    q = critical_point(eps).q
    h = 1e-6
    gx = (potential(q + [h, 0], eps) - potential(q - [h, 0], eps)) / (2 * h)
    gy = (potential(q + [0, h], eps) - potential(q - [0, h], eps)) / (2 * h)
    assert abs(gx) < 1e-6 and abs(gy) < 1e-6


def test_critical_values():
    assert critical_value(1.0 / 16.0) == pytest.approx(-0.5, rel=1e-15)
    assert critical_value(0.25) == pytest.approx(-1.0, rel=1e-15)
    assert critical_value(0.04) == pytest.approx(-0.4, rel=1e-15)


def test_rescale_identity_and_pullback():
    s = PlanarState(q=(1.0, 0.0), p=(0.0, 0.0))
    s1 = rescale_state(1.0, s)
    assert np.array_equal(s1.q, s.q) and np.array_equal(s1.p, s.p)
    # H_eps(a q, p/sqrt(a)) = (1/a) H_{a^2 eps}(q, p), spot value -0.05
    lhs = hamiltonian(rescale_state(4.0, s), 0.05)
    rhs = 0.25 * hamiltonian(s, 0.8)
    assert lhs == pytest.approx(-0.05, rel=1e-13)
    assert lhs == pytest.approx(rhs, rel=1e-13)


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
    assert s_ab.q == pytest.approx(s_prod.q, rel=1e-14)
    assert s_ab.p == pytest.approx(s_prod.p, rel=1e-14)
    for _ in range(20):
        eps = rng.uniform(0.001, 0.2)
        a = rng.uniform(0.3, 3.0)
        assert critical_point(a * a * eps).q == pytest.approx(
            critical_point(eps).q / a, rel=1e-13
        )
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


@pytest.mark.parametrize("eps", [0.2, 1.0 / 16.0])
def test_hill_regime_error(eps):
    with pytest.raises(RegimeError):
        hill_classify((0.1, 0.0), eps)


@pytest.mark.parametrize("eps", [0.01, 0.05])
def test_two_components(eps):
    assert hill_component_count(eps) == 2


def test_two_components_fine_grid():
    # resolution chosen so the cell size is at most 0.01
    eps = 0.05
    n = int(np.ceil(2.0 * analysis_radius(eps) / 0.01))
    assert hill_component_count(eps, n) == 2


def _bounded_analytically(q, eps):
    """Independent membership oracle in parabolic coordinates: the bounded
    component is {V <= -1/2} cut off at the saddle parabola |q| - q1 = 1/(2 eps)."""
    r = np.hypot(q[0], q[1])
    return (-1.0 / r + eps * q[0] <= -0.5) & (r - q[0] < 0.5 / eps)


def _assert_split_by_flood_fill(grid, inside):
    """The flood fill's two components are `inside` and the rest of the
    accessible set, one label each."""
    assert grid.n_components == 2
    inner = set(np.unique(grid.labels[inside]))
    outer = set(np.unique(grid.labels[grid.allowed & ~inside]))
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


# --- flood fill against scipy.ndimage as its oracle ----------------------

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _assert_labels_match_scipy(mask):
    labels, count = _label_runs(mask)
    want, want_count = ndimage.label(mask, structure=_CROSS)
    assert count == want_count
    assert labels.dtype == want.dtype
    assert np.array_equal(labels, want)


@settings(max_examples=300, deadline=None)
@given(arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)))
def test_run_labeller_matches_scipy_on_random_masks(mask):
    _assert_labels_match_scipy(mask)


@pytest.mark.parametrize(
    "mask",
    [
        np.zeros((17, 23), dtype=bool),
        np.ones((17, 23), dtype=bool),
        np.zeros((1, 1), dtype=bool),
        np.ones((1, 1), dtype=bool),
        np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=bool),
        np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=bool).T,
        np.indices((31, 29)).sum(axis=0) % 2 == 0,
        # a comb whose teeth join only along the last row
        np.vstack([np.tile([True, False], (9, 8)), np.ones((1, 16), dtype=bool)]),
    ],
    ids=["empty", "full", "1x1-off", "1x1-on", "1xn", "nx1", "checkerboard", "comb"],
)
def test_run_labeller_matches_scipy_on_edge_masks(mask):
    _assert_labels_match_scipy(mask)


@pytest.mark.parametrize("n", [8, 60, 200, 1024])
@pytest.mark.parametrize("eps", [1e-8, 1e-3, 0.01, 0.05, 0.0624, 0.0624999])
def test_hill_grid_labels_match_scipy(eps, n):
    grid = hill_grid(eps, n)
    want, want_count = ndimage.label(grid.allowed, structure=_CROSS)
    assert grid.n_components == want_count
    assert np.array_equal(grid.labels, want)
