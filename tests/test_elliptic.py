"""Elliptic-integral kernel against its quadrature oracles and mpmath.

Golden values marked "frozen" were produced by the adaptive-quadrature
oracles of the defining integrals (``oracles.py``) before the AGM path
was adopted.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ellipj, ellipk, ellipkinc

from starktoric import elliptic, periods
from starktoric.elliptic import (
    _agm,
    _ellip_f,
    _jacobi,
    ellip_k,
    ellip_k_d1,
    ellip_k_d2,
)
from starktoric.errors import DomainError

from oracles import ellip_k_d1_oracle, ellip_k_d2_oracle, ellip_k_oracle

K_HALF = 1.8540746773013717  # frozen from ellip_k_oracle(0.5)
K_MINUS_ONE = 1.3110287771460596  # frozen from ellip_k_oracle(-1.0)
D1_HALF = 0.8472130847939789  # frozen from ellip_k_d1_oracle(0.5)

# grid covering the negative tail, the origin region and the near-1 regime
M_GRID = np.concatenate(
    [np.linspace(-10.0, -0.05, 24), np.linspace(-0.04, 0.95, 28), [0.98, 0.995, 0.999]]
)


def test_trivial_values():
    assert ellip_k(0.0) == pytest.approx(np.pi / 2, rel=1e-15, abs=0)
    assert ellip_k_d1(0.0) == pytest.approx(np.pi / 8, rel=1e-15, abs=0)
    assert ellip_k_d2(0.0) == pytest.approx(9 * np.pi / 64, rel=1e-15, abs=0)
    assert ellip_k_d1(0.0) / ellip_k(0.0) == pytest.approx(0.25, rel=1e-15, abs=0)


def test_golden_half():
    assert ellip_k(0.5) == pytest.approx(K_HALF, rel=1e-14, abs=0)


def test_negative_parameter_transformation():
    # identity K(-1) = K(1/2)/sqrt(2), cross-checked against the raw integral
    assert ellip_k(-1.0) == pytest.approx(K_MINUS_ONE, rel=1e-14, abs=0)
    assert ellip_k(-1.0) == pytest.approx(ellip_k(0.5) / np.sqrt(2.0), rel=1e-14, abs=0)
    assert ellip_k_oracle(-1.0) == pytest.approx(K_MINUS_ONE, rel=1e-12, abs=0)


def test_oracle_trivial_and_branches():
    spec_default_pi_half = ellip_k_oracle(0.0)
    assert spec_default_pi_half == pytest.approx(np.pi / 2, abs=1e-11)
    assert ellip_k_oracle(0.9) == pytest.approx(ellip_k(0.9), rel=1e-10, abs=0)
    assert ellip_k_oracle(-10.0) == pytest.approx(ellip_k(-10.0), rel=1e-10, abs=0)
    # far out on the negative axis the integrands peak within |m|^(-1/2) of
    # t = 0, and near m = 1 within sqrt(1 - m) of pi/2; the oracles resolve
    # both to the quadrature's relative tolerance, with no absolute floor
    for m in (-1e4, -1e6, -1e9, 0.999999):
        # abs=0: K''(-1e9) is 2.5e-22, below pytest's default absolute 1e-12
        assert ellip_k_oracle(m) == pytest.approx(ellip_k(m), rel=1e-12, abs=0)
        assert ellip_k_d1_oracle(m) == pytest.approx(ellip_k_d1(m), rel=1e-12, abs=0)
        assert ellip_k_d2_oracle(m) == pytest.approx(ellip_k_d2(m), rel=1e-12, abs=0)


def test_agm_matches_oracle_on_grid():
    k = ellip_k(M_GRID)
    oracle = np.array([ellip_k_oracle(m) for m in M_GRID])
    assert np.max(np.abs(k - oracle) / oracle) < 1e-10


def test_d1_both_paths_agree():
    assert ellip_k_d1(0.5) == pytest.approx(D1_HALF, rel=1e-12, abs=0)
    assert ellip_k_d1_oracle(0.5) == pytest.approx(D1_HALF, rel=1e-9, abs=0)
    for m in (-5.0, -0.3, 0.2, 0.9):
        assert ellip_k_d1(m) == pytest.approx(ellip_k_d1_oracle(m), rel=1e-9, abs=0)


def test_d1_series_joins_closed_form():
    # the closed form (E - (1-m) K) / (2 m (1-m)) has a removable
    # singularity at m = 0; the AGM sum must stay smooth across it
    for m in (9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4):
        assert ellip_k_d1(m) == pytest.approx(ellip_k_d1_oracle(m), rel=1e-10, abs=0)


def test_d1_positive_on_grid():
    grid = np.linspace(-0.9, 0.9, 61)
    assert np.all(ellip_k_d1(grid) > 0.0)


@pytest.mark.parametrize("m", [0.3, -2.0])
def test_d2_against_finite_differences(m):
    h = 1e-4
    fd = (ellip_k(m + h) - 2.0 * ellip_k(m) + ellip_k(m - h)) / h**2
    val = ellip_k_d2(m)
    assert val > 0.0
    assert val == pytest.approx(fd, abs=1e-5)


def test_positivity_and_monotonicity_on_grid():
    k = ellip_k(M_GRID)
    d1 = ellip_k_d1(M_GRID)
    d2 = ellip_k_d2(M_GRID)
    assert np.all(k > 0.0)
    assert np.all(d1 > 0.0)
    assert np.all(d2 > 0.0)
    # K is strictly increasing
    assert np.all(np.diff(k) > 0.0)
    # Cauchy-Schwarz interpolation bound K K'' >= 3 K'^2
    assert np.all(k * d2 - 3.0 * d1 * d1 >= -1e-9 * k * d2)


def test_log_convexity_by_second_differences():
    h = 1e-3
    grid = np.concatenate([np.linspace(-10.0, 0.9, 45), [0.95, 0.98]])
    second = np.log(ellip_k(grid + h)) - 2.0 * np.log(ellip_k(grid)) + np.log(
        ellip_k(grid - h)
    )
    assert np.all(second > 0.0)


def test_log_derivative_strictly_increasing():
    grid = np.linspace(-1.0 + 1e-9, 0.99, 80)
    vals = ellip_k_d1(grid) / ellip_k(grid)
    assert np.all(np.diff(vals) > 0.0)


def test_log_second_derivative_positive():
    # (K'/K)' = (K K'' - K'^2)/K^2 > 0, and the Cauchy-Schwarz bound K K'' >= 3 K'^2
    for m in (-3.0, 0.0, 0.6):
        k, d1, d2 = ellip_k(m), ellip_k_d1(m), ellip_k_d2(m)
        assert k * d2 - d1 * d1 > 0.0
        assert k * d2 - 3.0 * d1 * d1 >= 0.0


@pytest.mark.parametrize("bad", [1.0, 1.5, np.nan])
def test_domain_errors(bad):
    for fn in (ellip_k, ellip_k_d1, ellip_k_d2, ellip_k_oracle):
        with pytest.raises(DomainError):
            fn(bad)


@pytest.mark.parametrize(
    "fn",
    [ellip_k, ellip_k_d1, ellip_k_d2],
    ids=lambda fn: fn.__name__,
)
def test_minus_infinity_is_outside_the_domain(fn):
    # the domain is the open interval (-inf, 1)
    for bad in (-np.inf, np.array([-1.0, -np.inf])):
        with pytest.raises(DomainError, match="-inf <"):
            fn(bad)


def test_array_in_array_out():
    arr = np.array([-1.0, 0.0, 0.5])
    out = ellip_k(arr)
    assert out.shape == arr.shape
    assert out[1] == pytest.approx(np.pi / 2)
    assert isinstance(ellip_k(0.5), float)


def _assert_batch_independent(fn, block):
    # each row of a 2-D block comes out exactly as its own 1-D call, and
    # each element of a row exactly as its own scalar call
    out = fn(block)
    assert out.shape == block.shape
    for row, got in zip(block, out):
        assert got.tobytes() == fn(row).tobytes()
        assert got.tolist() == [fn(v) for v in row.tolist()]


def test_batched_rows_match_single_calls():
    # elements converge after different numbers of AGM steps
    block = np.stack(
        [
            np.linspace(-10.0, -0.05, 31),
            np.linspace(-1e-3, 1e-3, 31),
            np.linspace(0.1, 0.5, 31),
            np.linspace(0.9, 0.999, 31),
            np.zeros(31),
            -np.geomspace(1e6, 1e-300, 31),
            1.0 - np.geomspace(1.0, 1e-15, 31),
        ]
    )
    # the period kernel 2^{5/2} phi and its logarithmic derivative lphi too
    tau = lambda x: periods._tau_lphi(x)[0]
    lphi = lambda x: periods._tau_lphi(x)[1]
    for fn in (ellip_k, ellip_k_d1, ellip_k_d2, tau, lphi):
        _assert_batch_independent(fn, block)
    energies = np.stack([np.linspace(0.0, 2.0, 31), np.geomspace(1e-300, 2.0, 31)])
    for eps in (1e-8, 0.05, 0.0625 - 2.0**-57):
        for period in (periods.tau1, periods.tau2):
            _assert_batch_independent(lambda c: period(eps, c), energies)


def test_log_k_d2_is_one_agm_for_a_batch(monkeypatch):
    calls = []
    agm = elliptic._agm

    def counted(m, cm=None):
        calls.append(np.size(m))
        return agm(m, cm)

    monkeypatch.setattr(elliptic, "_agm", counted)
    ellip_k_d2(np.linspace(-0.9, 0.99, 500))
    assert calls == [500]


@pytest.mark.parametrize(
    "oracle",
    [ellip_k_oracle, ellip_k_d1_oracle, ellip_k_d2_oracle, ellip_k_d2],
)
def test_quadrature_oracles_keep_a_2d_shape(oracle):
    # the oracles and the closed-form K'' both work element by element
    block = np.array([[-0.5, 0.0], [0.3, 0.9]])
    out = oracle(block)
    assert out.shape == block.shape
    assert out.tolist() == [[oracle(v) for v in row] for row in block.tolist()]
    assert oracle(np.empty((0, 3))).shape == (0, 3)


def _rel(got, want) -> float:
    return float(abs(mp.mpf(got) / want - 1))


@settings(max_examples=150, deadline=None)
@given(m=st.floats(-1e3, 0.99))
@example(m=0.0)
@example(m=5e-324)
@example(m=-5e-324)
@example(m=1.01e-4)
@example(m=-1.01e-4)
@example(m=-511.07)
def test_d1_and_log_derivative_match_hypergeometric_oracle(m):
    with mp.workdps(40):
        d1 = mp.pi / 8 * mp.hyp2f1(1.5, 1.5, 2, m)
        for batch in (np.array(m), np.array([m, 0.99])):
            assert _rel(np.ravel(ellip_k_d1(batch))[0], d1) <= 5e-15


@pytest.mark.parametrize("m", [-511.07, -1e6, -1e300, -np.finfo(float).max])
def test_k_at_large_negative_parameter_matches_mpmath(m):
    # the AGM on m/(m - 1) starts from b_0 = sqrt(1/(1 - m)), not from the
    # square root of 1 - m/(m - 1) rounded (3.0e-12 off at m = -1e6)
    with mp.workdps(40):
        assert _rel(ellip_k(m), mp.ellipk(m)) <= 1e-15


def test_most_negative_parameter_neither_overflows_nor_warns():
    # K' and K'' underflow to 0 there; nothing overflows
    m = -np.finfo(float).max
    for fn in (ellip_k, ellip_k_d1, ellip_k_d2):
        assert 0.0 <= fn(m) < np.inf


def test_d2_matches_quadrature_oracle_on_grid():
    d2 = ellip_k_d2(M_GRID)
    oracle = ellip_k_d2_oracle(M_GRID)
    assert np.max(np.abs(d2 - oracle) / oracle) < 1e-9


@settings(max_examples=150, deadline=None)
@given(m=st.floats(-1e3, 1.0 - 1e-12))
@example(m=0.0)
@example(m=5e-324)
@example(m=-5e-324)
@example(m=1e-20)
@example(m=4e-16)
@example(m=1.0 - 1e-12)
@example(m=-1e3)
def test_d2_trio_matches_hypergeometric_oracle(m):
    # K'' = (9 pi/64) 2F1(5/2, 5/2; 3; m)
    with mp.workdps(50):
        d2 = 9 * mp.pi / 64 * mp.hyp2f1(2.5, 2.5, 3, m)
        assert _rel(ellip_k_d2(m), d2) <= 1e-14


# --- Jacobi functions and F from one AGM table, against scipy ---------------


@settings(max_examples=300, deadline=None)
@given(
    m=st.floats(0.0, 0.999),
    u=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8),
    phi=st.lists(st.floats(-20.0, 20.0, allow_subnormal=False), min_size=1, max_size=8),
)
@example(m=0.0, u=[-50.0, 0.0, 50.0], phi=[0.0, 20.0])
@example(m=5e-324, u=[-50.0, 0.0, 50.0], phi=[0.0, -20.0])
@example(m=0.999, u=[-40.31, 37.1], phi=[1.5707963267948966, 19.9])
def test_jacobi_and_incomplete_f_match_scipy(m, u, phi):
    table, d, _ = _agm(np.array(m))
    assert np.pi / (2.0 * table[-1][0]) == pytest.approx(ellipk(m), rel=1e-15, abs=0)
    got = _jacobi(np.array(u), m, table, d)
    for g, want in zip(got, ellipj(np.array(u), m)[:3]):
        assert np.max(np.abs(g - want)) <= 1e-13
    want = ellipkinc(np.array(phi), m)
    assert np.all(np.abs(_ellip_f(np.array(phi), table) - want) <= 2e-15 * np.abs(want))
