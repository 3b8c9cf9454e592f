"""Elliptic-integral kernel against its quadrature oracles.

Golden values marked "frozen" were produced by the adaptive-quadrature
oracles of the defining integrals before the AGM path was adopted.
"""

import numpy as np
import pytest

from starktoric.elliptic import (
    ellip_e,
    ellip_k,
    ellip_k_d1,
    ellip_k_d1_oracle,
    ellip_k_d2,
    ellip_k_oracle,
    interpolation_gap,
    log_k_d1,
    log_k_d2,
)
from starktoric.errors import DomainError

K_HALF = 1.8540746773013717  # frozen from ellip_k_oracle(0.5)
K_MINUS_ONE = 1.3110287771460596  # frozen from ellip_k_oracle(-1.0)
D1_HALF = 0.8472130847939789  # frozen from ellip_k_d1_oracle(0.5)

# grid covering the negative tail, the origin region and the near-1 regime
M_GRID = np.concatenate(
    [np.linspace(-10.0, -0.05, 24), np.linspace(-0.04, 0.95, 28), [0.98, 0.995, 0.999]]
)


def test_trivial_values():
    assert ellip_k(0.0) == pytest.approx(np.pi / 2, rel=1e-15)
    assert ellip_k_d1(0.0) == pytest.approx(np.pi / 8, rel=1e-15)
    assert ellip_k_d2(0.0) == pytest.approx(9 * np.pi / 64, rel=1e-12)
    assert log_k_d1(0.0) == pytest.approx(0.25, rel=1e-15)


def test_golden_half():
    assert ellip_k(0.5) == pytest.approx(K_HALF, rel=1e-14)


def test_negative_parameter_transformation():
    # identity K(-1) = K(1/2)/sqrt(2), cross-checked against the raw integral
    assert ellip_k(-1.0) == pytest.approx(K_MINUS_ONE, rel=1e-14)
    assert ellip_k(-1.0) == pytest.approx(ellip_k(0.5) / np.sqrt(2.0), rel=1e-14)
    assert ellip_k_oracle(-1.0) == pytest.approx(K_MINUS_ONE, rel=1e-12)


def test_oracle_trivial_and_branches():
    spec_default_pi_half = ellip_k_oracle(0.0)
    assert spec_default_pi_half == pytest.approx(np.pi / 2, abs=1e-11)
    assert ellip_k_oracle(0.9) == pytest.approx(ellip_k(0.9), rel=1e-10)
    assert ellip_k_oracle(-10.0) == pytest.approx(ellip_k(-10.0), rel=1e-10)


def test_agm_matches_oracle_on_grid():
    k = ellip_k(M_GRID)
    oracle = np.array([ellip_k_oracle(m) for m in M_GRID])
    assert np.max(np.abs(k - oracle) / oracle) < 1e-10


def test_d1_both_paths_agree():
    assert ellip_k_d1(0.5) == pytest.approx(D1_HALF, rel=1e-12)
    assert ellip_k_d1_oracle(0.5) == pytest.approx(D1_HALF, rel=1e-9)
    for m in (-5.0, -0.3, 0.2, 0.9):
        assert ellip_k_d1(m) == pytest.approx(ellip_k_d1_oracle(m), rel=1e-9)


def test_d1_series_joins_closed_form():
    # the removable singularity at m = 0 is bridged by a series; both
    # representations must agree where they hand over
    for m in (9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4):
        assert ellip_k_d1(m) == pytest.approx(ellip_k_d1_oracle(m), rel=1e-10)


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
    vals = log_k_d1(grid)
    assert np.all(np.diff(vals) > 0.0)
    assert log_k_d1(0.7) == pytest.approx(ellip_k_d1(0.7) / ellip_k(0.7), rel=1e-14)


def test_log_second_derivative_positive():
    for m in (-3.0, 0.0, 0.6):
        assert log_k_d2(m) > 0.0
        assert interpolation_gap(m) >= 0.0


@pytest.mark.parametrize("bad", [1.0, 1.5, np.nan])
def test_domain_errors(bad):
    for fn in (ellip_k, ellip_e, ellip_k_d1, ellip_k_d2, ellip_k_oracle, log_k_d1):
        with pytest.raises(DomainError):
            fn(bad)


def test_array_in_array_out():
    arr = np.array([-1.0, 0.0, 0.5])
    out = ellip_k(arr)
    assert out.shape == arr.shape
    assert out[1] == pytest.approx(np.pi / 2)
    assert isinstance(ellip_k(0.5), float)


def test_batched_rows_match_single_calls():
    # rows converge after different numbers of AGM steps; each row of a
    # 2-D block must come out exactly as its own 1-D call
    block = np.stack(
        [
            np.linspace(-10.0, -0.05, 31),
            np.linspace(-1e-3, 1e-3, 31),
            np.linspace(0.1, 0.5, 31),
            np.linspace(0.9, 0.999, 31),
            np.zeros(31),
        ]
    )
    for fn in (ellip_k, ellip_e):
        out = fn(block)
        assert out.shape == block.shape
        for row, got in zip(block, out):
            assert got.tobytes() == fn(row).tobytes()


@pytest.mark.parametrize("oracle", [ellip_k_oracle, ellip_k_d1_oracle, ellip_k_d2])
def test_quadrature_oracles_keep_a_2d_shape(oracle):
    block = np.array([[-0.5, 0.0], [0.3, 0.9]])
    out = oracle(block)
    assert out.shape == block.shape
    assert out.tolist() == [[oracle(v) for v in row] for row in block.tolist()]
